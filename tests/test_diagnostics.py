import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xchmc import (Budget, ChainRecord, DivergedLeg, LegSpec, Observable, PhaseState,
                   SamplerConfig, TargetModel, ZeroVarianceError, builtin_target,
                   check_main_identity, chain_rng, coordinate, ess_initial_monotone,
                   estimate_average, flip, interval_indicator, log_rho, make_observable,
                   run_chain, sigma_sequence, slot_stats, squared_radius, verlet_leg)


def ar1_series(phi, n, seed):
    """AR(1) with unit innovations; autocorrelation phi**k, ESS/n = (1-phi)/(1+phi)."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


class TestEssEstimator:
    def test_iid_series_close_to_n(self):
        x = np.random.default_rng(3).standard_normal(100_000)
        ess = ess_initial_monotone(x)
        assert 0.9 * x.size <= ess <= x.size

    @pytest.mark.parametrize("phi", [0.3, 0.5, 0.9])
    def test_ar1_matches_theory(self, phi):
        n = 100_000
        x = ar1_series(phi, n, seed=int(phi * 100))
        expected = n * (1 - phi) / (1 + phi)
        assert ess_initial_monotone(x) == pytest.approx(expected, rel=0.10)

    def test_consistent_across_series_length(self):
        x = ar1_series(0.7, 200_000, seed=7)
        short = ess_initial_monotone(x[:100_000]) / 100_000
        full = ess_initial_monotone(x) / 200_000
        assert abs(short - full) / full < 0.05

    def test_antithetic_series_clamps_to_n(self):
        # perfectly alternating series has negative lag-1 autocorrelation; the
        # estimator must not report more effective samples than actual ones
        x = np.tile([1.0, -1.0], 5000) + 1e-3 * np.random.default_rng(0).standard_normal(10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert ess_initial_monotone(x) <= 10_000

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVarianceError):
            ess_initial_monotone(np.ones(100))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            ess_initial_monotone(np.arange(5, dtype=float))

    def test_non_finite_rejected(self):
        x = np.ones(100)
        x[3] = np.nan
        with pytest.raises(ValueError):
            ess_initial_monotone(x)

    def test_never_exceeds_sample_count(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(500)
            assert ess_initial_monotone(x) <= 500


class TestSlotStats:
    def _record(self, gauss1d, extra, seed, n=2000):
        config = SamplerConfig(leg=LegSpec(0.9, 3), psi=math.pi / 2,
                               extra_chances=extra, seed=seed)
        return run_chain(gauss1d, config, PhaseState([0.0], [1.0]),
                         Budget(transitions=n))

    def test_counts_partition_transitions(self, gauss1d):
        rec = self._record(gauss1d, extra=2, seed=1)
        stats = slot_stats(rec)
        assert stats.counts.sum() == rec.transitions
        assert stats.counts.size == 4  # slots 1..3 plus the flip
        assert stats.acceptance_fractions.sum() + stats.flip_fraction == pytest.approx(1.0)
        assert stats.total_acceptance == pytest.approx(stats.acceptance_fractions.sum())

    def test_zero_transitions_rejected(self, gauss1d):
        rec = self._record(gauss1d, extra=0, seed=2, n=0)
        with pytest.raises(ValueError):
            slot_stats(rec)


class TestMainIdentity:
    def test_exact_flow_balances_trivially(self):
        free = TargetModel(dim=1, potential=lambda x: 0.0,
                           gradient=lambda x: np.zeros_like(x))
        z = PhaseState([0.4], [1.2])
        assert check_main_identity(free, LegSpec(0.2, 3), z, 1) == 0.0
        assert check_main_identity(free, LegSpec(0.2, 3), z, 2) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gaussian_battery(self, gauss2d, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(50):
            z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
            assert check_main_identity(gauss2d, LegSpec(0.2, 5), z, k) <= 1e-10

    def test_double_well_battery(self, dwell2d):
        rng = np.random.default_rng(200)
        for i in range(50):
            z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
            assert check_main_identity(dwell2d, LegSpec(0.15, 4), z, 1 + i % 3) <= 1e-8

    @pytest.mark.parametrize("k,cost", [(1, 11), (2, 21), (4, 41)])
    def test_one_orbit_per_side(self, counting, gauss2d, k, cost):
        # 5-step legs cost 5 gradient evaluations, plus 1 at z: k legs from z, k from
        # the mirror, which starts from the gradient the orbit of z ends with.
        model, calls = counting(gauss2d)
        leg = LegSpec(0.5, 5)
        rng = np.random.default_rng(300 + k)
        nonzero = 0
        for _ in range(20):
            z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
            calls["gradient"] = 0
            got = check_main_identity(model, leg, z, k)
            assert calls["gradient"] == cost
            assert got == self._two_orbit_discrepancy(gauss2d, leg, z, k)
            nonzero += got > 0.0
        assert nonzero > 0  # the comparison is not only of zeros

    @staticmethod
    def _two_orbit_discrepancy(model, leg, z, k):
        """The discrepancy as computed before, through public calls only."""
        current = z
        for _ in range(k):
            current, _ = verlet_leg(model, leg, current)
        mirror = flip(current)
        p_here = sigma_sequence(model, leg, z, k - 1).p[k - 1]
        p_there = sigma_sequence(model, leg, mirror, k - 1).p[k - 1]
        log_here, log_there = log_rho(model, z), log_rho(model, mirror)
        ref = max(log_here, log_there)
        if ref == -math.inf:
            return 0.0
        left = math.exp(log_here - ref) * p_here
        right = math.exp(log_there - ref) * p_there
        if left == right:
            return 0.0
        return abs(left - right) / max(abs(left), abs(right))

    def test_diverged_orbit_raises(self):
        dwell = builtin_target("double_well", 1)
        with pytest.raises(DivergedLeg):
            check_main_identity(dwell, LegSpec(2.0, 50), PhaseState([3.0], [0.0]), 2)


class TestObservables:
    @staticmethod
    def _apply(obs, rows):
        return [obs.fn(np.asarray(row, dtype=float)) for row in rows]

    def test_coordinate(self):
        obs = coordinate(1)
        assert obs.name == "x1"
        assert self._apply(obs, [[1.0, 2.0], [3.0, 4.0]]) == [2.0, 4.0]

    def test_squared_radius(self):
        assert self._apply(squared_radius(), [[3.0, 4.0], [0.0, 2.0]]) == [25.0, 4.0]

    def test_interval_indicator(self):
        obs = interval_indicator(0, 0.0, 2.0)
        assert self._apply(obs, [[-1.0], [1.0], [3.0]]) == [0.0, 1.0, 0.0]

    def test_make_observable_strings(self):
        assert make_observable("x0").name == "x0"
        assert make_observable("x3").name == "x3"
        assert make_observable("r2").name == "r2"

    def test_make_observable_mapping(self):
        obs = make_observable({"kind": "indicator", "index": 0,
                               "lo": -1.0, "hi": 1.0})
        assert self._apply(obs, [[0.5], [1.5]]) == [1.0, 0.0]

    @pytest.mark.parametrize("kind", ["coordinate", "indicator"])
    @pytest.mark.parametrize("index", [2.5, True, "2"])
    def test_make_observable_rejects_a_non_integer_index(self, kind, index):
        with pytest.raises(ValueError, match="index"):
            make_observable({"kind": kind, "index": index, "lo": 0.0, "hi": 1.0})

    def test_make_observable_takes_an_integral_index(self):
        assert make_observable({"kind": "coordinate", "index": 2.0}).name == "x2"

    def test_make_observable_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_observable("potato")
        with pytest.raises(ValueError):
            make_observable({"kind": "mystery"})


# Coordinates on a half-integer grid as well as arbitrary ones, so that indicator
# bounds and positions often coincide.
_coordinates = st.one_of(st.integers(-8, 8).map(lambda k: k / 2.0),
                         st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def positions_and_observable(draw):
    dim = draw(st.integers(1, 4))
    rows = draw(st.integers(10, 40))
    positions = np.array(draw(st.lists(st.lists(_coordinates, min_size=dim, max_size=dim),
                                       min_size=rows, max_size=rows)),
                         order=draw(st.sampled_from("CF")))
    index = draw(st.integers(0, dim - 1))
    if draw(st.booleans()):
        return positions, coordinate(index)
    lo, hi = sorted(draw(st.lists(_coordinates, min_size=2, max_size=2, unique=True)))
    return positions, interval_indicator(index, lo, hi)


def record_of(positions):
    n = positions.shape[0] - 1
    return ChainRecord(positions=positions, momenta=np.zeros_like(positions),
                       slots=np.ones(n, dtype=int), candidates=np.ones(n, dtype=int),
                       force_evals=np.ones(n, dtype=int), dt_used=np.ones(n),
                       extra_chances=0, burn_in=0)


class TestObservableColumns:
    @given(positions_and_observable())
    def test_column_is_the_row_values(self, case):
        positions, obs = case
        column = np.ascontiguousarray(obs.column(positions), dtype=float)
        rows = np.array([obs.fn(x) for x in positions])
        assert column.tobytes() == rows.tobytes()

    @given(positions_and_observable())
    def test_estimate_average_equals_the_row_path(self, case):
        positions, obs = case
        record = record_of(positions)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            by_column = estimate_average(record, obs)
            by_row = estimate_average(record, Observable(obs.name, obs.fn))
        assert np.array(by_column).tobytes() == np.array(by_row).tobytes()

    def test_squared_radius_keeps_the_row_path(self):
        # A row-wise sum of squares need not round as x @ x does.
        assert squared_radius().column is None


class TestEstimateAverage:
    def test_iid_like_chain_recovers_known_mean(self, gauss1d):
        config = SamplerConfig(leg=LegSpec(0.8, 5), psi=math.pi / 2,
                               extra_chances=1, jitter_fraction=0.05, seed=9)
        rng = chain_rng(9, 0)
        z0 = PhaseState(rng.standard_normal(1), rng.standard_normal(1))
        rec = run_chain(gauss1d, config, z0, Budget(transitions=40_000, burn_in=200),
                        rng=rng)
        est = estimate_average(rec, make_observable("x0"))
        assert abs(est.mean) <= 4 * est.stderr
        assert 0 < est.ess <= rec.transitions + 1  # record includes the start state

    def test_constant_observable_returns_mean_with_nan_uncertainty(self, gauss1d):
        config = SamplerConfig(leg=LegSpec(0.3, 2), psi=1.0, seed=3)
        rec = run_chain(gauss1d, config, PhaseState([0.0], [0.0]),
                        Budget(transitions=50))
        constant = make_observable({"kind": "indicator", "index": 0,
                                    "lo": -1e9, "hi": 1e9})
        with pytest.warns(RuntimeWarning):
            est = estimate_average(rec, constant)
        assert est.mean == 1.0
        assert math.isnan(est.ess)
        assert math.isnan(est.stderr)

    def test_stderr_scales_with_ess(self):
        # stderr must use the autocorrelation-adjusted count, not raw length
        x = ar1_series(0.9, 50_000, seed=5)
        ess = ess_initial_monotone(x)
        se = x.std(ddof=1) / math.sqrt(ess)
        naive = x.std(ddof=1) / math.sqrt(x.size)
        assert se > 3 * naive
