"""The one real-number rule, ``phase._real``, at every site where a real enters."""

import math
import re

import numpy as np
import pytest

from xchmc import (Budget, LegSpec, MassMatrix, PhaseState, SamplerConfig, builtin_target,
                   check_volume_preservation, gradient_fd_error, interval_indicator, log_rho,
                   refresh_momentum, run_chain)
from xchmc.harness import parse_spec, sample_chain
from xchmc.phase import TargetModel, _real
from xchmc.sampler import couple_noise, palindromic_refresh_angle
from xchmc.verification import verify_reversibility

GAUSS2 = builtin_target("gaussian", 2)
LEG = LegSpec(0.1, 3)


def _refresh(psi):
    return refresh_momentum(GAUSS2, PhaseState([0.0, 0.0], [1.0, -1.0]), psi,
                            np.random.default_rng(0))


# Each real that enters the program: site -> (the name its error gives, a call that
# passes the value there, values outside its interval).
REAL_SITES = {
    "LegSpec.dt": ("dt", lambda v: LegSpec(v, 5), [0.0, -0.1]),
    "check_volume_preservation step": (
        "step", lambda v: check_volume_preservation(GAUSS2, LEG, PhaseState([0.8, 0.1],
                                                                            [-0.2, 0.3]),
                                                    step=v), [0.0, -1e-5]),
    "TargetModel.beta": ("beta", lambda v: builtin_target("gaussian", 2, beta=v), [0.0, -1.0]),
    "banana curvature": ("curvature", lambda v: builtin_target("banana", 2, curvature=v), []),
    "banana first_variance": ("first_variance",
                              lambda v: builtin_target("banana", 2, first_variance=v),
                              [0.0, -2.0]),
    "gradient_fd_error relative_step": (
        "relative_step", lambda v: gradient_fd_error(GAUSS2, [0.5, 2.0], v), [0.0, -1e-5]),
    "SamplerConfig.psi": ("psi", lambda v: SamplerConfig(LEG, v), [0.0, -0.5, 1.6]),
    "SamplerConfig.jitter_fraction": ("jitter_fraction",
                                      lambda v: SamplerConfig(LEG, 1.0, jitter_fraction=v),
                                      [1.0, -0.1]),
    "refresh_momentum psi": ("psi", _refresh, [0.0, 1.6]),
    "palindromic_refresh_angle psi": ("psi", palindromic_refresh_angle, [0.0, 1.6]),
    "couple_noise psi": ("psi", lambda v: couple_noise(v, [0.0, 0.0], [[1.0, 1.0]], []),
                         [0.0, 1.6]),
    "interval_indicator lo": ("lo", lambda v: interval_indicator(0, v, 1e300), []),
    "interval_indicator hi": ("hi", lambda v: interval_indicator(0, -1e300, v), []),
    "verification tolerance": ("tolerance",
                               lambda v: verify_reversibility(points_per_target=1, tolerance=v),
                               [-1e-10]),
}

# Values no real field takes: bools, non-reals, NaN, infinities and an integer beyond
# the float range.
BAD_REALS = [True, False, np.True_, "0.5", None, [0.5], math.nan, np.float64(math.nan),
                    math.inf, -math.inf, np.float32(math.inf), 10 ** 400]


def _bad_cases():
    for site, (name, call, out_of_range) in REAL_SITES.items():
        for bad in [*BAD_REALS, *out_of_range]:
            yield pytest.param(name, call, bad, id=f"{site}-{bad!r:.20}")


class TestRealSites:
    @pytest.mark.parametrize("name,call,bad", _bad_cases())
    def test_bad_value_raises_naming_the_field_and_the_value(self, name, call, bad):
        message = rf"^{name} must (be|lie in) .*, not {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)

    # The fields that keep the value, with an in-range value: numpy reals are stored
    # as a float equal to them.
    @pytest.mark.parametrize("make,field,value", [
        (lambda v: LegSpec(v, 5), "dt", 0.1),
        (lambda v: builtin_target("gaussian", 2, beta=v), "beta", 0.7),
        (lambda v: SamplerConfig(LEG, v), "psi", 0.4),
        (lambda v: SamplerConfig(LEG, 1.0, jitter_fraction=v), "jitter_fraction", 0.1),
    ], ids=["dt", "beta", "psi", "jitter_fraction"])
    @pytest.mark.parametrize("kind", [np.float32, np.float64])
    def test_numpy_real_is_stored_as_float(self, make, field, value, kind):
        stored = getattr(make(kind(value)), field)
        assert type(stored) is float and stored == float(kind(value))

    @pytest.mark.parametrize("make,field", [
        (lambda v: LegSpec(v, 5), "dt"),
        (lambda v: builtin_target("gaussian", 2, beta=v), "beta"),
        (lambda v: SamplerConfig(LEG, v), "psi"),
    ], ids=["dt", "beta", "psi"])
    @pytest.mark.parametrize("one", [1, np.int64(1)], ids=["int", "numpy_int"])
    def test_integer_is_stored_as_float(self, make, field, one):
        stored = getattr(make(one), field)
        assert type(stored) is float and stored == 1.0

    def test_float32_beta_gives_log_rho_a_float(self):
        beta = np.float32(0.3)
        z = PhaseState([0.4, -1.2], [0.3, 0.9])
        value = log_rho(builtin_target("gaussian", 2, beta=beta), z)
        assert type(value) is float
        assert value == log_rho(builtin_target("gaussian", 2, beta=float(beta)), z)

    def test_float32_relative_step_is_the_float_step(self):
        step = np.float32(1e-5)
        x = [0.3, 7.1]  # float32 steps of this size round differently
        gap = gradient_fd_error(GAUSS2, x, step)
        assert type(gap) is float
        assert gap == gradient_fd_error(GAUSS2, x, float(step))

    def test_jittered_dt_of_a_float32_step_is_a_float(self):
        config = SamplerConfig(LegSpec(np.float32(0.1), 5), 1.0, jitter_fraction=0.1)
        record = run_chain(GAUSS2, config, PhaseState([0.0, 0.0], [1.0, 0.0]),
                           Budget(transitions=3), rng=np.random.default_rng(2))
        reference = run_chain(GAUSS2, SamplerConfig(LegSpec(float(np.float32(0.1)), 5), 1.0,
                                                    jitter_fraction=0.1),
                              PhaseState([0.0, 0.0], [1.0, 0.0]), Budget(transitions=3),
                              rng=np.random.default_rng(2))
        assert np.array_equal(record.dt_used, reference.dt_used)
        assert np.array_equal(record.positions, reference.positions)

    def test_indicator_bounds_of_any_finite_size_select_the_same_points(self):
        wide = interval_indicator(0, -1.7976931348623157e308, 1.7976931348623157e308)
        positions = np.array([[-1e308], [0.0], [5e-324], [1e308]])
        assert wide.column(positions).tolist() == [1.0] * 4


class TestRealRule:
    @pytest.mark.parametrize("args,rule", [
        ((0.0,), "be positive and finite"),
        ((), "be a finite real number"),
        ((0.0, 1.0, True, False), "lie in (0, 1]"),
        ((0.0, 1.0, False, True), "lie in [0, 1)"),
        ((0.0, math.pi / 2, True, False), "lie in (0, 1.5707963267948966]"),
        ((0.0, math.inf, False), "lie in [0, inf)"),
    ])
    def test_message_states_the_interval(self, args, rule):
        with pytest.raises(ValueError, match=f"^{re.escape(f'x must {rule}, not nan')}$"):
            _real("x", math.nan, *args)

    @pytest.mark.parametrize("lo,hi,lo_open,hi_open,inside,outside", [
        (0.0, 1.0, True, False, [1.0, 5e-324], [0.0]),
        (0.0, 1.0, False, True, [0.0, 0.5], [1.0]),
    ])
    def test_ends_are_included_as_stated(self, lo, hi, lo_open, hi_open, inside, outside):
        for v in inside:
            assert _real("x", v, lo, hi, lo_open, hi_open) == v
        for v in outside:
            with pytest.raises(ValueError):
                _real("x", v, lo, hi, lo_open, hi_open)


class TestNonFiniteGradientCheck:
    @pytest.mark.parametrize("bad", ["gradient", "potential"])
    def test_nan_is_the_worst_gap(self, bad):
        def potential(x):
            return math.nan if bad == "potential" else 0.5 * float(x.dot(x))

        def gradient(x):
            return np.full_like(x, math.nan) if bad == "gradient" else x

        model = TargetModel(dim=2, potential=potential, gradient=gradient)
        gap = gradient_fd_error(model, [0.3, -0.4])
        assert math.isnan(gap)
        assert not gap <= 1e-5


class TestVectorParameters:
    @pytest.mark.parametrize("make", [
        lambda: builtin_target("gaussian", 2, variances=["1", "4"]),
        lambda: builtin_target("gaussian", 2, variances=[True, True]),
        lambda: builtin_target("double_well", 2, mass=["1", "2"]),
        lambda: MassMatrix.dense([["1", "0"], ["0", "1"]]),
        lambda: PhaseState(["0.5"], [1.0]),
        lambda: PhaseState([0.5], ["1"]),
    ], ids=["variances", "bool_variances", "diagonal_mass", "dense_mass", "positions",
            "momenta"])
    def test_non_numeric_entries_are_rejected(self, make):
        with pytest.raises(ValueError, match="must be (positive )?finite real numbers"):
            make()


SPEC = {"target": "gaussian", "dims": 2, "sweep": "dt", "values": [0.3],
        "fixed": {"L": 4, "K": 2, "sin_psi": 0.5}, "replicas": 1,
        "budget_force_evals": 400, "burn_in": 5, "seed": 3}


def _with_target(target: dict) -> dict:
    """SPEC with an object target, which holds ``dims`` among its params."""
    raw = {**SPEC, "target": target}
    del raw["dims"]
    return raw


class TestSpecReals:
    def test_numpy_dt_sweep_value_and_jitter_are_accepted_as_floats(self):
        spec = parse_spec({**SPEC, "values": [np.float32(0.3)],
                           "fixed": {**SPEC["fixed"], "jitter": np.float32(0.1)}})
        assert spec.sweep_values == (float(np.float32(0.3)),)
        assert type(spec.sweep_values[0]) is float
        assert type(spec.jitter) is float and spec.jitter == float(np.float32(0.1))

    @pytest.mark.parametrize("where", ["beta", "dt"])
    def test_float32_value_runs_the_chain_of_its_float(self, where):
        value = np.float32(0.3)

        def spec_with(v):
            if where == "dt":
                return parse_spec({**SPEC, "values": [v]})
            return parse_spec(_with_target({"name": "gaussian",
                                            "params": {"dims": 2, "beta": v}}))

        spec = spec_with(value)
        model = builtin_target(spec.target, spec.dims, **spec.target_params)
        assert type(log_rho(model, PhaseState([0.1, 0.2], [0.3, 0.4]))) is float
        record = sample_chain(spec, 0, 0)
        reference = sample_chain(spec_with(float(value)), 0, 0)
        assert np.array_equal(record.positions, reference.positions)
        assert np.array_equal(record.momenta, reference.momenta)
        assert np.array_equal(record.slots, reference.slots)
        assert np.array_equal(record.dt_used, reference.dt_used)
