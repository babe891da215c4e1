"""The real-number rules: ``phase._real`` at every site where a real enters, and
``phase._real_array`` at every site where a vector of reals enters, its length
included."""

import math
import re

import numpy as np
import pytest

from xchmc import (Budget, LegSpec, MassMatrix, PhaseState, SamplerConfig, ScriptedRng,
                   builtin_target, ess_initial_monotone, extra_chance_step, interval_indicator,
                   log_rho, refresh_momentum, run_chain, series_average, slot_distribution)
from xchmc.harness import SpecError, parse_spec, sample_chain
from xchmc.integrator import verlet_leg
from xchmc.phase import TargetModel, _real, gradient_fd_error
from xchmc.sampler import lahmc_from_log_ratios
from xchmc.verification import couple_noise, palindromic_refresh_angle

GAUSS2 = builtin_target("gaussian", 2)
LEG = LegSpec(0.1, 3)


def _refresh(psi):
    return refresh_momentum(GAUSS2, PhaseState([0.0, 0.0], [1.0, -1.0]), psi,
                            np.random.default_rng(0))


# Each real that enters the program: site -> (the name its error gives, a call that
# passes the value there, values outside its interval).
REAL_SITES = {
    "LegSpec.dt": ("dt", lambda v: LegSpec(v, 5), [0.0, -0.1]),
    "TargetModel.beta": ("beta", lambda v: builtin_target("gaussian", 2, beta=v), [0.0, -1.0]),
    "banana curvature": ("curvature", lambda v: builtin_target("banana", 2, curvature=v), []),
    "banana first_variance": ("first_variance",
                              lambda v: builtin_target("banana", 2, first_variance=v),
                              [0.0, -2.0]),
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

    def test_float32_position_gives_the_gap_of_its_float(self):
        x = np.array([0.3, 7.1], dtype=np.float32)  # steps of 1e-5 round differently in float32
        gap = gradient_fd_error(GAUSS2, x)
        assert type(gap) is float
        assert gap == gradient_fd_error(GAUSS2, x.astype(float))

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


def _gradient_model(value):
    """A two-dimensional target whose gradient returns ``value`` wherever it is called."""
    return TargetModel(dim=2, potential=GAUSS2.potential, gradient=lambda x: value)


# Each vector that enters the program: site -> (the name its error gives, a call that
# passes the vector there, the number of dimensions it needs, the kinds of bad vector
# tried there).  A site that takes an empty vector is not tried with one, the
# string and all-bool vectors of the five parameter sites are the cases of
# test_non_numeric_entries_are_rejected, and the sites with a fixed length need 2
# entries (a row of 2 for a matrix).
VECTOR_SITES = {
    "PhaseState positions": ("positions", lambda v: PhaseState(v, [1.0, 1.0]), 1,
                             "mixed_bool empty ndim overflow"),
    "PhaseState momenta": ("momenta", lambda v: PhaseState([1.0, 1.0], v), 1,
                           "mixed_bool empty ndim length overflow"),
    "gaussian variances": ("gaussian variances",
                           lambda v: builtin_target("gaussian", 2, variances=v), 1,
                           "mixed_bool empty ndim length overflow"),
    "diagonal mass": ("diagonal mass entries", lambda v: builtin_target("double_well", 2, mass=v),
                      1, "mixed_bool empty ndim overflow"),
    "dense mass": ("dense mass matrix entries", MassMatrix.dense, 2,
                   "mixed_bool empty ndim length overflow"),
    "gradient_fd_error x": ("x", lambda v: gradient_fd_error(GAUSS2, v), 1,
                            "strings mixed_bool all_bool empty ndim nan length overflow"),
    "gradient_fd_error gradient": (
        "gradient values", lambda v: gradient_fd_error(_gradient_model(v), [0.5, 2.0]), 1,
        "strings mixed_bool all_bool empty ndim length overflow"),
    "verlet_leg gradient": (
        "gradient values",
        lambda v: verlet_leg(_gradient_model(v), LEG, PhaseState([0.5, 2.0], [1.0, 0.0])), 1,
        "strings mixed_bool all_bool empty ndim overflow"),
    "MassMatrix.apply_inverse": ("v", MassMatrix.identity().apply_inverse, 1,
                                 "strings mixed_bool all_bool empty ndim overflow"),
    "MassMatrix.sqrt_apply": ("v", MassMatrix.diagonal([1.0, 2.0]).sqrt_apply, 1,
                              "strings mixed_bool all_bool empty ndim length overflow"),
    "MassMatrix.kinetic": ("y", MassMatrix.identity().kinetic, 1,
                           "strings mixed_bool all_bool empty ndim overflow"),
    "MassMatrix.kinetic dense": ("y", MassMatrix.dense([[2.0, 0.5], [0.5, 1.0]]).kinetic, 1,
                                 "length"),
    "slot_distribution": ("log_ratios", slot_distribution, 1,
                          "strings mixed_bool all_bool empty ndim overflow"),
    "lahmc_from_log_ratios": ("log_ratios", lahmc_from_log_ratios, 1,
                              "strings mixed_bool all_bool empty ndim overflow"),
    "couple_noise initial_momentum": (
        "initial_momentum", lambda v: couple_noise(0.5, v, [[0.0, 1.0]], []), 1,
        "strings mixed_bool all_bool empty ndim nan overflow"),
    "couple_noise pre_refresh_noise": (
        "pre_refresh_noise", lambda v: couple_noise(0.5, [1.0, 2.0], v, [[0.0, 1.0]]), 2,
        "strings mixed_bool all_bool empty ndim nan length overflow"),
    "couple_noise post_refresh_noise": (
        "post_refresh_noise",
        lambda v: couple_noise(0.5, [1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]], v), 2,
        "strings mixed_bool all_bool ndim nan length overflow"),
    "ess_initial_monotone": ("series", ess_initial_monotone, 1,
                             "strings mixed_bool all_bool empty ndim nan overflow"),
    "series_average": ("values", series_average, 1,
                       "strings mixed_bool all_bool empty ndim nan overflow"),
    "ScriptedRng normals": ("normals", lambda v: ScriptedRng(normals=v), 1,
                            "strings mixed_bool all_bool ndim overflow"),
    "ScriptedRng uniforms": ("uniforms", lambda v: ScriptedRng(uniforms=v), 1,
                             "strings mixed_bool all_bool ndim overflow"),
    "ScriptedRng jitters": ("jitters", lambda v: ScriptedRng(jitters=v), 1,
                            "strings mixed_bool all_bool ndim overflow"),
}

# Bad vectors of one and of two dimensions, by kind.
BAD_VECTORS = {
    "strings": (["1", "2"], [["1", "0"], ["0", "1"]]),
    "mixed_bool": ([True, 2.0], [[True, 0.0], [0.0, 2.0]]),
    "all_bool": ([True, True], [[True, False], [False, True]]),
    "empty": ([], []),
    "ndim": ([[1.0, 2.0], [3.0, 4.0]], [[[1.0, 0.0], [0.0, 1.0]]]),
    "nan": ([math.nan, 1.0], [[math.nan, 1.0], [1.0, 0.0]]),
    "length": ([1.0, 2.0, 3.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    "overflow": ([10**400], [[10**400, 0.0], [0.0, 1.0]]),
}


def _bad_vector_cases():
    for site, (name, call, ndim, kinds) in VECTOR_SITES.items():
        for kind in kinds.split():
            yield pytest.param(name, call, BAD_VECTORS[kind][ndim - 1], id=f"{site}-{kind}")


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

    @pytest.mark.parametrize("name,call,bad", _bad_vector_cases())
    def test_bad_vector_raises_naming_the_argument(self, name, call, bad):
        rule = (r"(be (positive )?(finite )?real numbers|form a (non-empty )?(vector|matrix)"
                r"|have (rows of )?length 2, not 3)")
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must {rule}$"):
            call(bad)

    def test_sites_that_allow_non_finite_entries_accept_them(self):
        inf, nan = math.inf, math.nan
        assert slot_distribution([-inf, nan, 0.1]).p.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert lahmc_from_log_ratios([inf, 0.1])[0].tolist() == [1.0, 0.0]
        assert MassMatrix.identity().apply_inverse([inf, 1.0]).tolist() == [inf, 1.0]
        # A NaN jitter reaches the check of the step size it gives.
        config = SamplerConfig(LEG, 1.0, jitter_fraction=0.1)
        with pytest.raises(ValueError, match="^jittered step size nan is not positive"):
            extra_chance_step(GAUSS2, config, PhaseState([0.5, 0.5], [1.0, -1.0]),
                              ScriptedRng(uniforms=[0.5], jitters=[nan]))


SPEC = {"target": "gaussian", "dims": 2, "sweep": "dt", "values": [0.3],
        "fixed": {"L": 4, "K": 2, "sin_psi": 0.5}, "replicas": 1,
        "budget_force_evals": 400, "burn_in": 5, "seed": 3}


def _with_target(target: dict) -> dict:
    """SPEC with an object target, which holds ``dims`` among its params."""
    raw = {**SPEC, "target": target}
    del raw["dims"]
    return raw


def _fixed(axis: str, **fixed) -> dict:
    """SPEC swept along ``axis`` with only ``fixed`` fixed."""
    return {**SPEC, "sweep": axis, "values": [1], "fixed": fixed}


# Each real a spec sets, through harness._NUMBER_RULES: the field its SpecError
# names -> (the rule's name, a spec that holds the value there, values outside its
# interval, whether None is a bad value there: an absent dt or leg_span reads as None).
SPEC_REAL_SITES = {
    "fixed.dt": ("dt", lambda v: _fixed("K", dt=v, L=4), [0.0, -0.1], False),
    "fixed.leg_span": ("leg_span", lambda v: _fixed("K", dt=0.2, leg_span=v), [0.0, -1.0],
                       False),
    "fixed.sin_psi": ("sin_psi", lambda v: {**SPEC, "fixed": {"L": 4, "sin_psi": v}},
                      [0.0, -0.5, 1.5], True),
    "fixed.jitter": ("jitter", lambda v: {**SPEC, "fixed": {"L": 4, "jitter": v}},
                     [1.0, -0.1], True),
    "sweep.values[0]": ("dt", lambda v: {**SPEC, "values": [v]}, [0.0, -0.3], True),
}


def _bad_spec_cases():
    for field, (name, raw, out_of_range, none_is_bad) in SPEC_REAL_SITES.items():
        for bad in [*BAD_REALS, *out_of_range]:
            if bad is not None or none_is_bad:
                yield pytest.param(field, name, raw, bad, id=f"{field}-{bad!r:.20}")


class TestSpecReals:
    @pytest.mark.parametrize("field,name,raw,bad", _bad_spec_cases())
    def test_bad_value_is_a_spec_error_naming_the_field_and_the_value(self, field, name, raw,
                                                                      bad):
        message = rf"^{re.escape(field)}: {name} must (be|lie in) .*, not {re.escape(repr(bad))}$"
        with pytest.raises(SpecError, match=message) as err:
            parse_spec(raw(bad))
        assert err.value.field == field

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
