import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xchmc import (Budget, LegSpec, MassMatrix, PhaseState, SamplerConfig, TargetModel,
                   builtin_target, check_main_identity, coordinate, flip, interval_indicator,
                   lahmc_probabilities, log_rho, sigma_sequence)
from xchmc.phase import _all_finite, gradient_fd_error

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=6)


@st.composite
def vectors_with_non_finite_entries(draw):
    """Vectors of length 1..64 over the whole float range (squares may overflow),
    with up to three entries replaced by NaN or +-inf at any position."""
    d = draw(st.integers(min_value=1, max_value=64))
    a = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=d, max_size=d)))
    for i, bad in draw(st.lists(st.tuples(st.integers(0, d - 1),
                                          st.sampled_from([math.nan, math.inf, -math.inf])),
                                max_size=3)):
        a[i] = bad
    return a


class TestAllFinite:
    @given(vectors_with_non_finite_entries())
    @example(np.array([1e200, -1e200, 0.5]))
    @example(np.array([1e200, math.nan]))
    @example(np.array([-math.inf]))
    def test_matches_entrywise_test(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # An overflowing sum of squares warns unless overflow is ignored,
            # as it is in the leg loop.
            with np.errstate(over="ignore"):
                assert _all_finite(a) == bool(np.isfinite(a).all())

    def test_non_finite_entries_emit_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (math.nan, math.inf, -math.inf):
                assert not _all_finite(np.array([1.0, bad, 2.0]))
            assert _all_finite(np.array([1.0, -2.0, 3.0]))


class TestPhaseState:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^momenta must have length 2, not 1$"):
            PhaseState([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhaseState([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PhaseState([np.inf], [0.0])
        with pytest.raises(ValueError, match="finite"):
            PhaseState([0.0], [np.nan])

    def test_matrix_input_rejected(self):
        with pytest.raises(ValueError):
            PhaseState(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_scalarlike_promoted_to_vector(self):
        z = PhaseState(1.0, 2.0)
        assert z.dim == 1


class TestFlip:
    def test_zero_momentum_fixed_point(self):
        z = PhaseState([1.0, -2.0], [0.0, 0.0])
        flipped = flip(z)
        assert np.array_equal(flipped.x, z.x)
        assert np.all(flipped.y == 0.0)

    def test_example(self):
        flipped = flip(PhaseState([1.0, 2.0], [3.0, -4.0]))
        assert np.array_equal(flipped.y, [-3.0, 4.0])

    @given(vectors)
    def test_involution_bit_for_bit(self, xs):
        z = PhaseState(xs, xs[::-1])
        back = flip(flip(z))
        assert np.array_equal(back.x, z.x)
        assert np.array_equal(back.y, z.y)

    @given(vectors)
    def test_preserves_log_rho(self, xs):
        model = builtin_target("gaussian", len(xs))
        z = PhaseState(xs, xs[::-1])
        assert log_rho(model, flip(z)) == log_rho(model, z)


class TestLogRho:
    def test_origin_is_zero(self, gauss1d):
        assert log_rho(gauss1d, PhaseState([0.0], [0.0])) == 0.0

    def test_unit_gaussian_example(self, gauss1d):
        assert log_rho(gauss1d, PhaseState([1.0], [2.0])) == pytest.approx(-2.5, abs=1e-15)

    def test_beta_scales_linearly(self):
        hot = builtin_target("gaussian", 1, beta=0.5)
        cold = builtin_target("gaussian", 1, beta=2.0)
        z = PhaseState([1.2], [-0.3])
        assert log_rho(cold, z) == pytest.approx(4.0 * log_rho(hot, z), rel=1e-14)

    def test_forbidden_region_is_minus_inf(self):
        model = TargetModel(
            dim=1,
            potential=lambda x: math.inf if x[0] > 0 else 0.0,
            gradient=lambda x: np.zeros(1),
        )
        assert log_rho(model, PhaseState([1.0], [0.0])) == -math.inf
        assert log_rho(model, PhaseState([-1.0], [0.0])) == 0.0

    def test_dimension_mismatch(self, gauss2d):
        with pytest.raises(ValueError, match="dimension"):
            log_rho(gauss2d, PhaseState([1.0], [1.0]))

    def test_matches_exact_gaussian_density_up_to_constant(self):
        # log_rho should differ from the exact normal log-pdf by a constant.
        var = np.array([1.0, 4.0, 0.25])
        model = builtin_target("gaussian", 3, variances=var)
        rng = np.random.default_rng(7)

        def exact(z):
            lp_x = -0.5 * np.sum(z.x**2 / var) - 0.5 * np.sum(np.log(2 * np.pi * var))
            lp_y = -0.5 * np.sum(z.y**2) - 1.5 * np.log(2 * np.pi)
            return lp_x + lp_y

        states = [PhaseState(rng.standard_normal(3), rng.standard_normal(3))
                  for _ in range(20)]
        offsets = [log_rho(model, z) - exact(z) for z in states]
        assert max(offsets) - min(offsets) <= 1e-12


class TestMassMatrix:
    def test_identity_roundtrip(self, rng):
        m = MassMatrix.identity()
        v = rng.standard_normal(4)
        assert np.array_equal(m._mul(v), v)
        assert np.array_equal(m.apply_inverse(v), v)
        assert np.array_equal(m.sqrt_apply(v), v)

    def test_diagonal_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            MassMatrix.diagonal([1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            MassMatrix.diagonal([1.0, -2.0])

    def test_dense_requires_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            MassMatrix.dense([[1.0, 0.5], [0.0, 1.0]])

    def test_dense_requires_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            MassMatrix.dense([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("mass", [
        MassMatrix.diagonal([0.5, 2.0, 7.0]),
        MassMatrix.dense([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.7]]),
    ])
    def test_inverse_roundtrip(self, mass, rng):
        for _ in range(10):
            v = rng.standard_normal(3)
            back = mass.apply_inverse(mass._mul(v))
            assert np.linalg.norm(back - v) <= 1e-12 * max(1.0, np.linalg.norm(v))

    def test_sqrt_factor_reproduces_matrix(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        mass = MassMatrix.dense(m)
        basis = np.eye(2)
        factor = np.column_stack([mass.sqrt_apply(e) for e in basis])
        assert np.allclose(factor @ factor.T, m, atol=1e-14)

    def test_kinetic_energy(self):
        mass = MassMatrix.diagonal([2.0, 0.5])
        y = np.array([2.0, 1.0])
        assert mass.kinetic(y) == pytest.approx(0.5 * (4.0 / 2.0 + 1.0 / 0.5))

    def test_products_are_the_plain_formulas(self, rng):
        # Bit for bit: the sampler's chains depend on the exact rounding.
        d = np.array([0.5, 1.5, 2.5, 3.3])
        m = np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.1, 0.0],
                      [0.0, 0.1, 0.7, 0.2], [0.1, 0.0, 0.2, 1.9]])
        diagonal, dense = MassMatrix.diagonal(d), MassMatrix.dense(m)
        for _ in range(20):
            v = rng.standard_normal(4) * 10.0
            assert np.array_equal(diagonal._mul(v), d * v)
            assert np.array_equal(diagonal.apply_inverse(v), v / d)
            assert np.array_equal(diagonal.sqrt_apply(v), np.sqrt(d) * v)
            assert diagonal.kinetic(v) == 0.5 * float(v @ (v / d))
            assert np.array_equal(dense._mul(v), m @ v)
            assert np.array_equal(dense.apply_inverse(v), np.linalg.inv(m) @ v)
            assert np.array_equal(dense.sqrt_apply(v), np.linalg.cholesky(m) @ v)
            assert dense.kinetic(v) == 0.5 * float(v @ (np.linalg.inv(m) @ v))

    def test_at_most_one_form(self):
        with pytest.raises(ValueError, match="^give at most one of diag and dense$"):
            MassMatrix(diag=[1.0], dense=[[1.0]])

    def test_target_dimension_checked(self):
        with pytest.raises(ValueError,
                           match="^mass dimension 3 does not match target dimension 2$"):
            TargetModel(2, lambda x: 0.0, lambda x: x, mass=MassMatrix.diagonal([1.0] * 3))

    def test_dimension_checked(self):
        mass = MassMatrix.diagonal([1.0, 2.0])
        for product in (mass.apply_inverse, mass.sqrt_apply, mass.kinetic):
            with pytest.raises(ValueError, match="must have length 2, not 3$"):
                product(np.zeros(3))


class TestBuiltinTargets:
    def test_gaussian_values(self, gauss1d):
        assert gauss1d.potential(np.array([3.0])) == pytest.approx(4.5)
        assert gauss1d.gradient(np.array([3.0]))[0] == pytest.approx(3.0)

    def test_gaussian_variances_vector(self):
        model = builtin_target("gaussian", 2, variances=[1.0, 4.0])
        assert model.potential(np.array([0.0, 2.0])) == pytest.approx(0.5)

    @pytest.mark.parametrize("one", [4.0, [4.0], np.array([4.0])])
    def test_one_variance_serves_every_coordinate(self, one):
        model = builtin_target("gaussian", 3, variances=one)
        assert model.potential(np.array([2.0, 2.0, 2.0])) == 1.5

    def test_double_well_values(self, dwell1d):
        assert dwell1d.potential(np.array([1.0])) == 0.0
        assert dwell1d.potential(np.array([0.0])) == 1.0
        assert dwell1d.gradient(np.array([1.0]))[0] == 0.0

    def test_banana_needs_two_dims(self):
        with pytest.raises(ValueError, match="2 dimensions"):
            builtin_target("banana", 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown target"):
            builtin_target("volcano", 2)

    def test_mass_accepts_diagonal_sequence(self):
        model = builtin_target("double_well", 2, mass=[1.0, 9.0])
        assert model.mass.kind == "diagonal"
        assert model.mass.kinetic(np.array([0.0, 3.0])) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            builtin_target("double_well", 2, mass=[1.0, -9.0])

    def test_bad_variances(self):
        with pytest.raises(ValueError, match="positive"):
            builtin_target("gaussian", 2, variances=[1.0, -1.0])

    def test_unexpected_params_rejected(self):
        with pytest.raises(ValueError, match="unexpected"):
            builtin_target("double_well", 2, depth=3.0)

    @pytest.mark.parametrize("name,dims,params", [
        ("gaussian", 3, {"variances": [0.5, 1.0, 2.5]}),
        ("double_well", 2, {}),
        ("banana", 3, {"curvature": 0.7, "first_variance": 2.0}),
    ])
    def test_gradient_matches_finite_differences(self, name, dims, params, rng):
        model = builtin_target(name, dims, **params)
        for _ in range(100):
            x = rng.standard_normal(dims) * 1.5
            assert gradient_fd_error(model, x) <= 1e-5

    def test_fd_error_needs_a_position_of_the_target_dimension(self):
        # A shorter x used to broadcast against the variances and give a gap.
        model = builtin_target("gaussian", 2, variances=[1, 4])
        with pytest.raises(ValueError, match="^x must have length 2, not 1$"):
            gradient_fd_error(model, [0.5])

    def test_hamiltonian_includes_mass(self):
        mass = MassMatrix.diagonal([4.0])
        model = builtin_target("gaussian", 1, mass=mass)
        z = PhaseState([0.0], [2.0])
        assert -log_rho(model, z) == pytest.approx(0.5)  # beta = 1


# Each integer that enters the API, as (owner.name, a call that passes the given
# value there). A class keeps the value as its field of that name.
_ORBIT = (builtin_target("gaussian", 2), LegSpec(0.1, 2), PhaseState([0.5, 0.1], [0.2, -0.3]))
INTEGER_FIELDS = {
    "Budget.transitions": lambda v: Budget(transitions=v),
    "Budget.force_evals": lambda v: Budget(force_evals=v),
    "Budget.burn_in": lambda v: Budget(transitions=1, burn_in=v),
    "TargetModel.dim": lambda v: TargetModel(dim=v, potential=lambda x: 0.0,
                                             gradient=np.zeros_like),
    "LegSpec.steps": lambda v: LegSpec(0.1, v),
    "SamplerConfig.extra_chances": lambda v: SamplerConfig(leg=LegSpec(0.1, 2), psi=1.0,
                                                           extra_chances=v),
    "SamplerConfig.seed": lambda v: SamplerConfig(leg=LegSpec(0.1, 2), psi=1.0, seed=v),
    "builtin_target.dims": lambda v: builtin_target("gaussian", v),
    "coordinate.index": coordinate,
    "interval_indicator.index": lambda v: interval_indicator(v, 0.0, 1.0),
    "check_main_identity.k": lambda v: check_main_identity(*_ORBIT, v),
    "sigma_sequence.extra_chances": lambda v: sigma_sequence(*_ORBIT, v),
    "lahmc_probabilities.extra_chances": lambda v: lahmc_probabilities(*_ORBIT, v),
}
KEPT_INTEGERS = sorted(site for site in INTEGER_FIELDS if site[0].isupper())


class TestIntegerFields:
    @pytest.mark.parametrize("bad", [True, False, 2.5, math.inf, -math.inf, math.nan,
                                     np.float64(math.nan), np.True_, "3", None])
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_bad_value_raises_naming_the_field(self, field, bad):
        if bad is None and field in ("Budget.transitions", "Budget.force_evals"):
            return  # None leaves the budget unset: the exactly-one rule handles it
        with pytest.raises(ValueError, match=f"^{field.split('.')[1]} must be "):
            INTEGER_FIELDS[field](bad)

    @pytest.mark.parametrize("good", [3, np.int64(3), np.int32(3), np.uint8(3), 3.0,
                                      np.float64(3.0)])
    @pytest.mark.parametrize("field", KEPT_INTEGERS)
    def test_integral_value_is_stored_as_int(self, field, good):
        value = getattr(INTEGER_FIELDS[field](good), field.split(".")[1])
        assert type(value) is int and value == 3

    @pytest.mark.parametrize("field,low", [("Budget.transitions", -1), ("Budget.burn_in", -1),
                                           ("TargetModel.dim", 0), ("LegSpec.steps", 0),
                                           ("SamplerConfig.extra_chances", -1),
                                           ("SamplerConfig.seed", -1),
                                           ("builtin_target.dims", 0), ("coordinate.index", -1),
                                           ("interval_indicator.index", -1),
                                           ("check_main_identity.k", 0),
                                           ("sigma_sequence.extra_chances", -1),
                                           ("lahmc_probabilities.extra_chances", -1)])
    def test_value_below_the_minimum_raises(self, field, low):
        with pytest.raises(ValueError, match=f"^{field.split('.')[1]} must be "):
            INTEGER_FIELDS[field](low)
