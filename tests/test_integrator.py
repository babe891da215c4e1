import numpy as np
import pytest

from test_kernel_reference import MASSES, ref_leg
from xchmc import (DivergedLeg, LegSpec, PhaseState, TargetModel, builtin_target,
                   check_reversibility, check_volume_preservation, flip, log_rho, verlet_leg)


def free_model(dim=1):
    return TargetModel(dim=dim, potential=lambda x: 0.0,
                       gradient=lambda x: np.zeros_like(x))


def counted(model):
    """Wrap a model so gradient calls are counted externally."""
    calls = {"n": 0}

    def gradient(x):
        calls["n"] += 1
        return model.gradient(x)

    wrapped = TargetModel(dim=model.dim, potential=model.potential, gradient=gradient,
                          beta=model.beta, mass=model.mass)
    return wrapped, calls


class TestLegSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LegSpec(dt=0.0, steps=1)
        with pytest.raises(ValueError):
            LegSpec(dt=0.1, steps=0)


class TestVerletLeg:
    def test_zero_force_zero_momentum_identity(self):
        model = free_model()
        z = PhaseState([1.5], [0.0])
        out, _ = verlet_leg(model, LegSpec(0.3, 4), z)
        assert np.array_equal(out.x, z.x)
        assert np.array_equal(out.y, z.y)

    def test_harmonic_single_step(self, gauss1d):
        # half kick, drift, half kick by hand for dt=0.1 from (1, 0)
        out, evals = verlet_leg(gauss1d, LegSpec(0.1, 1), PhaseState([1.0], [0.0]))
        assert out.x[0] == pytest.approx(0.995, abs=1e-12)
        assert out.y[0] == pytest.approx(-0.09975, abs=1e-12)
        assert evals == 2

    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_force_eval_count(self, gauss2d, steps, rng):
        wrapped, calls = counted(gauss2d)
        z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
        _, reported = verlet_leg(wrapped, LegSpec(0.1, steps), z)
        assert reported == steps + 1
        assert calls["n"] == reported

    def test_dimension_mismatch(self, gauss2d):
        with pytest.raises(ValueError, match="dimension"):
            verlet_leg(gauss2d, LegSpec(0.1, 1), PhaseState([1.0], [1.0]))

    def test_chained_legs_match_one_long_leg(self, gauss1d):
        spec = LegSpec(0.1, 4)
        z = PhaseState([0.7], [-0.4])
        a = z
        for _ in range(5):
            a, _ = verlet_leg(gauss1d, spec, a)
        b, _ = verlet_leg(gauss1d, LegSpec(0.1, 20), z)
        assert np.allclose(a.x, b.x, rtol=0, atol=1e-12)
        assert np.allclose(a.y, b.y, rtol=0, atol=1e-12)

    def test_energy_oscillation_stays_bounded(self, gauss1d):
        # 1e4 legs of the harmonic target at dt=0.1: |H - H0| <= 10*dt^2
        spec = LegSpec(0.1, 1)
        z = PhaseState([1.0], [0.5])
        h0 = -log_rho(gauss1d, z)  # beta = 1
        worst = 0.0
        for _ in range(10_000):
            z, _ = verlet_leg(gauss1d, spec, z)
            worst = max(worst, abs(-log_rho(gauss1d, z) - h0))
        assert worst <= 10 * 0.1**2

    @pytest.mark.parametrize("name,dims,dt", [
        ("gaussian", 2, 0.2),
        ("double_well", 2, 0.12),
        ("banana", 2, 0.15),
    ])
    def test_reversibility(self, name, dims, dt, rng):
        model = builtin_target(name, dims)
        spec = LegSpec(dt, 5)
        for _ in range(100):
            z = PhaseState(rng.standard_normal(dims), rng.standard_normal(dims))
            assert check_reversibility(model, spec, z) <= 1e-10

    def test_divergence_raises_with_step_index(self, dwell1d):
        wrapped, calls = counted(dwell1d)
        with pytest.raises(DivergedLeg) as info:
            verlet_leg(wrapped, LegSpec(2.0, 50), PhaseState([3.0], [0.0]))
        err = info.value
        assert 0 <= err.step_index <= 50
        assert err.force_evals == calls["n"]
        assert err.force_evals <= 51

    def test_divergence_of_the_end_state_alone(self):
        # Every gradient is finite, but the first half kick overflows the momentum.
        model = TargetModel(1, lambda x: float(x[0]), lambda x: np.array([1e308]))
        with pytest.raises(DivergedLeg) as info:
            verlet_leg(model, LegSpec(1.0, 1), PhaseState([0.0], [-1.7e308]))
        assert (info.value.step_index, info.value.force_evals) == (1, 2)

    @pytest.mark.parametrize("mass", sorted(MASSES))
    def test_gradient_returning_its_argument(self, mass):
        # With a gradient that hands back its argument, neither the input
        # state nor an earlier position may change under the kicks and drifts.
        model = TargetModel(dim=3, potential=lambda x: 0.5 * float(x @ x),
                            gradient=lambda x: x, mass=MASSES[mass](3))
        x0, y0 = np.array([0.3, -1.2, 0.8]), np.array([1.1, 0.4, -0.6])
        z = PhaseState(x0.copy(), y0.copy())
        x_in, y_in = z.x, z.y
        for steps in (1, 2, 7):
            spec = LegSpec(0.21, steps)
            out, evals = verlet_leg(model, spec, z)
            ref, ref_evals, _ = ref_leg(model, spec, PhaseState(x0, y0))
            assert evals == ref_evals == steps + 1
            assert np.array_equal(out.x, ref.x) and np.array_equal(out.y, ref.y)
            assert z.x is x_in and z.y is y_in
            assert np.array_equal(z.x, x0) and np.array_equal(z.y, y0)
            assert not np.shares_memory(out.y, z.y) and not np.shares_memory(out.y, z.x)

    def test_input_state_never_modified(self, banana2d, rng):
        for _ in range(20):
            z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
            x0, y0 = z.x.copy(), z.y.copy()
            verlet_leg(banana2d, LegSpec(0.1, 4), z)
            assert np.array_equal(z.x, x0) and np.array_equal(z.y, y0)

    def test_flip_conjugation_inverts_leg(self, banana2d, rng):
        spec = LegSpec(0.1, 6)
        z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
        forward, _ = verlet_leg(banana2d, spec, z)
        back, _ = verlet_leg(banana2d, spec, flip(forward))
        restored = flip(back)
        assert np.allclose(restored.x, z.x, atol=1e-12)
        assert np.allclose(restored.y, z.y, atol=1e-12)


class TestVolumePreservation:
    def test_free_flight(self):
        err = check_volume_preservation(free_model(), LegSpec(0.3, 3),
                                        PhaseState([0.4], [1.0]))
        assert err <= 1e-9

    def test_harmonic(self, gauss1d):
        err = check_volume_preservation(gauss1d, LegSpec(0.1, 3),
                                        PhaseState([0.8], [-0.2]))
        assert err <= 1e-6

    def test_double_well(self, dwell2d, rng):
        z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
        assert check_volume_preservation(dwell2d, LegSpec(0.05, 5), z) <= 1e-5
