"""The gradient a state carries: the chain evaluates each position's gradient once.

A leg end carries the gradient of its position, tagged with the model's
``gradient`` function, and the refresh and the flip pass it on, since neither
moves the position.  The next leg starts from it.  A start the kernel built
keeps the gradient its first leg evaluates, so a flip back to it carries one
too.  A chain must be the same,
bit for bit, as the chain whose legs never see a carried gradient; only its
force-evaluation counts fall, to ``steps`` per integrated leg.
"""

import dataclasses
import math

import numpy as np
import pytest

import xchmc.sampler as sampler
import xchmc.verification as verification
from test_kernel_reference import CASES, case_model
from xchmc import (Budget, DivergedLeg, LegSpec, MassMatrix, PhaseState, SamplerConfig,
                   ScriptedRng, TargetModel, builtin_target, chain_rng, extra_chance_step,
                   flip, refresh_momentum, run_chain, verlet_leg)
from xchmc.phase import _state


def uncarried(saved):
    """``verlet_leg`` from a copy of its start that carries the potential but no
    gradient; ``saved[0]`` counts the starts that carried this model's gradient."""
    def leg(model, spec, z):
        saved[0] += z._gradient is not None and z._gradient[0] is model.gradient
        return verlet_leg(model, spec, _state(z.x, z.y, z._potential, None))
    return leg


class TestSameChainWithoutTheCarry:
    @pytest.mark.parametrize("extra", [0, 3])
    @pytest.mark.parametrize("target,mass", CASES)
    def test_run_chain(self, monkeypatch, target, mass, extra):
        model, dt = case_model(target, mass)
        config = SamplerConfig(leg=LegSpec(dt, 4), psi=math.asin(0.5),
                               extra_chances=extra, jitter_fraction=0.1, seed=23)
        z0 = PhaseState(np.full(model.dim, 0.3), np.zeros(model.dim))
        carried = run_chain(model, config, z0, Budget(transitions=300))
        saved = [0]
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "verlet_leg", uncarried(saved))
            plain = run_chain(model, config, z0, Budget(transitions=300))
        for name in ("positions", "momenta", "slots", "candidates", "dt_used"):
            assert np.array_equal(getattr(carried, name), getattr(plain, name)), name
        assert set(carried.slots) - {1}, "the chain should reject some first legs"
        # Each leg from a carried gradient makes one evaluation fewer.
        assert (carried.force_evals <= plain.force_evals).all()
        assert plain.total_force_evals - carried.total_force_evals == saved[0] > 0


class TestForceEvaluationCounts:
    @pytest.mark.parametrize("chain", ["run_chain", "_palindromic_positions"])
    @pytest.mark.parametrize("name,dims,dt,params", [
        ("gaussian", 10, 0.4, {"variances": np.linspace(0.5, 6.0, 10)}),
        ("double_well", 2, 0.5, {}),  # about 30 % of the legs diverge
    ])
    def test_record_counts_every_gradient_call(self, counting, monkeypatch, chain, name,
                                               dims, dt, params):
        model, calls = counting(builtin_target(name, dims, **params))
        legs = {"integrated": 0, "diverged": 0}

        def counted_leg(model, spec, z):
            try:
                out = verlet_leg(model, spec, z)
            except DivergedLeg:
                legs["diverged"] += 1
                raise
            legs["integrated"] += 1
            return out

        steps = []

        def counted_step(*args):
            steps.append(extra_chance_step(*args))
            return steps[-1]

        monkeypatch.setattr(sampler, "verlet_leg", counted_leg)
        monkeypatch.setattr(sampler, "extra_chance_step", counted_step)
        config = SamplerConfig(leg=LegSpec(dt, 5), psi=math.asin(0.4), extra_chances=3,
                               jitter_fraction=0.05)
        z0 = PhaseState(np.zeros(dims), np.full(dims, 0.5))
        if chain == "run_chain":
            rec = run_chain(model, config, z0, Budget(transitions=300), rng=chain_rng(5, 0))
            assert rec.total_force_evals == calls["gradient"]
        else:  # the coupling battery's loop: half refresh, step, half refresh
            verification._palindromic_positions(model, config, z0, 300, chain_rng(5, 0))
        assert len(steps) == 300
        assert sum(out.force_evals for out in steps) == calls["gradient"]
        assert (legs["diverged"] > 0) == (name == "double_well")
        if not legs["diverged"]:
            assert steps[0].slot <= 4  # the first transition accepts: only z0 pays the +1
            assert calls["gradient"] == 5 * legs["integrated"] + 1

    def test_leading_flips_pay_for_the_start_once(self, counting):
        # The chain flips back to its start twice before it first accepts; the
        # start's gradient is evaluated by the first leg only.
        model, calls = counting(builtin_target("double_well", 2))
        config = SamplerConfig(leg=LegSpec(0.3, 5), psi=math.asin(0.4), extra_chances=1)
        rec = run_chain(model, config, PhaseState([1.9, -1.9], [2.0, 2.0]),
                        Budget(transitions=50), rng=chain_rng(0, 0))
        assert list(rec.slots[:3]) == [3, 3, 1]
        # No leg diverges here, so every candidate is an integrated leg.
        assert calls["gradient"] == rec.total_force_evals == 5 * int(rec.candidates.sum()) + 1

    def test_burn_in_pays_for_the_first_leg(self):
        model = builtin_target("gaussian", 3)
        config = SamplerConfig(leg=LegSpec(0.4, 5), psi=math.asin(0.4), extra_chances=3,
                               jitter_fraction=0.05)
        z0 = PhaseState(np.zeros(3), np.full(3, 0.5))
        rec = run_chain(model, config, z0, Budget(transitions=200, burn_in=10),
                        rng=chain_rng(6, 0))
        assert rec.total_force_evals == 5 * int(rec.candidates.sum())

    def test_force_budget_runs_longer_chains_on_the_same_path(self, monkeypatch, gauss2d):
        config = SamplerConfig(leg=LegSpec(0.5, 4), psi=math.asin(0.5), extra_chances=2,
                               jitter_fraction=0.1, seed=8)
        z0 = PhaseState([0.3, -0.2], [0.0, 0.0])
        carried = run_chain(gauss2d, config, z0, Budget(force_evals=2000))
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "verlet_leg", uncarried([0]))
            plain = run_chain(gauss2d, config, z0, Budget(force_evals=2000))
        assert carried.transitions > plain.transitions
        n = plain.transitions
        assert np.array_equal(carried.positions[:n + 1], plain.positions)
        assert np.array_equal(carried.slots[:n], plain.slots)


class TestWhichGradientIsUsed:
    def test_leg_end_carries_its_gradient_and_the_next_leg_uses_it(self, counting, gauss2d):
        model, calls = counting(gauss2d)
        spec = LegSpec(0.3, 4)
        end, n = verlet_leg(model, spec, PhaseState([0.4, -1.1], [0.9, 0.3]))
        assert (n, calls["gradient"]) == (5, 5)
        tag, g = end._gradient
        assert tag is model.gradient
        assert np.array_equal(g, gauss2d.gradient(end.x))
        for start in (end, flip(end), refresh_momentum(model, end, 0.4, chain_rng(1))):
            calls["gradient"] = 0
            after, n = verlet_leg(model, spec, start)
            assert n == calls["gradient"] == 4
            again, _ = verlet_leg(model, spec, PhaseState(start.x, start.y))
            assert np.array_equal(after.x, again.x) and np.array_equal(after.y, again.y)

    def test_gradient_of_another_model_is_evaluated_again(self, counting, gauss2d):
        spec = LegSpec(0.3, 4)
        end, _ = verlet_leg(gauss2d, spec, PhaseState([0.4, -1.1], [0.9, 0.3]))
        steeper = builtin_target("gaussian", 2, variances=[0.5, 2.0])
        other, calls = counting(dataclasses.replace(gauss2d, gradient=steeper.gradient))
        after, n = verlet_leg(other, spec, end)
        assert n == calls["gradient"] == 5
        plain, _ = verlet_leg(other, spec, PhaseState(end.x, end.y))
        assert np.array_equal(after.x, plain.x) and np.array_equal(after.y, plain.y)
        config = SamplerConfig(leg=spec, psi=math.pi / 2, extra_chances=2)
        a = extra_chance_step(other, config, end, chain_rng(9))
        b = extra_chance_step(other, config, PhaseState(end.x, end.y), chain_rng(9))
        assert (a.slot, a.force_evals, a.dt) == (b.slot, b.force_evals, b.dt)
        assert a.force_evals == 4 * a.candidates_computed + 1
        assert np.array_equal(a.next_state.x, b.next_state.x)
        assert np.array_equal(a.next_state.y, b.next_state.y)

    def test_callers_state_carries_nothing(self, counting, gauss2d):
        model, calls = counting(gauss2d)
        z = PhaseState([0.4, -1.1], [0.9, 0.3])
        assert z._gradient is None
        _, n = verlet_leg(model, LegSpec(0.3, 4), z)
        assert n == calls["gradient"] == 5
        config = SamplerConfig(leg=LegSpec(0.3, 4), psi=math.pi / 2, extra_chances=2)
        extra_chance_step(model, config, z, ScriptedRng(uniforms=[0.9999]))
        assert z._gradient is None and z._potential is None


@pytest.mark.parametrize("mass", [MassMatrix.identity(), MassMatrix.dense(
    np.eye(3) + 0.3 * np.ones((3, 3)))])
def test_gradient_returning_its_argument(mass):
    # The carried gradient is then the position array of the state itself.
    def model(gradient):
        return TargetModel(dim=3, potential=lambda x: 0.5 * float(x @ x), gradient=gradient,
                           mass=mass)

    config = SamplerConfig(leg=LegSpec(0.6, 4), psi=math.asin(0.5), extra_chances=3,
                           jitter_fraction=0.1, seed=31)
    z0 = PhaseState([1.0, -0.5, 0.2], [0.0, 0.3, 0.0])
    same = run_chain(model(lambda x: x), config, z0, Budget(transitions=300))
    fresh = run_chain(model(lambda x: x.copy()), config, z0, Budget(transitions=300))
    for name in ("positions", "momenta", "slots", "candidates", "force_evals", "dt_used"):
        assert np.array_equal(getattr(same, name), getattr(fresh, name)), name
