import copy
import dataclasses
import importlib
import math
import pickle
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_kernel_reference import walled
import xchmc.sampler as sampler
import xchmc.verification as verification
from xchmc import (Budget, DivergedLeg, LegSpec, MassMatrix, PhaseState, SamplerConfig,
                   ScriptedRng, TargetModel, builtin_target, chain_rng, couple_noise,
                   ess_initial_monotone, extra_chance_step, flip, lahmc_from_log_ratios, lahmc_probabilities, log_rho,
                   palindromic_refresh_angle, refresh_momentum, run_chain, sigma_sequence,
                   slot_distribution, slot_stats, verlet_leg)
from xchmc.sampler import _acceptance_and_jitter_draws

log_ratio_vectors = st.lists(
    st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
    min_size=1, max_size=8)


@pytest.fixture
def step_slots(monkeypatch):
    """The slot of every ``extra_chance_step`` called through the ``sampler`` module."""
    slots = []

    def step(*args):
        out = extra_chance_step(*args)
        slots.append(out.slot)
        return out

    monkeypatch.setattr(sampler, "extra_chance_step", step)
    return slots


def free_model(dim=1):
    return TargetModel(dim=dim, potential=lambda x: 0.0,
                       gradient=lambda x: np.zeros_like(x))


class TestSamplerConfig:
    @pytest.mark.parametrize("field,value", [
        ("psi", 0.0), ("psi", 2.0), ("extra_chances", -1), ("extra_chances", 1.5),
        ("jitter_fraction", 1.0), ("jitter_fraction", -0.1),
    ])
    def test_rejects_out_of_range_fields(self, field, value):
        fields = {"leg": LegSpec(0.1, 3), "psi": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            SamplerConfig(**fields)


class TestRefreshMomentum:
    def test_position_untouched_bit_for_bit(self, gauss2d, rng):
        z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
        out = refresh_momentum(gauss2d, z, 0.3, np.random.default_rng(0))
        assert out.x is z.x or np.array_equal(out.x, z.x)

    def test_full_refresh_returns_noise_exactly(self, gauss2d):
        z = PhaseState([1.0, 2.0], [5.0, -7.0])
        zeta = [0.25, -1.5]
        out = refresh_momentum(gauss2d, z, math.pi / 2, ScriptedRng(normals=zeta))
        assert np.array_equal(out.y, zeta)

    def test_partial_refresh_example(self, gauss1d):
        # cos(psi) = 0.8: new momentum 0.8*1 + 0.6*0.5 = 1.1
        out = refresh_momentum(gauss1d, PhaseState([0.0], [1.0]), math.acos(0.8),
                               ScriptedRng(normals=[0.5]))
        assert out.y[0] == pytest.approx(1.1, abs=1e-12)

    def test_mass_scales_noise(self):
        model = builtin_target("gaussian", 1, mass=MassMatrix.diagonal([4.0]))
        out = refresh_momentum(model, PhaseState([0.0], [0.0]), math.pi / 2,
                               ScriptedRng(normals=[1.0]))
        assert out.y[0] == pytest.approx(2.0)

    def test_noise_of_any_finite_size_refreshes_without_warning(self, gauss2d):
        z = PhaseState([0.0, 0.0], [1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = refresh_momentum(gauss2d, z, math.pi / 2,
                                   ScriptedRng(normals=[1e200, 1.0]))
            assert np.array_equal(out.y, [1e200, 1.0])
            out = refresh_momentum(gauss2d, z, math.pi / 2,
                                   ScriptedRng(normals=[1.7e308, -1.7e308]))
            assert np.array_equal(out.y, [1.7e308, -1.7e308])
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="noise"):
                    refresh_momentum(gauss2d, z, 0.5, ScriptedRng(normals=[1e200, bad]))

    def test_noise_of_another_length_or_type_is_refused(self, gauss2d):
        class StubRng:
            def __init__(self, noise):
                self.noise = noise

            def standard_normal(self, size):
                return self.noise

        z = PhaseState([0.0, 0.0], [0.3, 0.4])
        for bad in (0.7, [0.7], np.array([0.1, 0.2, 0.3]), ["0.1", "0.2"]):
            with pytest.raises(ValueError, match="refresh noise"):
                refresh_momentum(gauss2d, z, 0.5, StubRng(bad))
        noise = np.array([0.7, -0.2], dtype=np.float32)
        out = refresh_momentum(gauss2d, z, 0.5, StubRng(noise))
        assert np.array_equal(out.y, math.cos(0.5) * z.y + math.sin(0.5) * noise.astype(float))

    def test_angle_range_enforced(self, gauss1d, rng):
        z = PhaseState([0.0], [0.0])
        with pytest.raises(ValueError):
            refresh_momentum(gauss1d, z, 0.0, rng)
        with pytest.raises(ValueError):
            refresh_momentum(gauss1d, z, 2.0, rng)

    def test_marginal_preserved_statistically(self, gauss1d):
        # y ~ N(0,1) in, y ~ N(0,1) out for any psi
        rng = np.random.default_rng(21)
        ys = rng.standard_normal(40_000)
        out = np.array([
            refresh_momentum(gauss1d, PhaseState([0.0], [y]), 0.7, rng).y[0]
            for y in ys])
        assert abs(out.mean()) <= 3 * out.std() / math.sqrt(out.size)
        assert abs(out.var() - 1.0) <= 0.03


class TestSlotDistribution:
    def test_two_candidate_example(self):
        sd = slot_distribution(np.log([0.6, 1.2]))
        assert np.allclose(sd.sigma, [0.6, 1.0], atol=1e-12)
        assert np.allclose(sd.p, [0.6, 0.4, 0.0], atol=1e-12)

    def test_non_monotone_ratio_example(self):
        sd = slot_distribution(np.log([0.6, 0.3, 0.5]))
        assert np.allclose(sd.sigma, [0.6, 0.6, 0.6], atol=1e-12)
        assert np.allclose(sd.p, [0.6, 0.0, 0.0, 0.4], atol=1e-12)
        # candidates dominated by an earlier one get exactly zero probability
        assert sd.p[1] == 0.0
        assert sd.p[2] == 0.0

    def test_uphill_ratio_kills_flip(self):
        sd = slot_distribution(np.log([0.2, 3.0]))
        assert sd.sigma[-1] == 1.0
        assert sd.p[-1] == 0.0

    @given(log_ratio_vectors)
    def test_partition_properties(self, lrs):
        sd = slot_distribution(lrs)
        assert np.all(np.diff(sd.sigma) >= 0)
        assert np.all(sd.sigma <= 1.0)
        assert np.all(sd.p >= 0.0)
        assert abs(sd.p.sum() - 1.0) <= 1e-15
        assert np.allclose(sd.sigma, np.exp(sd.log_sigma))

    @given(log_ratio_vectors)
    def test_dominated_candidates_get_zero(self, lrs):
        sd = slot_distribution(lrs)
        running = -math.inf
        for k, lr in enumerate(lrs):
            if lr <= running and k > 0:
                assert sd.p[k] == 0.0
            running = max(running, lr)

    @given(log_ratio_vectors)
    def test_any_uphill_candidate_removes_flip(self, lrs):
        sd = slot_distribution(lrs)
        if max(lrs) >= 0.0:
            assert sd.sigma[-1] == 1.0
            assert sd.p[-1] == 0.0


class TestSigmaSequence:
    def test_exact_flow_accepts_first_candidate(self):
        model = free_model()
        sd = sigma_sequence(model, LegSpec(0.5, 3), PhaseState([0.2], [1.3]), 3)
        assert np.array_equal(sd.sigma, np.ones(4))
        assert np.array_equal(sd.p, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_single_candidate_matches_energy_change(self, gauss1d):
        z = PhaseState([1.5], [1.7])
        leg = LegSpec(1.5, 1)
        out, _ = verlet_leg(gauss1d, leg, z)
        delta_h = log_rho(gauss1d, z) - log_rho(gauss1d, out)  # beta = 1
        sd = sigma_sequence(gauss1d, leg, z, 0)
        assert sd.sigma[0] == pytest.approx(min(1.0, math.exp(-delta_h)), rel=1e-13)

    def test_diverged_candidates_contribute_zero(self, dwell1d):
        # dt way beyond stability: all candidates diverge, mass goes to the flip
        sd = sigma_sequence(dwell1d, LegSpec(2.0, 50), PhaseState([3.0], [0.0]), 2)
        assert np.array_equal(sd.sigma, np.zeros(3))
        assert sd.p[-1] == 1.0


def _interesting_state(model, extra_chances):
    """Deterministically find a state whose slot distribution is spread out."""
    rng = np.random.default_rng(99)
    for _ in range(500):
        z = PhaseState(rng.standard_normal(model.dim) * 1.3,
                       rng.standard_normal(model.dim) * 1.3)
        for dt in (0.6, 0.9, 1.2, 1.5):
            leg = LegSpec(dt, 1)
            sd = sigma_sequence(model, leg, z, extra_chances)
            if 0.15 <= sd.p[0] <= 0.85 and sd.p[1] >= 0.05:
                return z, leg, sd
    raise AssertionError("no spread-out slot distribution found")


class TestExtraChanceStep:
    def test_forced_u_zero_accepts_first_candidate(self, gauss2d, rng):
        z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
        config = SamplerConfig(leg=LegSpec(0.3, 4), psi=math.pi / 2, extra_chances=3)
        out = extra_chance_step(gauss2d, config, z, ScriptedRng(uniforms=[0.0]))
        assert out.slot == 1
        assert out.candidates_computed == 1
        assert out.force_evals == 5
        expected, _ = verlet_leg(gauss2d, LegSpec(0.3, 4), z)
        assert np.array_equal(out.next_state.x, expected.x)
        assert np.array_equal(out.next_state.y, expected.y)

    def test_forced_rejection_flips_input_momentum(self, gauss1d):
        # K = 0 with u just above the single acceptance threshold
        z = PhaseState([1.5], [1.7])
        leg = LegSpec(1.5, 1)
        sigma = sigma_sequence(gauss1d, leg, z, 0).sigma[0]
        assert sigma < 0.999  # precondition: rejection is reachable
        config = SamplerConfig(leg=leg, psi=math.pi / 2, extra_chances=0)
        out = extra_chance_step(gauss1d, config, z,
                                ScriptedRng(uniforms=[(1.0 + sigma) / 2]))
        assert out.slot == 2
        assert out.candidates_computed == 1
        assert np.array_equal(out.next_state.x, z.x)
        assert np.array_equal(out.next_state.y, -z.y)

    def test_ghmc_reduction_monte_carlo(self, gauss1d):
        # K = 0: acceptance frequency must match min(1, density ratio)
        z = PhaseState([1.5], [1.7])
        leg = LegSpec(1.5, 1)
        sigma = sigma_sequence(gauss1d, leg, z, 0).sigma[0]
        config = SamplerConfig(leg=leg, psi=math.pi / 2, extra_chances=0)
        rng = np.random.default_rng(8)
        n = 20_000
        accepted = sum(
            extra_chance_step(gauss1d, config, z, rng).slot == 1 for _ in range(n))
        se = math.sqrt(sigma * (1 - sigma) / n)
        assert abs(accepted / n - sigma) <= 3 * se

    def test_slot_frequencies_match_slot_distribution(self, dwell1d):
        z, leg, sd = _interesting_state(dwell1d, 2)
        config = SamplerConfig(leg=leg, psi=math.pi / 2, extra_chances=2)
        rng = np.random.default_rng(17)
        n = 100_000
        counts = np.zeros(4, dtype=int)
        for _ in range(n):
            counts[extra_chance_step(dwell1d, config, z, rng).slot - 1] += 1
        for k, p in enumerate(sd.p):
            if p == 0.0:
                assert counts[k] == 0
            else:
                se = math.sqrt(p * (1 - p) / n)
                assert abs(counts[k] / n - p) <= 3 * se, f"slot {k + 1}"

    def test_lazy_matches_eager_for_scripted_u(self, dwell1d):
        z, leg, sd = _interesting_state(dwell1d, 2)
        config = SamplerConfig(leg=leg, psi=math.pi / 2, extra_chances=2)
        us = np.random.default_rng(23).uniform(size=10_000)
        for u in us:
            out = extra_chance_step(dwell1d, config, z, ScriptedRng(uniforms=[u]))
            idx = int(np.searchsorted(sd.log_sigma, math.log(u), side="left"))
            expected_slot = idx + 1 if idx < sd.sigma.size else sd.sigma.size + 1
            assert out.slot == expected_slot
            # linear-space description of the same partition
            if out.slot <= sd.sigma.size:
                assert u <= sd.sigma[out.slot - 1]
                if out.slot > 1:
                    assert u > sd.sigma[out.slot - 2]
            else:
                assert u > sd.sigma[-1]
            # work accounting: a slot-k acceptance costs exactly k legs, and the
            # caller's state carries no gradient, so the first leg evaluates one more
            assert out.candidates_computed == min(out.slot, 3)
            assert out.force_evals == out.candidates_computed * leg.steps + 1

    def test_single_jitter_shared_by_all_legs(self, gauss1d):
        # all candidate legs of one transition must use the same jittered dt
        config = SamplerConfig(leg=LegSpec(0.4, 2), psi=math.pi / 2, extra_chances=2,
                               jitter_fraction=0.2)
        z = PhaseState([1.5], [1.7])
        perturbation = 0.1
        out = extra_chance_step(gauss1d, config, z,
                                ScriptedRng(uniforms=[0.0], jitters=[perturbation]))
        assert out.dt == pytest.approx(0.4 * 1.1, rel=1e-15)
        expected, _ = verlet_leg(gauss1d, LegSpec(out.dt, 2), z)
        assert np.array_equal(out.next_state.x, expected.x)

    def test_diverged_candidate_never_accepted(self, dwell1d):
        # u = 0 would accept anything acceptable; divergence must force the flip
        z = PhaseState([3.0], [0.0])
        config = SamplerConfig(leg=LegSpec(2.0, 50), psi=math.pi / 2, extra_chances=1)
        out = extra_chance_step(dwell1d, config, z, ScriptedRng(uniforms=[0.0]))
        assert out.slot == 3
        assert np.array_equal(out.next_state.x, z.x)
        assert np.array_equal(out.next_state.y, -z.y)
        assert out.force_evals < 2 * 51  # legs were abandoned early

    def test_diverged_end_state_flips(self):
        # The first leg's gradients are finite and its end state is not.
        model = TargetModel(1, lambda x: float(x[0]), lambda x: np.array([1e308]))
        z = PhaseState([0.0], [-1.7e308])
        config = SamplerConfig(leg=LegSpec(1.0, 1), psi=math.pi / 2, extra_chances=3)
        out = extra_chance_step(model, config, z, ScriptedRng(uniforms=[0.0]))
        assert out.slot == 3 + 2
        assert (out.force_evals, out.candidates_computed) == (2, 3 + 1)
        assert np.array_equal(out.next_state.y, -z.y)


class TestCarriedPotential:
    @pytest.mark.parametrize("name,dims,dt,params", [
        ("gaussian", 10, 0.4, {"variances": np.linspace(0.5, 6.0, 10)}),
        ("double_well", 2, 0.5, {}),  # about 30 % of the legs diverge
    ])
    def test_one_potential_call_per_leg_and_one_per_chain(self, counting, monkeypatch,
                                                          name, dims, dt, params):
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

        monkeypatch.setattr(sampler, "verlet_leg", counted_leg)
        config = SamplerConfig(leg=LegSpec(dt, 5), psi=math.asin(0.4), extra_chances=3,
                               jitter_fraction=0.05)
        for chain in range(3):
            calls["potential"] = legs["integrated"] = 0
            run_chain(model, config, PhaseState(np.zeros(dims), np.full(dims, 0.5)),
                      Budget(transitions=300, burn_in=10), rng=chain_rng(5, chain))
            assert calls["potential"] == legs["integrated"] + 1
        assert (legs["diverged"] > 0) == (name == "double_well")

    def test_value_of_another_potential_is_recomputed(self, counting, gauss2d):
        config = SamplerConfig(leg=LegSpec(0.3, 4), psi=math.pi / 2, extra_chances=2)
        start = PhaseState([0.4, -1.1], [0.9, 0.3])
        carried = extra_chance_step(gauss2d, config, start, ScriptedRng(uniforms=[0.0]))
        assert carried.slot == 1
        other, calls = counting(builtin_target("gaussian", 2, variances=[2.0, 0.5]))
        outcomes = []
        for state in (carried.next_state, PhaseState(carried.next_state.x,
                                                     carried.next_state.y)):
            calls["potential"] = 0
            out = extra_chance_step(other, config, state, chain_rng(9))
            assert calls["potential"] == out.candidates_computed + 1
            outcomes.append(out)
        a, b = outcomes
        assert (a.slot, a.candidates_computed, a.force_evals, a.u, a.dt) == \
            (b.slot, b.candidates_computed, b.force_evals, b.u, b.dt)
        assert np.array_equal(a.next_state.x, b.next_state.x)
        assert np.array_equal(a.next_state.y, b.next_state.y)
        # A state the kernel built under this potential is not evaluated again.
        calls["potential"] = 0
        out = extra_chance_step(other, config, a.next_state, chain_rng(10))
        assert calls["potential"] == out.candidates_computed

    def test_kernel_states_compare_print_and_pickle_as_before(self, gauss2d):
        config = SamplerConfig(leg=LegSpec(0.3, 4), psi=math.pi / 2, extra_chances=2)
        out = extra_chance_step(gauss2d, config, PhaseState([0.4, -1.1], [0.9, 0.3]),
                                ScriptedRng(uniforms=[0.0]))
        accepted = out.next_state
        refreshed = refresh_momentum(gauss2d, accepted, 0.4, np.random.default_rng(2))
        for state in (accepted, flip(accepted), refreshed):
            assert state._potential is not None
            assert state._gradient is not None
            plain = PhaseState(state.x, state.y)
            assert state == plain
            assert repr(state) == repr(plain)
            assert pickle.dumps(state) == pickle.dumps(plain)
            for back in (pickle.loads(pickle.dumps(state)), copy.copy(state),
                         copy.deepcopy(state)):
                assert back._potential is None
                assert back._gradient is None
                assert np.array_equal(back.x, state.x) and np.array_equal(back.y, state.y)


class TestTracedCallGraph:
    """The names ``perfbench/tracing.py`` rebinds, and the calls it counts through them."""

    def test_tracer_rebinds_and_restores_every_name(self, monkeypatch, tmp_path):
        # Deleting or renaming a name the benchmark rebinds fails here, not only there.
        # The import leaves no bytecode cache in the benchmark's directory.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer = importlib.import_module("tracing").Tracer(tmp_path)
        original = sampler.extra_chance_step
        try:
            tracer.install()
            assert sampler.extra_chance_step is not original
        finally:
            assert tracer.uninstall() == []
        assert sampler.extra_chance_step is original

    @pytest.mark.parametrize("chain,budget", [
        ("run_chain", Budget(transitions=200, burn_in=20)),
        ("run_chain", Budget(force_evals=3000)),
        ("_palindromic_positions", 200),
    ])
    def test_steps_refreshes_and_legs_go_through_the_module_names(self, counting, monkeypatch,
                                                                  dwell2d, chain, budget):
        model, calls = counting(dwell2d)
        events, legs, steps = [], [], []  # legs: one diverged flag per leg run

        def counted_leg(model, spec, z):
            try:
                out = verlet_leg(model, spec, z)
            except DivergedLeg:
                legs.append(True)
                raise
            legs.append(False)
            return out

        def counted_step(model, config, z, rng):
            events.append("step")
            first = len(legs)
            out = extra_chance_step(model, config, z, rng)
            steps.append((out, legs[first:]))
            return out

        def counted_refresh(model, z, psi, rng):
            events.append("refresh")
            return refresh_momentum(model, z, psi, rng)

        monkeypatch.setattr(sampler, "verlet_leg", counted_leg)
        monkeypatch.setattr(sampler, "extra_chance_step", counted_step)
        monkeypatch.setattr(sampler, "refresh_momentum", counted_refresh)
        config = SamplerConfig(leg=LegSpec(0.5, 5), psi=math.asin(0.4), extra_chances=3,
                               jitter_fraction=0.05)  # about 30 % of the legs diverge
        z0 = PhaseState([0.0, 0.0], [0.5, 0.5])
        if chain == "run_chain":
            rec = run_chain(model, config, z0, budget, rng=chain_rng(5))
            burn_in, transitions = rec.burn_in, rec.transitions
        else:  # the coupling battery's loop: half refresh, step, half refresh
            rec = None
            positions = verification._palindromic_positions(model, config, z0, budget,
                                                            chain_rng(5))
            burn_in, transitions = 0, budget
        # One step per transition, burn-in included, between its refreshes.
        assert len(steps) == burn_in + transitions > burn_in
        per_transition = ["refresh", "step"] + ["refresh"] * (rec is None)
        assert events == per_transition * len(steps)
        flip_slot = config.extra_chances + 2
        for out, run in steps:
            if True in run:  # the diverged leg is the last one run, and the step flips
                assert run.index(True) + 1 == len(run) and out.slot == flip_slot
            else:
                assert len(run) == out.candidates_computed
        assert any(True in run for _, run in steps)
        assert calls["gradient"] == sum(out.force_evals for out, _ in steps)
        if rec is None:  # a refresh keeps the position of the step's end
            assert np.array_equal(positions[1:], [out.next_state.x for out, _ in steps])
            return
        recorded = [out for out, _ in steps[rec.burn_in:]]
        assert rec.total_force_evals == sum(out.force_evals for out in recorded)
        assert rec.slots.tolist() == [out.slot for out in recorded]
        assert rec.candidates.tolist() == [out.candidates_computed for out in recorded]
        if rec.burn_in == 0:
            assert calls["gradient"] == rec.total_force_evals


class TestTracedBatteries:
    """The battery call graph that the benchmark counts the batteries' force evaluations
    through: the untraced ``verify_batteries`` run takes them from one traced batch."""

    @pytest.mark.parametrize("suite", ["verify_reversibility", "verify_volume",
                                       "verify_main_identity", "verify_lahmc_equivalence",
                                       "verify_palindromic_coupling"])
    def test_every_leg_goes_through_the_module_names(self, monkeypatch, tmp_path, suite):
        # A battery whose legs bypassed the rebound names would count no force evaluation.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer = importlib.import_module("tracing").Tracer(tmp_path)
        try:
            tracer.install()
            mark = tracer.mark()
            assert getattr(verification, suite)(1).passed
        finally:
            assert tracer.uninstall() == []
        tracer.layer_metrics(mark, workers=1)
        accounting = tracer.last_accounting
        assert accounting["gradient_calls"] == accounting["leg_force_evals"] > 0


class TestKernelStatesAreNotRechecked:
    """The kernel builds its states unchecked: the checking constructor runs only for
    the caller's start state, counted as ``perfbench/tracing.py`` counts it."""

    @pytest.fixture
    def validations(self, monkeypatch):
        count = [0]
        check = PhaseState.__post_init__

        def counted(state):
            count[0] += 1
            check(state)
        monkeypatch.setattr(PhaseState, "__post_init__", counted)
        return count

    # Refreshes, flips and diverged legs.
    CONFIG = SamplerConfig(leg=LegSpec(0.5, 5), psi=math.asin(0.4), extra_chances=3,
                           jitter_fraction=0.05)

    def test_chain_checks_only_its_start(self, validations, dwell2d):
        z0 = PhaseState([0.0, 0.0], [0.5, 0.5])
        assert validations == [1]
        rec = run_chain(dwell2d, self.CONFIG, z0, Budget(transitions=200, burn_in=20),
                        rng=chain_rng(5))
        assert rec.transitions == 200 and 0 < np.sum(rec.slots == 5) < 200
        assert validations == [1]

    def test_palindromic_battery_chain_checks_only_its_start(self, validations, step_slots,
                                                            dwell2d):
        z0 = PhaseState([0.0, 0.0], [0.5, 0.5])
        assert validations == [1]
        positions = verification._palindromic_positions(dwell2d, self.CONFIG, z0, 200,
                                                        chain_rng(5))
        assert positions.shape == (201, 2) and 0 < step_slots.count(5) < 200
        assert validations == [1]

    def test_volume_battery_checks_no_state(self, validations):
        assert verification.verify_volume(points_per_target=1).passed
        assert validations == [0]


class TestDensityGuard:
    """The transition holds one np.errstate and leaves the caller's settings as they were."""

    def _outcome(self, case):
        if case == "slot-1 acceptance":
            model, z = builtin_target("gaussian", 2), PhaseState([0.4, -1.1], [0.9, 0.3])
            config = SamplerConfig(leg=LegSpec(0.3, 4), psi=math.pi / 2, extra_chances=3)
            return extra_chance_step(model, config, z, ScriptedRng(uniforms=[0.0])), 1
        if case == "flip":
            model, z = builtin_target("gaussian", 1), PhaseState([1.5], [1.7])
            config = SamplerConfig(leg=LegSpec(1.5, 1), psi=math.pi / 2, extra_chances=1)
            return extra_chance_step(model, config, z, ScriptedRng(uniforms=[0.9999])), 3
        model, z = builtin_target("double_well", 1), PhaseState([3.0], [0.0])
        config = SamplerConfig(leg=LegSpec(2.0, 50), psi=math.pi / 2, extra_chances=1)
        return extra_chance_step(model, config, z, ScriptedRng(uniforms=[0.0])), 3

    @pytest.mark.parametrize("case", ["slot-1 acceptance", "flip", "diverged leg"])
    def test_error_settings_restored(self, case):
        for settings in ({}, {"all": "raise", "under": "ignore"}):
            with np.errstate(**settings):
                before = np.geterr()
                out, slot = self._outcome(case)
                assert np.geterr() == before
            assert out.slot == slot

    def test_eager_orbit_restores_error_settings(self, dwell1d):
        before = np.geterr()
        sd = sigma_sequence(dwell1d, LegSpec(2.0, 50), PhaseState([3.0], [0.0]), 2)
        assert np.geterr() == before
        assert np.all(sd.sigma == 0.0)


class TestAcceptanceAndJitterDraws:
    @pytest.mark.parametrize("fraction", [0.0, 0.05, 0.3, 0.999])
    def test_generator_draws_are_those_of_uniform(self, fraction):
        fast, slow = np.random.default_rng(2024), np.random.default_rng(2024)
        n = 100_000
        got = np.array([_acceptance_and_jitter_draws(fast, fraction) for _ in range(n)])
        want = np.array([(slow.uniform(), slow.uniform(-fraction, fraction))
                         for _ in range(n)])
        assert got.tobytes() == want.tobytes()
        assert fast.random() == slow.random()

    def test_other_rngs_are_asked_for_uniform(self):
        scripted = ScriptedRng(uniforms=[0.25, 0.75], jitters=[0.01, -0.02])
        assert _acceptance_and_jitter_draws(scripted, 0.05) == (0.25, 0.01)
        assert _acceptance_and_jitter_draws(scripted, 0.05) == (0.75, -0.02)


class TestRunChain:
    def test_zero_transitions_records_start_only(self, gauss1d):
        z0 = PhaseState([0.3], [-0.2])
        rec = run_chain(gauss1d, SamplerConfig(leg=LegSpec(0.1, 2), psi=1.0), z0,
                        Budget(transitions=0))
        assert rec.transitions == 0
        assert rec.positions.shape == (1, 1)
        assert np.array_equal(rec.positions[0], z0.x)
        assert np.array_equal(rec.momenta[0], z0.y)

    def test_forced_rejection_keeps_position_and_flips_refreshed_momentum(self, gauss1d):
        # script the refresh noise and a u above the acceptance threshold
        zeta = 1.7
        leg = LegSpec(1.5, 1)
        zbar = PhaseState([1.5], [zeta])
        sigma = sigma_sequence(gauss1d, leg, zbar, 0).sigma[0]
        assert sigma < 0.999
        config = SamplerConfig(leg=leg, psi=math.pi / 2, extra_chances=0)
        rec = run_chain(gauss1d, config, PhaseState([1.5], [-5.0]),
                        Budget(transitions=1),
                        rng=ScriptedRng(normals=[zeta], uniforms=[(1 + sigma) / 2]))
        assert rec.slots[0] == 2
        assert np.array_equal(rec.positions[1], rec.positions[0])
        assert rec.momenta[1][0] == -zeta

    def test_force_eval_budget_stops_at_cap(self, gauss1d):
        config = SamplerConfig(leg=LegSpec(0.1, 4), psi=math.pi / 2, extra_chances=0,
                               seed=5)
        rec = run_chain(gauss1d, config, PhaseState([0.0], [1.0]),
                        Budget(force_evals=1000))
        assert rec.total_force_evals >= 1000
        assert rec.total_force_evals - rec.force_evals[-1] < 1000
        assert abs(rec.transitions - 250) <= 1  # (1000 - 1) / L

    def test_total_force_evals_counts_every_gradient_call(self, dwell2d):
        calls = {"n": 0}

        def gradient(x):
            calls["n"] += 1
            return dwell2d.gradient(x)

        counting = TargetModel(dim=2, potential=dwell2d.potential, gradient=gradient)
        config = SamplerConfig(leg=LegSpec(0.45, 3), psi=math.asin(0.8),
                               extra_chances=2, jitter_fraction=0.05, seed=11)
        rec = run_chain(counting, config, PhaseState([1.0, -1.0], [0.0, 0.0]),
                        Budget(transitions=400))
        assert rec.total_force_evals == calls["n"]

    def test_deterministic_given_seed_and_config(self, dwell2d):
        config = SamplerConfig(leg=LegSpec(0.4, 3), psi=math.asin(0.8),
                               extra_chances=3, jitter_fraction=0.05, seed=123)
        z0 = PhaseState([1.0, -1.0], [0.5, 0.5])
        a = run_chain(dwell2d, config, z0, Budget(transitions=300))
        b = run_chain(dwell2d, config, z0, Budget(transitions=300))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.momenta, b.momenta)
        assert np.array_equal(a.slots, b.slots)
        assert np.array_equal(a.dt_used, b.dt_used)
        # No rng is the default stream chain_rng(config.seed, 0); another stream differs.
        c = run_chain(dwell2d, config, z0, Budget(transitions=300), rng=chain_rng(123, 0))
        assert all(np.array_equal(getattr(a, f), getattr(c, f))
                   for f in ("positions", "momenta", "slots", "dt_used"))
        d = run_chain(dwell2d, config, z0, Budget(transitions=300), rng=chain_rng(123, 1))
        assert not np.array_equal(a.positions, d.positions)

    def test_burn_in_shifts_the_recorded_stream(self, gauss1d):
        config = SamplerConfig(leg=LegSpec(0.5, 3), psi=math.asin(0.9),
                               extra_chances=1, seed=77)
        z0 = PhaseState([0.2], [0.1])
        with_burn = run_chain(gauss1d, config, z0, Budget(transitions=3, burn_in=5))
        plain = run_chain(gauss1d, config, z0, Budget(transitions=8))
        assert np.array_equal(with_burn.positions, plain.positions[5:])
        assert np.array_equal(with_burn.slots, plain.slots[5:])
        assert with_burn.burn_in == 5

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Budget()
        with pytest.raises(ValueError):
            Budget(transitions=10, force_evals=10)
        with pytest.raises(ValueError):
            Budget(transitions=-1)

    def test_stationary_moments_preserved(self, gauss1d):
        # start in equilibrium; long-run mean and variance must stay there
        config = SamplerConfig(leg=LegSpec(0.6, 3), psi=math.asin(0.9),
                               extra_chances=2, jitter_fraction=0.05, seed=314)
        rng = chain_rng(314, 0)
        z0 = PhaseState(rng.standard_normal(1), rng.standard_normal(1))
        rec = run_chain(gauss1d, config, z0, Budget(transitions=100_000), rng=rng)
        xs = rec.positions[:, 0]
        ess = ess_initial_monotone(xs)
        assert abs(xs.mean()) <= 4 * xs.std() / math.sqrt(ess)
        assert abs(xs.var() - 1.0) <= 0.05

    def test_first_slot_rate_matches_plain_acceptance_rate(self, gauss1d):
        # a0 of an extra-chance chain equals the acceptance rate of the K=0 chain
        leg = LegSpec(0.9, 3)
        n = 30_000

        def first_slot_series(extra, seed):
            config = SamplerConfig(leg=leg, psi=math.pi / 2, extra_chances=extra,
                                   seed=seed)
            rng = chain_rng(seed, 0)
            z0 = PhaseState(rng.standard_normal(1), rng.standard_normal(1))
            rec = run_chain(gauss1d, config, z0, Budget(transitions=n), rng=rng)
            return (rec.slots == 1).astype(float)

        plain = first_slot_series(0, 1001)
        extra = first_slot_series(3, 2002)
        se_plain = plain.std() / math.sqrt(ess_initial_monotone(plain))
        se_extra = extra.std() / math.sqrt(ess_initial_monotone(extra))
        combined = math.hypot(se_plain, se_extra)
        assert abs(plain.mean() - extra.mean()) <= 3 * combined


class TestLookAhead:
    def test_single_candidate_is_metropolis(self, gauss2d, rng):
        for _ in range(20):
            z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
            leg = LegSpec(0.3, 4)
            pi, cum = lahmc_probabilities(gauss2d, leg, z, 0)
            out, _ = verlet_leg(gauss2d, leg, z)
            ratio = math.exp(log_rho(gauss2d, out) - log_rho(gauss2d, z))
            assert pi[0] == pytest.approx(min(1.0, ratio), rel=1e-13)
            assert cum[-1] == pytest.approx(pi[0])

    def test_hand_worked_ratio_examples(self):
        pi, cum = lahmc_from_log_ratios(np.log([0.6, 1.2]))
        assert np.allclose(pi, [0.6, 0.4], atol=1e-12)
        assert np.allclose(cum, [0.6, 1.0], atol=1e-12)
        pi, cum = lahmc_from_log_ratios(np.log([0.6, 0.3, 0.5]))
        assert np.allclose(cum, [0.6, 0.6, 0.6], atol=1e-12)

    def test_start_of_density_zero_accepts_first_positive_candidate(self):
        # From x = 2 with y = -1 each leg moves x by -0.5: candidate 1 lies
        # behind the wall (density zero), candidates 2..4 in front of it.
        model = walled()
        leg = LegSpec(0.25, 2)
        z = PhaseState([2.0], [-1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi, cum = lahmc_probabilities(model, leg, z, 3)
            assert np.array_equal(pi, [0.0, 1.0, 0.0, 0.0])
            assert np.array_equal(cum, sigma_sequence(model, leg, z, 3).sigma)
            pi, cum = lahmc_from_log_ratios([-math.inf, math.inf, -math.inf, math.inf, math.inf])
            assert np.array_equal(pi, [0.0, 1.0, 0.0, 0.0, 0.0])
            assert np.array_equal(cum, [0.0, 1.0, 1.0, 1.0, 1.0])

    @given(log_ratio_vectors)
    def test_probabilities_well_formed(self, lrs):
        pi, cum = lahmc_from_log_ratios(lrs)
        assert np.all(pi >= 0.0)
        assert cum[-1] <= 1.0 + 1e-12

    @given(log_ratio_vectors)
    def test_cumulative_equals_slot_thresholds(self, lrs):
        sd = slot_distribution(lrs)
        _, cum = lahmc_from_log_ratios(lrs)
        assert np.max(np.abs(sd.sigma - cum)) <= 1e-12

    @pytest.mark.parametrize("name,dims,dt", [
        ("gaussian", 2, 0.3),
        ("double_well", 2, 0.3),
        ("banana", 2, 0.25),
    ])
    def test_equivalence_on_model_orbits(self, name, dims, dt, rng):
        model = builtin_target(name, dims)
        leg = LegSpec(dt, 3)
        for i in range(60):
            extra = (1, 2, 3, 5)[i % 4]
            z = PhaseState(rng.standard_normal(dims), rng.standard_normal(dims))
            sigma = sigma_sequence(model, leg, z, extra).sigma
            _, cum = lahmc_probabilities(model, leg, z, extra)
            assert np.max(np.abs(sigma - cum)) <= 1e-12


class TestPalindromicChain:
    def test_half_angle_relation(self):
        for psi in np.linspace(0.05, math.pi / 2, 25):
            half = palindromic_refresh_angle(float(psi))
            assert math.cos(half) ** 2 == pytest.approx(math.cos(psi), abs=1e-14)
            assert 0.0 < half <= math.pi / 2

    def test_full_refresh_maps_to_full_refresh(self):
        assert palindromic_refresh_angle(math.pi / 2) == math.pi / 2

    def test_consumes_two_refreshes_per_transition(self, gauss2d):
        config = SamplerConfig(leg=LegSpec(0.2, 2), psi=math.asin(0.5))
        normals = np.random.default_rng(4).standard_normal(3 * 4)  # 2d per transition
        positions = verification._palindromic_positions(
            gauss2d, config, PhaseState([0.1, 0.2], [0.3, 0.4]), 3,
            ScriptedRng(normals=normals, uniforms=[0.5, 0.5, 0.5]))
        assert positions.shape == (4, 2)
        with pytest.raises(IndexError):
            verification._palindromic_positions(
                gauss2d, config, PhaseState([0.1, 0.2], [0.3, 0.4]), 3,
                ScriptedRng(normals=normals[:-1], uniforms=[0.5, 0.5, 0.5]))


class TestCoupleNoise:
    def test_rotation_preserves_norms(self, rng):
        for psi in rng.uniform(0.1, math.pi / 2, size=10):
            y_init = rng.standard_normal(3)
            pre = rng.standard_normal((1, 3))
            y0, zetas = couple_noise(float(psi), y_init, pre, np.zeros((0, 3)))
            before = np.sum(y_init**2) + np.sum(pre[0] ** 2)
            after = np.sum(y0**2) + np.sum(zetas[0] ** 2)
            assert after == pytest.approx(before, rel=1e-12)

    def test_empty_post_stream_has_no_rows(self):
        # Enough for one transition, too short for two.
        y0, zetas = couple_noise(0.5, [1.0], [[0.1]], [])
        expected = couple_noise(0.5, [1.0], [[0.1]], np.zeros((0, 1)))
        assert np.array_equal(y0, expected[0]) and np.array_equal(zetas, expected[1])
        with pytest.raises(ValueError, match="^post-refresh noise stream too short$"):
            couple_noise(0.5, [1.0], [[0.1], [0.2]], [])

    def test_variance_identity(self, rng):
        # cos^2(HALF) sin^2(HALF) + sin^2(HALF) = sin^2(psi), so recombined
        # noise keeps unit variance
        for psi in rng.uniform(0.1, math.pi / 2, size=10):
            half = palindromic_refresh_angle(float(psi))
            lhs = (math.cos(half) * math.sin(half)) ** 2 + math.sin(half) ** 2
            assert abs(lhs - math.sin(psi) ** 2) <= 1e-12

    def test_full_refresh_coupling_is_identity(self, rng):
        y_init = rng.standard_normal(2)
        pre = rng.standard_normal((5, 2))
        post = rng.standard_normal((5, 2))
        y0, zetas = couple_noise(math.pi / 2, y_init, pre, post)
        assert np.array_equal(y0, y_init)
        assert np.array_equal(zetas, pre)

    @pytest.mark.parametrize("sin_psi", [0.25, 0.5, 1.0])
    def test_coupled_chains_share_positions(self, step_slots, gauss2d, sin_psi):
        psi = math.asin(sin_psi)
        config = SamplerConfig(leg=LegSpec(0.25, 5), psi=psi, extra_chances=2)
        rng = np.random.default_rng(42)
        n, d = 100, 2
        pre = rng.standard_normal((n, d))
        post = rng.standard_normal((n, d))
        us = rng.uniform(size=n)
        x0 = rng.standard_normal(d)
        y_init = rng.standard_normal(d)

        interleaved = np.empty((n, 2 * d))
        interleaved[:, :d] = pre
        interleaved[:, d:] = post
        palindromic = verification._palindromic_positions(
            gauss2d, config, PhaseState(x0, y_init), n,
            ScriptedRng(normals=interleaved.ravel(), uniforms=us))

        y0, zetas = couple_noise(psi, y_init, pre, post)
        single = run_chain(gauss2d, config, PhaseState(x0, y0),
                           Budget(transitions=n),
                           rng=ScriptedRng(normals=zetas.ravel(), uniforms=us))

        scale = max(1.0, float(np.abs(palindromic).max()))
        gap = float(np.abs(palindromic - single.positions).max()) / scale
        assert gap <= 1e-12
        # outcome metadata agrees as well: same u draws, same candidates
        assert step_slots[:n] == step_slots[n:] == single.slots.tolist()

    def test_double_well_coupling_short_horizon(self, dwell1d):
        psi = math.asin(0.5)
        config = SamplerConfig(leg=LegSpec(0.3, 3), psi=psi, extra_chances=1)
        rng = np.random.default_rng(9)
        n = 30
        pre = rng.standard_normal((n, 1))
        post = rng.standard_normal((n, 1))
        us = rng.uniform(size=n)
        x0 = rng.standard_normal(1)
        y_init = rng.standard_normal(1)
        interleaved = np.column_stack([pre, post])
        palindromic = verification._palindromic_positions(
            dwell1d, config, PhaseState(x0, y_init), n,
            ScriptedRng(normals=interleaved.ravel(), uniforms=us))
        y0, zetas = couple_noise(psi, y_init, pre, post)
        single = run_chain(dwell1d, config, PhaseState(x0, y0),
                           Budget(transitions=n),
                           rng=ScriptedRng(normals=zetas.ravel(), uniforms=us))
        assert np.allclose(palindromic, single.positions, atol=1e-10)


class TestSlotStatsIntegration:
    def test_extra_chances_raise_total_acceptance_at_large_dt(self, dwell2d):
        # same step size, more chances: less probability left for the flip
        def chain(extra, seed):
            config = SamplerConfig(leg=LegSpec(0.45, 5), psi=math.pi / 2,
                                   extra_chances=extra, seed=seed)
            rng = chain_rng(seed, 0)
            z0 = PhaseState([1.0, -1.0], [0.0, 0.0])
            rec = run_chain(dwell2d, config, z0,
                            Budget(transitions=4000, burn_in=200), rng=rng)
            return slot_stats(rec)

        plain = chain(0, 51)
        ahead = chain(3, 52)
        assert ahead.total_acceptance > plain.total_acceptance
        assert ahead.flip_fraction < plain.flip_fraction


# ---------------------------------------------------------------------------
# The chain drivers against hand loops over the public kernel calls
# ---------------------------------------------------------------------------

def driver_case(name):
    """``(model, config, z0, hand_rng, driver_kwargs, divergences)`` of one pinned case.

    ``hand_rng`` feeds the hand loop; ``driver_kwargs`` gives the driver the
    same stream, either as its default stream (no ``rng``, so
    ``chain_rng(config.seed, 0)``) or as an identical copy.
    ``divergences`` lists the non-finite gradients the model has returned.
    """
    divergences = []
    if name == "seeded":
        model = builtin_target("gaussian", 2, variances=[1.0, 4.0])
        config = SamplerConfig(leg=LegSpec(0.5, 4), psi=math.asin(0.6), extra_chances=2,
                               jitter_fraction=0.05, seed=31)
        return (model, config, PhaseState([0.4, -1.2], [0.7, 0.1]), chain_rng(31, 0), {},
                divergences)
    if name == "scripted":
        model = builtin_target("banana", 2, curvature=0.5)
        config = SamplerConfig(leg=LegSpec(0.45, 3), psi=math.asin(0.7), extra_chances=1,
                               jitter_fraction=0.1)
        draws = np.random.default_rng(8)
        script = {"normals": draws.standard_normal(2 * 2 * 400),
                  "uniforms": draws.random(400), "jitters": draws.uniform(-0.1, 0.1, 400)}
        return (model, config, PhaseState([0.2, 0.3], [-0.5, 0.9]), ScriptedRng(**script),
                {"rng": ScriptedRng(**script)}, divergences)
    base = builtin_target("double_well", 2)

    def gradient(x):
        g = base.gradient(x)
        if not np.isfinite(g).all():
            divergences.append(x)
        return g

    model = TargetModel(dim=2, potential=base.potential, gradient=gradient)
    config = SamplerConfig(leg=LegSpec(0.4, 6), psi=math.asin(0.8), extra_chances=2,
                           jitter_fraction=0.1, seed=9)
    return (model, config, PhaseState([1.0, -1.0], [0.3, 0.2]), chain_rng(9, 0),
            {"rng": chain_rng(9, 0)}, divergences)


def hand_run_chain(model, config, z0, rng, force_evals, burn_in):
    """``run_chain`` under ``Budget(force_evals=..., burn_in=...)``, written out."""
    def transition(z):
        return extra_chance_step(model, config, refresh_momentum(model, z, config.psi, rng), rng)

    z = z0
    for _ in range(burn_in):
        z = transition(z).next_state
    states, outcomes, spent = [z], [], 0
    while spent < force_evals:
        out = transition(z)
        z = out.next_state
        states.append(z)
        outcomes.append(out)
        spent += out.force_evals
    return states, outcomes


def hand_palindromic_chain(model, config, z0, rng, transitions):
    """The coupling battery's loop, written out: half refresh, step, half refresh."""
    half = palindromic_refresh_angle(config.psi)
    states, outcomes, z = [z0], [], z0
    for _ in range(transitions):
        out = extra_chance_step(model, config, refresh_momentum(model, z, half, rng), rng)
        z = refresh_momentum(model, out.next_state, half, rng)
        states.append(z)
        outcomes.append(out)
    return states, outcomes


def assert_record_is(rec, states, outcomes, extra_chances, burn_in):
    expected = {
        "positions": np.array([z.x for z in states]),
        "momenta": np.array([z.y for z in states]),
        "slots": np.array([o.slot for o in outcomes], dtype=int),
        "candidates": np.array([o.candidates_computed for o in outcomes], dtype=int),
        "force_evals": np.array([o.force_evals for o in outcomes], dtype=int),
        "dt_used": np.array([o.dt for o in outcomes]),
    }
    # The field order and dtypes are part of the record: digests hash them in order.
    assert [f.name for f in dataclasses.fields(rec)] == [*expected, "extra_chances", "burn_in"]
    for name, want in expected.items():
        got = getattr(rec, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert (rec.extra_chances, rec.burn_in) == (extra_chances, burn_in)


class TestDriverAgainstHandLoop:
    @pytest.mark.parametrize("case", ["seeded", "scripted", "diverging"])
    def test_force_budget_chain_is_the_hand_loop(self, case):
        model, config, z0, hand_rng, kwargs, divergences = driver_case(case)
        budget = Budget(force_evals=700, burn_in=6)
        rec = run_chain(model, config, z0, budget, **kwargs)
        seen = len(divergences)
        states, outcomes = hand_run_chain(model, config, z0, hand_rng, 700, 6)
        assert_record_is(rec, states, outcomes, config.extra_chances, 6)
        assert rec.transitions > 20
        if case == "diverging":
            assert seen > 0 and len(divergences) == 2 * seen
            assert 0 < (rec.slots == config.extra_chances + 2).mean() < 1

    @pytest.mark.parametrize("case", ["seeded", "scripted", "diverging"])
    def test_palindromic_chain_is_the_hand_loop(self, step_slots, case):
        model, config, z0, hand_rng, kwargs, divergences = driver_case(case)
        rng = kwargs.get("rng", chain_rng(config.seed, 0))
        positions = verification._palindromic_positions(model, config, z0, 40, rng)
        seen = len(divergences)
        states, outcomes = hand_palindromic_chain(model, config, z0, hand_rng, 40)
        assert np.array_equal(positions, [z.x for z in states])
        assert step_slots == [out.slot for out in outcomes]
        if case == "diverging":
            assert seen > 0 and len(divergences) == 2 * seen

    def test_start_dimension_is_checked_before_any_draw(self, gauss2d):
        config = SamplerConfig(leg=LegSpec(0.1, 2), psi=1.0)
        z0 = PhaseState([0.0], [1.0])
        with pytest.raises(ValueError, match="dimension"):
            run_chain(gauss2d, config, z0, Budget(transitions=0), rng=ScriptedRng())
        # The coupling battery's loop: its first refresh checks before it draws.
        with pytest.raises(ValueError, match="dimension"):
            verification._palindromic_positions(gauss2d, config, z0, 1, ScriptedRng())


def record_arrays(rec):
    return {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)
            if isinstance(getattr(rec, f.name), np.ndarray)}


def record_nbytes(rec):
    return sum(a.nbytes for a in record_arrays(rec).values())


def traced_peak(fn):
    """``fn()`` and the peak of traced memory it allocated on top of what was live."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestChainRecordLayout:
    """The recorder's arrays hold exactly the rows the chain wrote, in C order."""

    @staticmethod
    def _chain(model, transitions, seed=2):
        config = SamplerConfig(leg=LegSpec(0.2, 1), psi=math.asin(0.4), extra_chances=1,
                               jitter_fraction=0.05, seed=seed)
        z0 = PhaseState(np.zeros(model.dim), np.ones(model.dim))
        return run_chain(model, config, z0, Budget(transitions=transitions))

    @staticmethod
    def _assert_layout(rec, dim):
        n = rec.transitions
        want = {"positions": (np.float64, (n + 1, dim)), "momenta": (np.float64, (n + 1, dim)),
                "slots": (np.int64, (n,)), "candidates": (np.int64, (n,)),
                "force_evals": (np.int64, (n,)), "dt_used": (np.float64, (n,))}
        arrays = record_arrays(rec)
        assert list(arrays) == list(want)
        for name, (dtype, shape) in want.items():
            a = arrays[name]
            assert a.dtype == dtype and a.shape == shape, name
            assert a.flags.c_contiguous, name

    @pytest.mark.parametrize("transitions", [0, 1, 37])
    def test_arrays_hold_exactly_the_rows_written(self, gauss2d, transitions):
        rec = self._chain(gauss2d, transitions)
        assert rec.transitions == transitions
        self._assert_layout(rec, 2)
        assert np.all((rec.slots >= 1) & (rec.slots <= 3))
        assert np.all(rec.dt_used > 0.0)

    def test_each_call_records_into_its_own_buffers(self, gauss2d):
        first = self._chain(gauss2d, 30, seed=1)
        kept = {name: a.copy() for name, a in record_arrays(first).items()}
        second = self._chain(gauss2d, 30, seed=5)
        for name, a in record_arrays(first).items():
            assert not np.shares_memory(a, getattr(second, name)), name
            assert np.array_equal(a, kept[name]), name

    def test_pickle_round_trip_gives_an_equal_record(self, dwell2d):
        # Sweep workers ship records back to the parent process pickled.
        rec = self._chain(dwell2d, 50)
        back = pickle.loads(pickle.dumps(rec))
        for name, a in record_arrays(rec).items():
            b = getattr(back, name)
            assert b.dtype == a.dtype and b.shape == a.shape, name
            assert b.tobytes() == a.tobytes(), name
        assert (back.extra_chances, back.burn_in) == (rec.extra_chances, rec.burn_in)

    @pytest.mark.parametrize("target,dim", [("gaussian", 10), ("double_well", 2)])
    def test_recording_costs_at_most_twice_the_record(self, target, dim):
        rec, peak = traced_peak(lambda: self._chain(builtin_target(target, dim), 20_000))
        assert rec.transitions == 20_000
        assert peak <= 2 * record_nbytes(rec), peak / record_nbytes(rec)
