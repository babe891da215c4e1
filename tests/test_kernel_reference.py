"""The kernel against a plain reference transition, and injected failures.

The kernel checks its inputs once, at its public entry points, and then works
on arrays it has already checked.  The reference below is the plain form of
the same algorithm: every state goes through the checking ``PhaseState``
constructor, every mass product through the public ``MassMatrix`` methods,
every leg through its own loop.  Like the kernel, it starts each leg from the
gradient the previous leg ended with, or, after a flip, from the start's.  A
start without one (the chain's first state) gets it from its first leg, even
if that leg diverges later, and keeps it through the flip.
Under the same draws the two must agree bit for bit, force-evaluation
counts included.
"""

import math

import numpy as np
import pytest

from xchmc import (Budget, DivergedLeg, LegSpec, MassMatrix, PhaseState, SamplerConfig,
                   ScriptedRng, TargetModel, builtin_target, chain_rng, extra_chance_step,
                   lahmc_from_log_ratios, lahmc_probabilities, run_chain, sigma_sequence,
                   slot_distribution, verlet_leg)

# ---------------------------------------------------------------------------
# Reference transition
# ---------------------------------------------------------------------------


def ref_leg(model, spec, z, g=None, kept=None):
    """One leg from ``z``; ``g``, when given, is the gradient at ``z.x`` and is not
    evaluated again.  A finite gradient evaluated at ``z.x`` is appended to the
    list ``kept``, when given, even if the leg diverges later.  Returns (end
    state, gradient evaluations, gradient at the end)."""
    x, y = z.x, z.y
    evals = 0
    with np.errstate(over="ignore", invalid="ignore"):
        if g is None:
            g = np.asarray(model.gradient(x), dtype=float)
            evals += 1
            if not np.isfinite(g).all():
                raise DivergedLeg(0, evals)
            if kept is not None:
                kept.append(g)
        y = y - (0.5 * spec.dt) * g
        for step in range(1, spec.steps):
            x = x + spec.dt * model.mass.apply_inverse(y)
            g = np.asarray(model.gradient(x), dtype=float)
            evals += 1
            if not np.isfinite(g).all():
                raise DivergedLeg(step, evals)
            y = y - spec.dt * g
        x = x + spec.dt * model.mass.apply_inverse(y)
        g = np.asarray(model.gradient(x), dtype=float)
        evals += 1
        if not np.isfinite(g).all():
            raise DivergedLeg(spec.steps, evals)
        y = y - (0.5 * spec.dt) * g
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DivergedLeg(spec.steps, evals)
    return PhaseState(x, y), evals, g


def ref_log_rho(model, z):
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(model.potential(z.x))
        if not math.isfinite(v):
            return -math.inf
        h = model.mass.kinetic(z.y) + v
    return -model.beta * h if math.isfinite(h) else -math.inf


def ref_log_ratio(log_k, log_ref):
    if log_ref == -math.inf:
        return math.inf if log_k > -math.inf else -math.inf
    return log_k - log_ref


def ref_log_ratios(model, leg, z, count):
    log_ref = ref_log_rho(model, z)
    out = np.full(count, -math.inf)
    current, g = z, None
    for j in range(count):
        try:
            current, _, g = ref_leg(model, leg, current, g)
        except DivergedLeg:
            break
        out[j] = ref_log_ratio(ref_log_rho(model, current), log_ref)
    return out


def ref_refresh(model, z, psi, rng):
    noise = model.mass.sqrt_apply(np.asarray(rng.standard_normal(z.dim), dtype=float))
    c, s = (0.0, 1.0) if psi == math.pi / 2 else (math.cos(psi), math.sin(psi))
    return PhaseState(z.x, c * z.y + s * noise)


def ref_step(model, config, z, g, rng, divergences):
    """One delayed-rejection transition from ``z`` with gradient ``g`` (None if not
    known); returns (state, its gradient, slot, candidates, evals, dt).  After a
    flip the gradient is the start's, evaluated by the first leg if ``g`` is None."""
    u = float(rng.uniform())
    f = config.jitter_fraction
    dt = config.leg.dt * (1.0 + float(rng.uniform(-f, f)))
    leg = LegSpec(dt, config.leg.steps)
    log_u = math.log(u) if u > 0.0 else -math.inf
    log_ref = ref_log_rho(model, z)
    chances = config.extra_chances + 1
    log_running = -math.inf
    evals = 0
    current, g_current = z, g
    start_g = [g]
    for k in range(1, chances + 1):
        try:
            current, n, g_current = ref_leg(model, leg, current, g_current, start_g)
        except DivergedLeg as err:
            evals += err.force_evals
            divergences.append(err.step_index)
            break
        evals += n
        log_ratio = ref_log_ratio(ref_log_rho(model, current), log_ref)
        log_running = max(log_running, min(0.0, log_ratio))
        if log_ratio > -math.inf and log_u <= log_running:
            return PhaseState(current.x, current.y), g_current, k, k, evals, dt
    # A diverged leg and every candidate after it count as density zero.
    return PhaseState(z.x, -z.y), start_g[-1], chances + 1, chances, evals, dt


def ref_chain(model, config, z0, transitions, rng):
    divergences = []
    xs, ys = [z0.x], [z0.y]
    slots, candidates, evals, dts = [], [], [], []
    z, g = z0, None
    for _ in range(transitions):
        z, g, slot, cand, n, dt = ref_step(model, config,
                                           ref_refresh(model, z, config.psi, rng), g, rng,
                                           divergences)
        xs.append(z.x)
        ys.append(z.y)
        slots.append(slot)
        candidates.append(cand)
        evals.append(n)
        dts.append(dt)
    return {"positions": np.array(xs), "momenta": np.array(ys), "slots": np.array(slots),
            "candidates": np.array(candidates), "force_evals": np.array(evals),
            "dt_used": np.array(dts), "divergences": divergences}


def assert_same_chain(rec, ref):
    for name in ("positions", "momenta", "slots", "candidates", "force_evals", "dt_used"):
        assert np.array_equal(getattr(rec, name), ref[name]), name


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

MASSES = {
    "identity": lambda d: MassMatrix.identity(),
    "diagonal": lambda d: MassMatrix.diagonal(np.linspace(0.5, 2.5, d)),
    "dense": lambda d: MassMatrix.dense(np.eye(d) + 0.3 * np.ones((d, d))),
}
TARGETS = {
    "gaussian": (3, {"variances": [0.5, 1.0, 4.0]}, 0.35),
    "double_well": (2, {}, 0.25),
    "banana": (2, {"curvature": 0.5}, 0.25),
}
CASES = [(t, m) for t in TARGETS for m in MASSES]


def case_model(target, mass):
    dims, params, dt = TARGETS[target]
    return builtin_target(target, dims, mass=MASSES[mass](dims), **params), dt


class TestReferenceEquivalence:
    @pytest.mark.parametrize("target,mass", CASES)
    def test_run_chain_seeded(self, target, mass):
        model, dt = case_model(target, mass)
        config = SamplerConfig(leg=LegSpec(dt, 4), psi=math.asin(0.5), extra_chances=3,
                               jitter_fraction=0.1, seed=17)
        z0 = PhaseState(np.full(model.dim, 0.3), np.zeros(model.dim))
        rec = run_chain(model, config, z0, Budget(transitions=300), rng=chain_rng(17, 0))
        assert_same_chain(rec, ref_chain(model, config, z0, 300, chain_rng(17, 0)))

    @pytest.mark.parametrize("target,mass", CASES)
    def test_run_chain_scripted(self, target, mass):
        model, dt = case_model(target, mass)
        config = SamplerConfig(leg=LegSpec(1.6 * dt, 3), psi=math.pi / 2, extra_chances=2,
                               jitter_fraction=0.2)
        n = 60
        draws = np.random.default_rng(5)
        normals = draws.standard_normal(n * model.dim)
        uniforms = draws.uniform(size=n)
        jitters = draws.uniform(-0.2, 0.2, size=n)
        z0 = PhaseState(np.full(model.dim, -0.4), np.ones(model.dim))

        def scripted():
            return ScriptedRng(normals=normals, uniforms=uniforms, jitters=jitters)

        rec = run_chain(model, config, z0, Budget(transitions=n), rng=scripted())
        ref = ref_chain(model, config, z0, n, scripted())
        assert_same_chain(rec, ref)
        assert set(rec.slots) - {1}, "the scripted chain should not accept every first leg"

    @pytest.mark.parametrize("target,mass", CASES)
    def test_eager_orbit(self, target, mass):
        model, dt = case_model(target, mass)
        leg = LegSpec(2.0 * dt, 3)
        rng = np.random.default_rng(11)
        for extra in (0, 1, 3, 5):
            z = PhaseState(rng.standard_normal(model.dim), rng.standard_normal(model.dim))
            ratios = ref_log_ratios(model, leg, z, extra + 1)
            sd, ref_sd = sigma_sequence(model, leg, z, extra), slot_distribution(ratios)
            for name in ("sigma", "p", "log_sigma"):
                assert np.array_equal(getattr(sd, name), getattr(ref_sd, name)), name
            pi, cum = lahmc_probabilities(model, leg, z, extra)
            ref_pi, ref_cum = lahmc_from_log_ratios(ratios)
            assert np.array_equal(pi, ref_pi)
            assert np.array_equal(cum, ref_cum)

    def test_diverging_chain(self, dwell2d):
        # A step size near the stability limit of the double well: some legs
        # leave the finite domain and end their transition in a flip.
        config = SamplerConfig(leg=LegSpec(0.55, 12), psi=math.asin(0.8), extra_chances=3,
                               jitter_fraction=0.3, seed=3)
        z0 = PhaseState([2.0, -2.0], [3.0, 3.0])
        rec = run_chain(dwell2d, config, z0, Budget(transitions=400), rng=chain_rng(3, 0))
        ref = ref_chain(dwell2d, config, z0, 400, chain_rng(3, 0))
        assert ref["divergences"], "the case must diverge somewhere"
        assert_same_chain(rec, ref)

    def test_diverging_orbit(self, dwell1d):
        # The double well's potential is finite, so a -inf ratio marks a diverged leg.
        leg = LegSpec(0.9, 20)
        diverged = 0
        for x0 in np.linspace(1.2, 3.0, 10):
            z = PhaseState([x0], [1.0])
            ratios = ref_log_ratios(dwell1d, leg, z, 4)
            diverged += bool(np.isneginf(ratios).any())
            assert np.array_equal(sigma_sequence(dwell1d, leg, z, 3).log_sigma,
                                  slot_distribution(ratios).log_sigma)
            assert np.array_equal(lahmc_probabilities(dwell1d, leg, z, 3)[1],
                                  lahmc_from_log_ratios(ratios)[1])
        assert diverged


# ---------------------------------------------------------------------------
# Failure injection
# ---------------------------------------------------------------------------


def poisoned(model, at_call):
    """``model`` whose gradient returns NaN on its ``at_call``-th call (1-based)."""
    calls = {"n": 0}

    def gradient(x):
        calls["n"] += 1
        g = model.gradient(x)
        return g * math.nan if calls["n"] == at_call else g

    return TargetModel(dim=model.dim, potential=model.potential, gradient=gradient,
                       beta=model.beta, mass=model.mass), calls


class TestGradientTurnsNaN:
    def test_leg_reports_step_and_force_evals(self, gauss2d):
        model, calls = poisoned(gauss2d, at_call=3)
        with pytest.raises(DivergedLeg) as info:
            verlet_leg(model, LegSpec(0.2, 5), PhaseState([0.5, 0.5], [1.0, -1.0]))
        assert info.value.step_index == 2
        assert info.value.force_evals == 3
        assert calls["n"] == 3

    def test_step_flips_after_mid_leg_nan(self, gauss2d):
        model, calls = poisoned(gauss2d, at_call=3)
        config = SamplerConfig(leg=LegSpec(0.2, 5), psi=math.pi / 2, extra_chances=2)
        z = PhaseState([0.5, 0.5], [1.0, -1.0])
        out = extra_chance_step(model, config, z, ScriptedRng(uniforms=[0.0]))
        assert out.slot == 4
        assert out.candidates_computed == 3  # the diverged candidate and two density-zero ones
        assert out.force_evals == 3 == calls["n"]
        assert np.array_equal(out.next_state.x, z.x)
        assert np.array_equal(out.next_state.y, -z.y)

    def test_step_flips_when_a_later_candidate_diverges(self, gauss1d):
        leg = LegSpec(1.2, 3)
        z = PhaseState([1.5], [1.7])
        sigma = sigma_sequence(gauss1d, leg, z, 0).sigma[0]
        assert sigma < 0.99  # precondition: the first candidate can be rejected
        model, calls = poisoned(gauss1d, at_call=6)  # second leg, its second gradient
        config = SamplerConfig(leg=leg, psi=math.pi / 2, extra_chances=3)
        out = extra_chance_step(model, config, z,
                                ScriptedRng(uniforms=[(1.0 + sigma) / 2]))
        assert out.slot == 5
        assert out.candidates_computed == 4
        assert out.force_evals == 4 + 2 == calls["n"]
        assert np.array_equal(out.next_state.y, -z.y)

    def test_chain_records_the_diverged_transition(self, dwell2d):
        at_call = 50
        model, calls = poisoned(dwell2d, at_call)
        config = SamplerConfig(leg=LegSpec(0.3, 4), psi=math.asin(0.5), extra_chances=3,
                               jitter_fraction=0.05, seed=9)
        z0 = PhaseState([1.0, -1.0], [0.2, 0.1])
        rec = run_chain(model, config, z0, Budget(transitions=30), rng=chain_rng(9, 0))
        assert rec.total_force_evals == calls["n"]
        spent = np.cumsum(rec.force_evals)
        (hit,) = np.flatnonzero(spent == at_call)  # the diverged leg stopped at that call
        assert rec.slots[hit] == 5
        assert rec.candidates[hit] == 4
        assert np.array_equal(rec.positions[hit + 1], rec.positions[hit])
        ref_model, _ = poisoned(dwell2d, at_call)
        ref = ref_chain(ref_model, config, z0, 30, chain_rng(9, 0))
        assert len(ref["divergences"]) == 1
        assert_same_chain(rec, ref)


class TestMalformedGradient:
    def test_gradient_of_wrong_shape_is_rejected(self, gauss2d):
        # A (d, 1) gradient broadcasts the momenta to (d, d); the leg refuses the result.
        model = TargetModel(dim=2, potential=gauss2d.potential,
                            gradient=lambda x: gauss2d.gradient(x)[:, None])
        with pytest.raises(ValueError, match="shape"):
            verlet_leg(model, LegSpec(0.1, 3), PhaseState([0.5, 0.5], [1.0, -1.0]))
        config = SamplerConfig(leg=LegSpec(0.1, 3), psi=1.0, seed=1)
        with pytest.raises(ValueError, match="shape"):
            run_chain(model, config, PhaseState([0.5, 0.5], [1.0, -1.0]),
                      Budget(transitions=2))


class TestCallerRngDraws:
    """Draws from the caller's rng are outside input: bad ones raise, as before."""

    @pytest.mark.parametrize("jitter", [-1.0, -2.0, math.nan, math.inf])
    def test_jitter_giving_a_bad_step_size_raises(self, gauss2d, jitter):
        config = SamplerConfig(leg=LegSpec(0.1, 3), psi=1.0, jitter_fraction=0.1)
        with pytest.raises(ValueError, match="step size"):
            extra_chance_step(gauss2d, config, PhaseState([0.5, 0.5], [1.0, -1.0]),
                              ScriptedRng(uniforms=[0.5], jitters=[jitter]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_refresh_noise_raises(self, gauss2d, bad):
        config = SamplerConfig(leg=LegSpec(0.1, 3), psi=1.0)
        rng = ScriptedRng(normals=[0.3, bad], uniforms=[0.5])
        with pytest.raises(ValueError, match="noise"):
            run_chain(gauss2d, config, PhaseState([0.5, 0.5], [1.0, -1.0]),
                      Budget(transitions=1), rng=rng)


def walled(dim=1):
    """Free particle with a wall: density zero (infinite potential) wherever x0 > 1."""
    return TargetModel(dim=dim, potential=lambda x: math.inf if x[0] > 1.0 else 0.0,
                       gradient=lambda x: np.zeros_like(x))


class TestInfiniteStartEnergy:
    # From x = 2 with y = -1, each leg of two steps of 0.25 moves x by -0.5:
    # candidate 1 lands at 1.5 (density zero), candidate 2 at 1.0 (positive).

    def test_first_positive_candidate_accepted(self):
        model = walled()
        config = SamplerConfig(leg=LegSpec(0.25, 2), psi=math.pi / 2, extra_chances=3)
        z = PhaseState([2.0], [-1.0])
        out = extra_chance_step(model, config, z, ScriptedRng(uniforms=[0.999]))
        assert out.slot == 2
        assert out.candidates_computed == 2
        assert out.force_evals == 5
        assert np.array_equal(out.next_state.x, [1.0])

    def test_slot_distribution_and_lookahead(self):
        model = walled()
        leg = LegSpec(0.25, 2)
        z = PhaseState([2.0], [-1.0])
        sd = sigma_sequence(model, leg, z, 3)
        assert np.array_equal(sd.sigma, [0.0, 1.0, 1.0, 1.0])
        assert np.array_equal(sd.p, [0.0, 1.0, 0.0, 0.0, 0.0])
        _, cum = lahmc_probabilities(model, leg, z, 3)
        assert np.max(np.abs(cum - sd.sigma)) <= 1e-12

    def test_no_positive_candidate_flips(self):
        model = walled()
        config = SamplerConfig(leg=LegSpec(0.25, 2), psi=math.pi / 2, extra_chances=2)
        z = PhaseState([5.0], [-1.0])  # three legs reach x = 3.5, still behind the wall
        out = extra_chance_step(model, config, z, ScriptedRng(uniforms=[0.0]))
        assert out.slot == 4
        assert out.candidates_computed == 3
        assert out.force_evals == 7
        assert np.array_equal(out.next_state.y, [1.0])

    def test_chain_from_behind_the_wall(self):
        model = walled(2)
        config = SamplerConfig(leg=LegSpec(0.3, 3), psi=math.asin(0.6), extra_chances=2,
                               jitter_fraction=0.1, seed=4)
        z0 = PhaseState([2.5, 0.0], [-1.0, 0.5])
        rec = run_chain(model, config, z0, Budget(transitions=100), rng=chain_rng(4, 0))
        assert_same_chain(rec, ref_chain(model, config, z0, 100, chain_rng(4, 0)))
        # The chain leaves the wall region and never re-enters it.
        outside = rec.positions[:, 0] <= 1.0
        assert outside.any()
        assert outside[np.argmax(outside):].all()


class TestMassThroughChain:
    @pytest.mark.parametrize("mass,m", [
        (MassMatrix.diagonal([0.5, 3.0]), np.diag([0.5, 3.0])),
        (MassMatrix.dense([[2.0, 0.8], [0.8, 1.0]]), np.array([[2.0, 0.8], [0.8, 1.0]])),
    ])
    def test_stationary_moments(self, mass, m):
        # Positions keep the target's variances and momenta are N(0, M).
        var = np.array([1.0, 4.0])
        model = builtin_target("gaussian", 2, variances=var, mass=mass)
        config = SamplerConfig(leg=LegSpec(0.3, 4), psi=math.pi / 2, extra_chances=2,
                               jitter_fraction=0.1, seed=21)
        rng = chain_rng(21, 0)
        z0 = PhaseState(rng.standard_normal(2) * np.sqrt(var),
                        mass.sqrt_apply(rng.standard_normal(2)))
        rec = run_chain(model, config, z0, Budget(transitions=20_000), rng=rng)
        assert np.allclose(np.var(rec.positions, axis=0), var, rtol=0.1)
        assert np.allclose(np.cov(rec.momenta.T), m, atol=0.1 * np.abs(m).max())
