"""Extra-chance generalized hybrid Monte Carlo.

The outer chain alternates a partial momentum refresh with a delayed-rejection
dynamics map: on rejection of the first integration leg, up to
``extra_chances`` further legs are offered to the same acceptance draw before
falling back to a momentum flip.  ``extra_chances = 0`` is plain generalized
HMC; additionally taking ``psi = pi/2`` (full refresh) gives plain HMC.

Randomness contract: each transition consumes, in order, ``dim`` standard
normals (refresh noise), one uniform (acceptance draw ``u``), one jitter
perturbation.  The jitter is drawn once per transition and shared by all
extra-chance legs of that transition, so the composed leg map stays reversible.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from xchmc.integrator import DivergedLeg, LegSpec, verlet_leg
from xchmc.phase import (PhaseState, TargetModel, _check_dim, _integer, _log_rho, _orbit_start,
                         _unchecked, _with_momentum, flip)
from xchmc.phase import log_rho  # noqa: F401  (perfbench/tracing.py rebinds sampler.log_rho)
from xchmc.rng import chain_rng

__all__ = [
    "SamplerConfig",
    "SlotDistribution",
    "TransitionOutcome",
    "Budget",
    "ChainRecord",
    "refresh_momentum",
    "slot_distribution",
    "sigma_sequence",
    "extra_chance_step",
    "run_chain",
    "lahmc_probabilities",
    "lahmc_from_log_ratios",
    "palindromic_refresh_angle",
    "run_palindromic_chain",
    "couple_noise",
]

_HALF_PI = math.pi / 2.0


def _cos_sin(angle: float) -> tuple[float, float]:
    # Exact coefficients at the full-refresh endpoint, so the old momentum
    # drops out bit for bit instead of surviving at the 1e-16 level.
    if angle == _HALF_PI:
        return 0.0, 1.0
    return math.cos(angle), math.sin(angle)


def _check_psi(psi: float) -> None:
    if not (0.0 < psi <= _HALF_PI):
        raise ValueError("psi must lie in (0, pi/2]")


@dataclass(frozen=True)
class SamplerConfig:
    """Static parameters of one chain."""

    leg: LegSpec
    psi: float
    extra_chances: int = 0
    jitter_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_psi(self.psi)
        object.__setattr__(self, "extra_chances", _integer("extra_chances", self.extra_chances, 0))
        if not (0.0 <= self.jitter_fraction < 1.0):
            raise ValueError("jitter_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class SlotDistribution:
    """Running acceptance thresholds and the induced outcome probabilities.

    ``sigma[k-1]`` is the cumulative acceptance threshold after k candidate
    legs; ``p[k-1]`` is the probability of landing in acceptance slot k, with
    the final entry the momentum-flip probability.  ``log_sigma`` carries the
    thresholds in log space, which is what the transition actually compares
    against (guards against underflow in high dimension).
    """

    sigma: np.ndarray
    p: np.ndarray
    log_sigma: np.ndarray


def slot_distribution(log_ratios) -> SlotDistribution:
    """Build the acceptance-slot partition from forward log density ratios.

    ``log_ratios[j]`` is log rho(I^(j+1) z) - log rho(z) for candidate j+1.
    The threshold after k candidates is the capped running maximum
    max_(j<=k) min(1, ratio_j); slot probabilities are its increments, and
    whatever is left above the last threshold is the flip probability.
    """
    lr = np.atleast_1d(np.asarray(log_ratios, dtype=float))
    if lr.ndim != 1 or lr.size == 0:
        raise ValueError("log_ratios must be a non-empty vector")
    thresholds = []
    running = -math.inf
    for delta in lr.tolist():
        if math.isnan(delta):
            delta = -math.inf  # 0/0 density ratio: such a candidate is never accepted
        running = max(running, min(0.0, delta))
        thresholds.append(running)
    log_sigma = np.array(thresholds)
    sigma = np.exp(log_sigma)
    s = sigma.tolist()
    # The increments as Python floats: the same subtractions as on the array.
    p = np.array([s[0], *[b - a for a, b in zip(s, s[1:])], 1.0 - s[-1]])
    return _unchecked(SlotDistribution, sigma=sigma, p=p, log_sigma=log_sigma)


def _log_ratio(log_k: float, log_ref: float) -> float:
    """log rho(I^k z) - log rho(z); when rho(z) is zero, +inf for a candidate of
    positive density and -inf otherwise."""
    if log_ref == -math.inf:
        return math.inf if log_k > -math.inf else -math.inf
    return log_k - log_ref


def _candidate_orbit(model: TargetModel, leg: LegSpec, z: PhaseState, count: int):
    """Integrate the candidate orbit I z, I^2 z, ... lazily, one leg per item.

    Yields ``(state, log_ratio, force_evals)`` for candidates 1..count, where
    ``log_ratio`` is :func:`_log_ratio` of the candidate.  A diverged leg
    yields ``(None, -inf, its partial force evaluations)`` and ends the orbit:
    the later candidates are not integrated and have density zero.

    ``z`` is a state the kernel built (``phase._orbit_start``).  It and every
    yielded state keep their potential, so the potential is called once per
    integrated candidate, and their gradient (see
    :func:`~xchmc.integrator.verlet_leg`).  The
    caller holds ``np.errstate(over="ignore", invalid="ignore")`` over the
    whole iteration: a guard entered here would stay open while a consumer
    that stops early leaves the generator suspended.
    """
    log_ref = _log_rho(model, z)
    current = z
    for _ in range(count):
        try:
            current, evals = verlet_leg(model, leg, current)
        except DivergedLeg as err:
            yield None, -math.inf, err.force_evals
            return
        yield current, _log_ratio(_log_rho(model, current), log_ref), evals


@np.errstate(over="ignore", invalid="ignore")
def _forward_log_ratios(model: TargetModel, leg: LegSpec, z: PhaseState,
                        extra_chances: int) -> np.ndarray:
    """log rho(I^j z) - log rho(z), j = 1..extra_chances + 1; -inf from a diverged leg on."""
    count = _integer("extra_chances", extra_chances, 0) + 1
    out = np.full(count, -math.inf)
    for j, (_, log_ratio, _) in enumerate(
            _candidate_orbit(model, leg, _orbit_start(model, z), count)):
        out[j] = log_ratio
    return out


def sigma_sequence(model: TargetModel, leg: LegSpec, z: PhaseState,
                   extra_chances: int) -> SlotDistribution:
    """Eager analysis of one transition: integrates all extra_chances + 1 legs.

    Unlike :func:`extra_chance_step`, which stops at the accepting candidate,
    this always computes the full slot distribution, at the cost of the full
    orbit.  Diverged candidates contribute density zero.
    """
    return slot_distribution(_forward_log_ratios(model, leg, z, extra_chances))


def refresh_momentum(model: TargetModel, z: PhaseState, psi: float, rng) -> PhaseState:
    """Partial momentum refresh (x, y) -> (x, cos(psi) y + sin(psi) zeta), zeta ~ N(0, M).

    psi = pi/2 replaces the momentum completely.  The position block is passed
    through untouched.  The noise comes from the caller's ``rng`` and must be
    finite.
    """
    _check_psi(psi)
    _check_dim(model, z)
    noise = np.asarray(rng.standard_normal(z.x.shape[0]), dtype=float)
    # phase._all_finite's test, but outside the leg's np.errstate: np.vdot, unlike
    # ndarray.dot, does not warn when huge finite noise overflows the sum of squares.
    if not (math.isfinite(np.vdot(noise, noise)) or np.isfinite(noise).all()):
        raise ValueError("refresh noise must be finite")
    noise = model.mass._sqrt_mul(noise)
    c, s = _cos_sin(psi)
    return _with_momentum(z, c * z.y + s * noise)


@dataclass(frozen=True)
class TransitionOutcome:
    """Result of one application of the delayed-rejection dynamics map.

    ``candidates_computed`` is ``slot`` on acceptance and ``extra_chances + 1``
    on a flip.  After a diverged leg it also counts the later candidates, as
    density-zero candidates, although no leg was integrated for them, so it
    can exceed the number of legs run.  ``force_evals`` is always the exact
    number of gradient evaluations.
    """

    next_state: PhaseState
    slot: int                 # 1..extra_chances+1 = accepted candidate, extra_chances+2 = flip
    candidates_computed: int
    force_evals: int
    u: float
    dt: float                 # jittered step size shared by every leg of this transition


def _acceptance_and_jitter_draws(rng, fraction: float) -> tuple[float, float]:
    """The acceptance draw ``uniform()`` and the jitter ``uniform(-fraction, fraction)``.

    ``Generator.uniform(low, high)`` is ``low + (high - low) * random()``, so
    for a ``numpy.random.Generator`` the same stream gives the same bits
    through the cheaper ``random(2)``, whose two doubles are those of two
    ``random()`` calls.  Any other rng is asked for ``uniform``.
    """
    if type(rng) is np.random.Generator:
        u, r = rng.random(2).tolist()
        return u, -fraction + (fraction - -fraction) * r
    return float(rng.uniform()), float(rng.uniform(-fraction, fraction))


@np.errstate(over="ignore", invalid="ignore")
def extra_chance_step(model: TargetModel, config: SamplerConfig, z: PhaseState,
                      rng) -> TransitionOutcome:
    """Apply the delayed-rejection dynamics map to ``z``.

    A single acceptance draw ``u`` is shared by all candidates: candidate legs
    are integrated lazily until the running threshold reaches ``u`` (inclusive
    comparison, done in log space), and the momentum flip of the input is
    returned if none of the ``extra_chances + 1`` candidates does.  Diverged
    candidates count as density zero and are never accepted.

    The returned state carries its potential and gradient, so a chain
    evaluates the potential once per integrated candidate, and the gradient
    ``steps`` times per integrated leg.  The potential of ``z`` itself is
    evaluated only when ``z`` does not carry it for ``model.potential``, and
    its gradient, once more, only when ``z`` does not carry it for
    ``model.gradient``; a flip carries both.  The whole transition runs under
    ``np.errstate(over="ignore", invalid="ignore")``.
    """
    u, jitter = _acceptance_and_jitter_draws(rng, config.jitter_fraction)
    # SamplerConfig has checked the base step, the jitter fraction and the step
    # count; the draw comes from the caller's rng, so the step size is checked.
    dt = config.leg.dt * (1.0 + jitter)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"jittered step size {dt!r} is not positive and finite")
    leg = _unchecked(LegSpec, dt=dt, steps=config.leg.steps)
    log_u = math.log(u) if u > 0.0 else -math.inf
    chances = config.extra_chances + 1
    log_running = -math.inf
    evals = 0
    z = _orbit_start(model, z)
    for k, (state, log_ratio, n) in enumerate(_candidate_orbit(model, leg, z, chances), 1):
        evals += n
        log_running = max(log_running, min(0.0, log_ratio))
        if log_ratio > -math.inf and log_u <= log_running:
            return _unchecked(TransitionOutcome, next_state=state, slot=k,
                              candidates_computed=k, force_evals=evals, u=u, dt=dt)
    # Every candidate was rejected, or a leg diverged and the candidates from
    # it on count as density zero: either way all of them count as computed.
    return _unchecked(TransitionOutcome, next_state=flip(z), slot=chances + 1,
                      candidates_computed=chances, force_evals=evals, u=u, dt=dt)


@dataclass(frozen=True)
class Budget:
    """Chain length control: exactly one of ``transitions`` or ``force_evals``.

    ``burn_in`` transitions are run and discarded first; they do not count
    against the force-evaluation cap.  A force-evaluation budget stops the
    chain at the first transition whose completion meets or exceeds the cap.
    """

    transitions: int | None = None
    force_evals: int | None = None
    burn_in: int = 0

    def __post_init__(self) -> None:
        if (self.transitions is None) == (self.force_evals is None):
            raise ValueError("set exactly one of transitions and force_evals")
        for name in ("transitions", "force_evals", "burn_in"):
            v = getattr(self, name)
            if v is not None or name == "burn_in":
                object.__setattr__(self, name, _integer(name, v, 0))


@dataclass(frozen=True)
class ChainRecord:
    """Recorded trajectory plus per-transition metadata.

    ``positions``/``momenta`` have ``transitions + 1`` rows; row 0 is the
    state the production run started from (after any burn-in).
    ``candidates`` holds each transition's ``candidates_computed``: after a
    diverged leg it includes the later, never integrated, density-zero
    candidates.
    """

    positions: np.ndarray
    momenta: np.ndarray
    slots: np.ndarray
    candidates: np.ndarray
    force_evals: np.ndarray
    dt_used: np.ndarray
    extra_chances: int
    burn_in: int

    @property
    def transitions(self) -> int:
        return self.slots.size

    @property
    def total_force_evals(self) -> int:
        return int(self.force_evals.sum())


def _drive(model: TargetModel, transition, z0: PhaseState, budget: Budget,
           extra_chances: int) -> ChainRecord:
    """Run ``transition`` (a state to its :class:`TransitionOutcome`) from ``z0``.

    The ``budget.burn_in`` transitions are discarded.  The recorded chain then
    runs until it has made ``budget.transitions`` transitions or, under a
    force-evaluation budget, until the evaluations spent meet or exceed it.

    Each recorded state and outcome is appended to flat ``array`` buffers, new
    for every call, and the record's arrays are views of exactly the rows
    written: a recorded transition costs its ``2 d + 4`` numbers and no
    per-transition object.
    """
    _check_dim(model, z0)
    z = z0
    for _ in range(budget.burn_in):
        z = transition(z).next_state
    max_transitions = math.inf if budget.transitions is None else budget.transitions
    max_evals = math.inf if budget.force_evals is None else budget.force_evals
    xs, ys = array("d", z.x.tobytes()), array("d", z.y.tobytes())
    slots, candidates, evals, dts = array("q"), array("q"), array("q"), array("d")
    spent = 0
    while len(slots) < max_transitions and spent < max_evals:
        out = transition(z)
        z = out.next_state
        xs.frombytes(z.x.tobytes())
        ys.frombytes(z.y.tobytes())
        slots.append(out.slot)
        candidates.append(out.candidates_computed)
        evals.append(out.force_evals)
        dts.append(out.dt)
        spent += out.force_evals
    # An exact shape: a state of another size is an error here, not a shifted row.
    rows = (len(slots) + 1, z0.x.shape[0])
    return ChainRecord(
        positions=np.frombuffer(xs, dtype=np.float64).reshape(rows),
        momenta=np.frombuffer(ys, dtype=np.float64).reshape(rows),
        slots=np.frombuffer(slots, dtype=np.int64),
        candidates=np.frombuffer(candidates, dtype=np.int64),
        force_evals=np.frombuffer(evals, dtype=np.int64),
        dt_used=np.frombuffer(dts, dtype=np.float64),
        extra_chances=extra_chances,
        burn_in=budget.burn_in,
    )


def run_chain(model: TargetModel, config: SamplerConfig, z0: PhaseState, budget: Budget,
              rng=None, chain_index: int = 0) -> ChainRecord:
    """Run one chain: alternate momentum refresh and the delayed-rejection map.

    With no explicit ``rng`` the stream is ``chain_rng(config.seed,
    chain_index)``, making records bit-identical across runs with the same
    seed and configuration.

    Each integrated leg costs ``config.leg.steps`` gradient evaluations, and a
    diverged one its partial count.  The first leg from ``z0`` costs one
    more, since a caller's state carries no gradient; a flip back to ``z0``
    carries the gradient that leg evaluated.
    """
    if rng is None:
        rng = chain_rng(config.seed, chain_index)

    def transition(z: PhaseState) -> TransitionOutcome:
        zbar = refresh_momentum(model, z, config.psi, rng)
        return extra_chance_step(model, config, zbar, rng)

    return _drive(model, transition, z0, budget, config.extra_chances)


# ---------------------------------------------------------------------------
# Look-ahead cross-check
# ---------------------------------------------------------------------------

def lahmc_from_log_ratios(log_ratios) -> tuple[np.ndarray, np.ndarray]:
    """Look-ahead transition probabilities computed from forward log ratios.

    The look-ahead scheme assigns candidate k the probability

        pi_k(z) = min(1 - sum_(j<k) pi_j(z),
                      (rho(F I^k z) / rho(z)) (1 - sum_(j<k) pi_j(F I^k z)))

    and recurses over phase points of the form F^a I^m z, using only that the
    leg map is reversible (I^-1 = F I F) and that rho is flip-invariant, so
    every density it touches reduces to one of the forward values rho(I^m z).
    This is an independent route to the slot probabilities: its cumulative
    sums must reproduce ``sigma`` from :func:`slot_distribution`.

    The recursion is evaluated as a table, in order of k.  Each orbit point
    the recursion reaches has a row holding its running sum_(j<k) pi_j, added
    left to right, and level k computes the k-th entry of every such row from
    the sums of levels 1..k-1.  So every entry is the same float the literal
    recursion computes.

    A ratio of +inf means that rho(z) is zero (see :func:`_candidate_orbit`).
    The ratios then hold no density ratio between orbit points of positive
    density, and none is needed: the first candidate of positive density gets
    probability one, the others zero.

    Returns ``(pi, cumulative)`` for candidates 1..len(log_ratios).
    """
    lr = np.atleast_1d(np.asarray(log_ratios, dtype=float))
    if lr.ndim != 1 or lr.size == 0:
        raise ValueError("log_ratios must be a non-empty vector")
    kmax = lr.size
    # Log density at orbit points I^m z relative to rho(z), m = 0..kmax.
    fwd = [0.0] + [-math.inf if math.isnan(v) else v for v in lr.tolist()]
    if math.inf in fwd:
        probs = np.zeros(kmax)
        probs[next(m for m in range(kmax) if fwd[m + 1] > -math.inf)] = 1.0
        return probs, np.cumsum(probs)
    n = kmax + 1
    # Row m is I^m z and row n + m is F I^m z: sum_(j<k) pi_j of that point.
    done = [0.0] * (2 * n)
    probs = []
    for k in range(1, kmax + 1):
        # The rows the recursion reaches at level k: z, then I^m z with
        # 0 < m < kmax - k, then F I^m z with m > k.
        rows = [0, *range(1, kmax - k), *range(n + k + 1, 2 * n)]
        level = []
        for row in rows:
            flipped = row >= n
            m = row - n if flipped else row
            # The target F I^k w of w = F^flipped I^m z, reduced to the forward orbit.
            tm = m - k if flipped else m + k
            if not 0 <= tm <= kmax:
                raise RuntimeError("orbit index out of range; inconsistent recursion")
            rem_w = max(0.0, 1.0 - done[row])
            rem_t = max(0.0, 1.0 - done[tm if flipped else n + tm])
            log_num = fwd[tm]
            log_den = fwd[m]
            if rem_t == 0.0 or log_num == -math.inf:
                second = 0.0
            elif log_den == -math.inf:
                second = math.inf
            else:
                second = math.exp(min(700.0, log_num - log_den)) * rem_t
            level.append(min(rem_w, second))
        for row, val in zip(rows, level):
            done[row] += val
        probs.append(level[0])
    probs = np.array(probs)
    return probs, np.cumsum(probs)


def lahmc_probabilities(model: TargetModel, leg: LegSpec, z: PhaseState,
                        extra_chances: int) -> tuple[np.ndarray, np.ndarray]:
    """Look-ahead probabilities for the orbit of ``z``; see :func:`lahmc_from_log_ratios`."""
    return lahmc_from_log_ratios(_forward_log_ratios(model, leg, z, extra_chances))


# ---------------------------------------------------------------------------
# Palindromic (refresh, dynamics, refresh) formulation
# ---------------------------------------------------------------------------

def palindromic_refresh_angle(psi: float) -> float:
    """Half-step refresh angle: the PSI in (0, pi/2] with cos(PSI)^2 = cos(psi)."""
    _check_psi(psi)
    if psi == _HALF_PI:
        return _HALF_PI
    return math.acos(math.sqrt(math.cos(psi)))


def run_palindromic_chain(model: TargetModel, config: SamplerConfig, z0: PhaseState,
                          transitions: int, rng=None, chain_index: int = 0) -> ChainRecord:
    """Run the symmetric refresh/dynamics/refresh chain.

    Each transition refreshes with the half-step angle, applies the
    delayed-rejection map, and refreshes again, consuming per transition:
    ``dim`` normals, one uniform, one jitter draw, ``dim`` normals.  Shares
    every invariant with :func:`run_chain`; the two chains visit identically
    distributed position marginals.
    """
    budget = Budget(transitions=transitions)
    if rng is None:
        rng = chain_rng(config.seed, chain_index)
    half = palindromic_refresh_angle(config.psi)

    def transition(z: PhaseState) -> TransitionOutcome:
        out = extra_chance_step(model, config, refresh_momentum(model, z, half, rng), rng)
        return replace(out, next_state=refresh_momentum(model, out.next_state, half, rng))

    return _drive(model, transition, z0, budget, config.extra_chances)


def couple_noise(psi: float, initial_momentum, pre_refresh_noise, post_refresh_noise
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Map a palindromic chain's noise realization onto the single-refresh chain.

    Given the palindromic chain's initial momentum and its two refresh-noise
    streams (``pre_refresh_noise[n]`` before, ``post_refresh_noise[n]`` after
    the dynamics of transition n), returns ``(y0, zeta_stream)`` such that the
    single-refresh chain started from the same position with momentum ``y0``,
    refresh noise ``zeta_stream`` and the same acceptance draws (no jitter)
    visits exactly the same positions.  The construction is the orthogonal
    rotation

        y0     = cos(psi - PSI) Y0 - sin(psi - PSI) pre_1
        zeta_1 = sin(psi - PSI) Y0 + cos(psi - PSI) pre_1
        zeta_(n+1) = (cos(PSI) sin(PSI) post_n + sin(PSI) pre_(n+1)) / sin(psi)

    with PSI the half-step angle, so i.i.d. N(0, M) streams map to i.i.d.
    N(0, M) streams.
    """
    half = palindromic_refresh_angle(psi)
    y_init = np.atleast_1d(np.asarray(initial_momentum, dtype=float))
    pre = np.atleast_2d(np.asarray(pre_refresh_noise, dtype=float))
    post = np.atleast_2d(np.asarray(post_refresh_noise, dtype=float))
    n_trans = pre.shape[0]
    if n_trans == 0:
        raise ValueError("need at least one pre-refresh noise vector")
    if post.shape[0] < n_trans - 1:
        raise ValueError("post-refresh noise stream too short")
    delta = psi - half
    c_delta, s_delta = (1.0, 0.0) if delta == 0.0 else (math.cos(delta), math.sin(delta))
    ch, sh = _cos_sin(half)
    _, s_psi = _cos_sin(psi)
    y0 = c_delta * y_init - s_delta * pre[0]
    zetas = np.empty_like(pre)
    zetas[0] = s_delta * y_init + c_delta * pre[0]
    for n in range(1, n_trans):
        zetas[n] = (ch * sh * post[n - 1] + sh * pre[n]) / s_psi
    return y0, zetas
