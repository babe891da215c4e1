"""The battery helpers against literal references of the code they replaced.

``lahmc_from_log_ratios`` evaluates the look-ahead recursion as a table, and
``slot_distribution`` builds its thresholds in a Python loop.  Both must give
the floats of the memoized recursion and the per-entry numpy loop below, bit
for bit.  The references add their sums left to right explicitly, because the
built-in ``sum`` compensates its rounding from Python 3.12 on.
``check_main_identity`` carries each potential along its orbit and must equal
the same computation through public calls.  ``check_volume_preservation``
builds its perturbed states unchecked and differences the x and y blocks
apart; it must give the floats, and raise the divergences, of the form that
checked each perturbed state and concatenated each leg's end.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xchmc import (DivergedLeg, LegSpec, PhaseState, check_volume_preservation, flip,
                   lahmc_from_log_ratios, log_rho, sigma_sequence,
                   slot_distribution, verlet_leg)
from xchmc.diagnostics import check_main_identity
from xchmc.verification import _battery_legs


def _left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def reference_slot_distribution(log_ratios):
    """``(sigma, p, log_sigma)`` by the per-entry loop over a numpy vector."""
    lr = np.atleast_1d(np.asarray(log_ratios, dtype=float))
    log_sigma = np.empty(lr.size)
    running = -math.inf
    for j, delta in enumerate(lr):
        if math.isnan(delta):
            delta = -math.inf
        running = max(running, min(0.0, float(delta)))
        log_sigma[j] = running
    sigma = np.exp(log_sigma)
    p = np.empty(lr.size + 1)
    p[0] = sigma[0]
    p[1:-1] = np.diff(sigma)
    p[-1] = 1.0 - sigma[-1]
    return sigma, p, log_sigma


def _memoized_lahmc(log_ratios):
    """``(pi, cumulative)`` by the literal memoized recursion over F^a I^m z."""
    lr = np.atleast_1d(np.asarray(log_ratios, dtype=float))
    kmax = lr.size
    fwd = np.concatenate([[0.0], lr])
    fwd[np.isnan(fwd)] = -math.inf
    if fwd.max() == math.inf:
        probs = np.zeros(kmax)
        probs[np.argmax(fwd[1:] > -math.inf)] = 1.0
        return probs, np.cumsum(probs)
    memo = {}

    def pi(k, m, flipped):
        key = (k, m, flipped)
        if key in memo:
            return memo[key]
        tm = m - k if flipped else m + k
        tflip = not flipped
        assert 0 <= tm <= kmax
        rem_w = max(0.0, 1.0 - _left_to_right(pi(j, m, flipped) for j in range(1, k)))
        rem_t = max(0.0, 1.0 - _left_to_right(pi(j, tm, tflip) for j in range(1, k)))
        log_num = fwd[tm]
        log_den = fwd[m]
        if rem_t == 0.0 or log_num == -math.inf:
            second = 0.0
        elif log_den == -math.inf:
            second = math.inf
        else:
            second = math.exp(min(700.0, log_num - log_den)) * rem_t
        memo[key] = min(rem_w, second)
        return memo[key]

    probs = np.array([pi(k, 0, False) for k in range(1, kmax + 1)])
    return probs, np.cumsum(probs)


_entries = st.one_of(
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-math.inf, math.inf, math.nan, 0.0, -0.0]),
)
_log_ratio_vectors = st.lists(_entries, min_size=1, max_size=8)


def _same_bits(got, want) -> bool:
    return all(np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
               for a, b in zip(got, want, strict=True))


@given(_log_ratio_vectors)
def test_slot_distribution_matches_the_per_entry_loop(log_ratios):
    got = slot_distribution(log_ratios)
    assert _same_bits((got.sigma, got.p, got.log_sigma), reference_slot_distribution(log_ratios))


@given(_log_ratio_vectors)
def test_lookahead_table_matches_the_memoized_recursion(log_ratios):
    assert _same_bits(lahmc_from_log_ratios(log_ratios), reference_lahmc(log_ratios))


def reference_lahmc(log_ratios):
    # The recursion subtracts numpy scalars, which warn when the difference of
    # two huge log ratios overflows to +-inf.
    with np.errstate(over="ignore"):
        return _memoized_lahmc(log_ratios)


@pytest.mark.parametrize("log_ratios", [
    [-0.5], [0.3, -2.0, -0.1, -7.0, -0.01, -3.0, -1.0, -0.2],
    [-math.inf] * 8, [math.nan, -1.0, math.nan], [-math.inf, math.inf, -2.0],
    [-1.0, -1.0 + 1e-15, -1.0 - 1e-15, -0.999999, -1.5, -0.9],
    [-1e308, 1e308, -1e308],
])
def test_fixed_examples_match(log_ratios):
    assert _same_bits(lahmc_from_log_ratios(log_ratios), reference_lahmc(log_ratios))
    got = slot_distribution(log_ratios)
    assert _same_bits((got.sigma, got.p, got.log_sigma), reference_slot_distribution(log_ratios))


def _public_discrepancy(model, leg, z, k):
    """The main-identity discrepancy through public calls only, as computed before."""
    log_here = log_rho(model, z)
    log_ratios = np.empty(k)
    current = z
    for j in range(k):
        current, _ = verlet_leg(model, leg, current)
        log_there = log_rho(model, current)
        if log_here == -math.inf:
            log_ratios[j] = math.inf if log_there > -math.inf else -math.inf
        else:
            log_ratios[j] = log_there - log_here
    p_here = slot_distribution(log_ratios).p[k - 1]
    p_there = sigma_sequence(model, leg, flip(current), k - 1).p[k - 1]
    ref = max(log_here, log_there)
    if ref == -math.inf:
        return 0.0
    left = math.exp(log_here - ref) * p_here
    right = math.exp(log_there - ref) * p_there
    if left == right:
        return 0.0
    return abs(left - right) / max(abs(left), abs(right))


@pytest.mark.parametrize("k,potential_calls", [(1, 3), (2, 5), (4, 9)])
def test_main_identity_evaluates_each_position_once(counting, gauss2d, k, potential_calls):
    # z, its k leg ends (the last one is the mirror's position), the mirror's k leg ends.
    model, calls = counting(gauss2d)
    leg = LegSpec(0.5, 5)
    rng = np.random.default_rng(400 + k)
    nonzero = 0
    for _ in range(20):
        z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
        calls["potential"] = 0
        got = check_main_identity(model, leg, z, k)
        assert calls["potential"] == potential_calls
        assert z._potential is None  # the caller's state is left as it was
        assert _same_bits([got], [_public_discrepancy(gauss2d, leg, z, k)])
        nonzero += got > 0.0
    assert nonzero > 0  # the comparison is not only of zeros


def reference_check_volume_preservation(model, spec, z):
    """|det J - 1| with a checked ``PhaseState`` per perturbed point and a
    concatenation of each leg's end, as before kernel states were unchecked."""
    step = 1e-5
    d = z.dim
    base = np.concatenate([z.x, z.y])

    def advance(w):
        out, _ = verlet_leg(model, spec, PhaseState(w[:d], w[d:]))
        return np.concatenate([out.x, out.y])

    jac = np.empty((2 * d, 2 * d))
    for j in range(2 * d):
        wp = base.copy()
        wp[j] += step
        wm = base.copy()
        wm[j] -= step
        jac[:, j] = (advance(wp) - advance(wm)) / (2.0 * step)
    return abs(float(np.linalg.det(jac)) - 1.0)


_VOLUME_TARGETS = _battery_legs(5)  # the volume battery's targets and legs
_coordinates = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, 0.0]),
)
_states = st.lists(_coordinates, min_size=4, max_size=4)


def _volume_outcome(check, model, leg, z):
    """The check's result as bits, or the step index and count of its divergence."""
    try:
        return np.float64(check(model, leg, z)).tobytes()
    except DivergedLeg as err:
        return err.step_index, err.force_evals


@pytest.mark.parametrize("target", range(len(_VOLUME_TARGETS)))
@given(_states)
@example([1.7e308, -1.7e308, 1.7e308, -1.7e308])  # the first leg diverges
@example([5e-324, -5e-324, 2.2e-308, 0.0])  # subnormals, and every leg completes
def test_volume_check_matches_the_checked_form(target, w):
    model, leg = _VOLUME_TARGETS[target]
    z = PhaseState(w[:2], w[2:])
    with np.errstate(over="ignore", invalid="ignore"):  # det of a huge Jacobian overflows
        want = _volume_outcome(reference_check_volume_preservation, model, leg, z)
        got = _volume_outcome(check_volume_preservation, model, leg, z)
    assert got == want


@pytest.mark.parametrize("target", range(len(_VOLUME_TARGETS)))
def test_volume_examples_cover_both_outcomes(target):
    # The examples above reach a divergence and a complete Jacobian on every target.
    model, leg = _VOLUME_TARGETS[target]
    diverged = _volume_outcome(check_volume_preservation, model, leg,
                               PhaseState([1.7e308, -1.7e308], [1.7e308, -1.7e308]))
    assert isinstance(diverged, tuple)
    complete = _volume_outcome(check_volume_preservation, model, leg,
                               PhaseState([5e-324, -5e-324], [2.2e-308, 0.0]))
    assert isinstance(complete, bytes)
