"""Chain diagnostics: effective sample size, slot statistics, identity checks."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from xchmc.integrator import LegSpec, verlet_leg
from xchmc.phase import (PhaseState, TargetModel, _integer, _log_rho, _orbit_start, _real,
                         _real_array, flip)
from xchmc.phase import log_rho  # noqa: F401  (perfbench/tracing.py rebinds diagnostics.log_rho)
from xchmc.sampler import ChainRecord, _log_ratio, sigma_sequence, slot_distribution

__all__ = [
    "ZeroVarianceError",
    "ess_initial_monotone",
    "SlotStats",
    "slot_stats",
    "check_main_identity",
    "Observable",
    "coordinate",
    "squared_radius",
    "interval_indicator",
    "make_observable",
    "AverageEstimate",
    "series_average",
    "estimate_average",
]


class ZeroVarianceError(ValueError):
    """The series is constant, so autocorrelation-based quantities are undefined."""


def ess_initial_monotone(series) -> float:
    """Effective sample size by the initial monotone sequence estimator.

    Empirical autocovariances gamma_t (mean-centered, divisor n) are grouped
    into pair sums gamma_(2m) + gamma_(2m+1); the sequence is truncated before
    its first non-positive entry and forced non-increasing, yielding the
    asymptotic variance estimate -gamma_0 + 2 * sum of pair sums.  The result
    is clamped to (0, n].  A non-positive variance estimate (possible on
    pathological series) falls back to n with a RuntimeWarning.
    """
    s = _real_array("series", series)
    n = s.size
    if n < 10:
        raise ValueError("need at least 10 points to estimate an ESS")
    centered = s - s.mean()
    gamma0 = float(centered @ centered) / n
    if gamma0 <= 0.0:
        raise ZeroVarianceError("series has zero variance; ESS undefined")

    def gamma(t: int) -> float:
        return float(centered[: n - t] @ centered[t:]) / n

    pair_sums: list[float] = []
    m = 0
    while 2 * m + 1 <= n - 1:
        val = (gamma0 if m == 0 else gamma(2 * m)) + gamma(2 * m + 1)
        if val <= 0.0:
            break
        if pair_sums and val > pair_sums[-1]:
            val = pair_sums[-1]
        pair_sums.append(val)
        m += 1
    var_asym = -gamma0 + 2.0 * math.fsum(pair_sums)
    if var_asym <= 0.0:
        warnings.warn("non-positive asymptotic variance estimate; reporting the chain length",
                      RuntimeWarning, stacklevel=2)
        return float(n)
    return float(min(float(n), n * gamma0 / var_asym))


@dataclass(frozen=True)
class SlotStats:
    """Empirical outcome frequencies of a chain.

    ``acceptance_fractions[k]`` is the fraction of transitions accepted at
    candidate k+1; ``flip_fraction`` is the rest.
    """

    counts: np.ndarray
    acceptance_fractions: np.ndarray
    flip_fraction: float
    transitions: int

    @property
    def total_acceptance(self) -> float:
        return float(self.acceptance_fractions.sum())


def slot_stats(record: ChainRecord) -> SlotStats:
    """Tally the acceptance slots of a chain record."""
    n = record.transitions
    if n == 0:
        raise ValueError("record contains no transitions")
    n_slots = record.extra_chances + 2
    counts = np.bincount(record.slots, minlength=n_slots + 1)[1:]
    fractions = counts / n
    return SlotStats(
        counts=counts,
        acceptance_fractions=fractions[:-1],
        flip_fraction=float(fractions[-1]),
        transitions=n,
    )


def check_main_identity(model: TargetModel, leg: LegSpec, z: PhaseState, k: int) -> float:
    """Relative discrepancy in the stationarity identity for acceptance slot k.

    The flow-weighted slot probability rho(z) p_k(z) must equal its value at
    the flipped end of the k-leg orbit, rho(F I^k z) p_k(F I^k z).  One lazy
    orbit of z, k legs long, supplies the log density ratios that give
    p_k(z), the mirror point F I^k z and its density (rho is flip-invariant).
    The right side comes from a separate slot-distribution computation
    started at the mirror, which integrates an orbit of its own: comparing
    the two orbits is the check.  A shared reference energy cancels the
    unknown normalizer.  Returns |left - right| / max(|left|, |right|), and 0
    when both sides vanish.  A diverged leg of the orbit of z raises
    DivergedLeg so the caller can skip the point explicitly.

    The orbit of z carries each potential it evaluates (``phase._orbit_start``)
    under one ``np.errstate`` guard, and the mirror hands its potential and
    gradient on to the mirror's own orbit, so each distinct position costs one
    potential call and one gradient call.
    """
    k = _integer("k", k, 1)
    log_ratios = np.empty(k)
    with np.errstate(over="ignore", invalid="ignore"):
        current = _orbit_start(model, z)
        log_here = _log_rho(model, current)
        for j in range(k):
            current, _ = verlet_leg(model, leg, current)
            log_there = _log_rho(model, current)
            log_ratios[j] = _log_ratio(log_there, log_here)
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


@dataclass(frozen=True)
class Observable:
    """A scalar function of the position, used for averages and ESS.

    ``column``, when set, gives ``[fn(x) for x in positions]`` for a whole
    positions matrix at once, bit for bit.
    """

    name: str
    fn: Callable[[np.ndarray], float]
    column: Callable[[np.ndarray], np.ndarray] | None = None


def coordinate(index: int) -> Observable:
    index = _integer("index", index, 0)
    return Observable(f"x{index}", lambda x: float(x[index]),
                      lambda positions: positions[:, index])


def squared_radius() -> Observable:
    # No column: a row-wise sum of squares need not round as x.dot(x) does.
    return Observable("r2", lambda x: float(x.dot(x)))


def interval_indicator(index: int, lo: float, hi: float) -> Observable:
    index = _integer("index", index, 0)
    # As floats, so that both forms compare the same numbers.
    lo, hi = _real("lo", lo), _real("hi", hi)
    if not lo < hi:
        raise ValueError("need lo < hi")

    def column(positions: np.ndarray) -> np.ndarray:
        values = positions[:, index]
        return ((lo <= values) & (values <= hi)).astype(float)

    return Observable(
        f"ind_x{index}_{lo:g}_{hi:g}",
        lambda x: 1.0 if lo <= float(x[index]) <= hi else 0.0,
        column,
    )


def make_observable(spec) -> Observable:
    """Build an observable from its serialized form, the one a spec file holds.

    ``"x<i>"`` is coordinate i, ``"r2"`` the squared radius, and
    ``{"kind": "indicator", "index": i, "lo": a, "hi": b}`` the indicator of
    ``a <= x_i <= b``.  The index must be a non-negative integer (an integral
    float passes; a bool does not), and ``lo`` and ``hi`` finite real numbers
    (not strings or bools), as :func:`interval_indicator` checks.  Any other
    value, an :class:`Observable` included, is an error.
    """
    if isinstance(spec, str):
        if spec == "r2":
            return squared_radius()
        if spec.startswith("x") and spec[1:].isdigit():
            return coordinate(int(spec[1:]))
        raise ValueError(f"unknown observable {spec!r}; use 'x<i>' or 'r2'")
    if isinstance(spec, dict):
        unknown = set(spec) - {"kind", "index", "lo", "hi"}
        if unknown:
            raise ValueError(f"unknown observable keys: {sorted(unknown)}")
        if spec.get("kind") != "indicator":
            raise ValueError(f"unknown observable kind {spec.get('kind')!r}")
        return interval_indicator(spec["index"], spec["lo"], spec["hi"])
    raise ValueError(f"cannot interpret observable spec of type {type(spec).__name__}")


class AverageEstimate(NamedTuple):
    mean: float
    ess: float
    stderr: float


def series_average(values) -> AverageEstimate:
    """Mean of a series with its ESS and ESS-adjusted standard error.

    The standard error is sample std * sqrt(1 / ESS).  For a zero-variance
    series ESS and standard error are NaN.
    """
    values = _real_array("values", values)
    try:
        ess = ess_initial_monotone(values)
    except ZeroVarianceError:
        return AverageEstimate(float(values.mean()), math.nan, math.nan)
    return AverageEstimate(float(values.mean()), ess,
                           float(values.std(ddof=1) * math.sqrt(1.0 / ess)))


def estimate_average(record: ChainRecord, observable: Observable) -> AverageEstimate:
    """:func:`series_average` of an observable; a RuntimeWarning marks an undefined ESS.

    An observable with a ``column`` is evaluated on all positions at once, as a
    contiguous copy, so the series and its sums are those of the row path.
    """
    if observable.column is None:
        values = [observable.fn(x) for x in record.positions]
    else:
        values = np.ascontiguousarray(observable.column(record.positions), dtype=float)
    estimate = series_average(values)
    if math.isnan(estimate.ess):
        warnings.warn(f"observable {observable.name!r} has zero variance; ESS undefined",
                      RuntimeWarning, stacklevel=2)
    return estimate
