"""Verification suites: randomized batteries for the sampler's exact identities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from xchmc.diagnostics import check_main_identity
from xchmc.integrator import (DivergedLeg, LegSpec, check_reversibility,
                              check_volume_preservation)
from xchmc.phase import PhaseState, TargetModel, _unchecked, builtin_target
from xchmc.rng import ScriptedRng, chain_rng
from xchmc.sampler import (Budget, SamplerConfig, _forward_log_ratios, couple_noise,
                           lahmc_from_log_ratios, run_chain, run_palindromic_chain,
                           slot_distribution)
# perfbench/tracing.py rebinds these two names in this module.
from xchmc.sampler import lahmc_probabilities, sigma_sequence  # noqa: F401

__all__ = [
    "CheckOutcome",
    "VerificationReport",
    "SUITES",
    "verify",
    "verify_reversibility",
    "verify_volume",
    "verify_main_identity",
    "verify_lahmc_equivalence",
    "verify_palindromic_coupling",
]

DEFAULT_SEED = 20240817


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    worst: float
    tolerance: float
    checks: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (f"[{status}] {self.name}: worst={self.worst:.3e} "
                f"tol={self.tolerance:.1e} checks={self.checks}{extra}")


@dataclass(frozen=True)
class VerificationReport:
    outcomes: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def lines(self) -> list[str]:
        return [o.line() for o in self.outcomes]


def _battery_legs(steps: int) -> list[tuple[TargetModel, LegSpec]]:
    """Targets exercised by every suite, each with a leg of ``steps`` steps of a
    per-target stable step size."""
    return [
        (builtin_target("gaussian", 2, variances=[1.0, 4.0]), LegSpec(dt=0.2, steps=steps)),
        (builtin_target("double_well", 2), LegSpec(dt=0.12, steps=steps)),
        (builtin_target("banana", 2, curvature=0.5), LegSpec(dt=0.15, steps=steps)),
    ]


def _random_state(rng: np.random.Generator, dim: int) -> PhaseState:
    # Normals drawn from a Generator are finite float vectors of length dim.
    return _unchecked(PhaseState, x=rng.standard_normal(dim), y=rng.standard_normal(dim))


def _check_size(name: str, value: int) -> None:
    """A battery of no checks would pass vacuously, so its size must be at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, not {value!r}")


def _battery(name: str, results, tolerance: float, required: int = 1,
             detail: str = "") -> CheckOutcome:
    """The outcome of a battery from the check results that ``results`` yields.

    None marks a point skipped after a diverged orbit.  A non-finite result is
    worse than any finite one, and the battery passes only when its worst
    result is finite and within ``tolerance`` and at least ``required`` points
    were checked, so a check that returns NaN or -inf fails it.
    """
    worst = 0.0
    checks = skipped = 0
    for result in results:
        if result is None:
            skipped += 1
            continue
        checks += 1
        if math.isfinite(worst):
            worst = max(worst, result) if math.isfinite(result) else result
    if skipped:
        detail = f"skipped={skipped}"
    passed = math.isfinite(worst) and worst <= tolerance and checks >= required
    return CheckOutcome(name, passed, worst, tolerance, checks, detail)


def _leg_battery(name: str, check, stream: int, points_per_target: int, seed: int,
                 tolerance: float) -> CheckOutcome:
    """Worst ``check(model, leg, z)`` over 5-step legs and random states z of every target."""
    _check_size("points_per_target", points_per_target)
    rng = chain_rng(seed, stream)
    return _battery(name, (check(model, leg, _random_state(rng, model.dim))
                           for model, leg in _battery_legs(5)
                           for _ in range(points_per_target)), tolerance)


def verify_reversibility(points_per_target: int = 100, seed: int = DEFAULT_SEED,
                         tolerance: float = 1e-10) -> CheckOutcome:
    """Integrate forward, flip, integrate back, flip: must restore the state."""
    return _leg_battery("reversibility", check_reversibility, 1, points_per_target, seed,
                        tolerance)


def verify_volume(points_per_target: int = 100, seed: int = DEFAULT_SEED,
                  tolerance: float = 1e-5) -> CheckOutcome:
    """|det J - 1| of the leg map, via central-difference Jacobians."""
    return _leg_battery("volume_preservation", check_volume_preservation, 2, points_per_target,
                        seed, tolerance)


def verify_main_identity(triples: int = 1000, seed: int = DEFAULT_SEED,
                         tolerance: float = 1e-8) -> CheckOutcome:
    """rho * p_k must agree between each point and the flipped end of its orbit.

    Triples whose orbits diverge five times running are skipped; the battery
    fails unless at least half of them, and at least one, were checked.
    """
    _check_size("triples", triples)
    rng = chain_rng(seed, 3)
    targets = _battery_legs(5)

    def discrepancies():
        for i in range(triples):
            model, leg = targets[i % len(targets)]
            for _ in range(5):  # diverged orbits are skipped explicitly: resample
                try:
                    result = check_main_identity(model, leg, _random_state(rng, model.dim),
                                                 1 + i % 4)
                except DivergedLeg:
                    yield None
                    continue
                yield result
                break

    return _battery("main_identity", discrepancies(), tolerance, max(1, triples // 2))


def _lahmc_gap(model: TargetModel, leg: LegSpec, z: PhaseState, extra_chances: int) -> float:
    """Worst gap between the slot thresholds and the cumulative look-ahead
    probabilities of the orbit of ``z``, both computed from one integration of it."""
    log_ratios = _forward_log_ratios(model, leg, z, extra_chances)
    _, cumulative = lahmc_from_log_ratios(log_ratios)
    return float(np.max(np.abs(slot_distribution(log_ratios).sigma - cumulative)))


def verify_lahmc_equivalence(triples: int = 1000, seed: int = DEFAULT_SEED,
                             tolerance: float = 1e-12) -> CheckOutcome:
    """Cumulative look-ahead probabilities must equal the slot thresholds."""
    _check_size("triples", triples)
    rng = chain_rng(seed, 4)
    targets = _battery_legs(3)
    chance_counts = (1, 2, 3, 5)

    def gaps():
        for i in range(triples):
            model, leg = targets[i % len(targets)]
            yield _lahmc_gap(model, leg, _random_state(rng, model.dim),
                             chance_counts[i % len(chance_counts)])

    return _battery("lahmc_equivalence", gaps(), tolerance)


def _coupling_discrepancy(sin_psi: float, transitions: int, seed: int) -> float:
    """Worst position gap between the palindromic chain and its coupled twin."""
    model = builtin_target("gaussian", 2, variances=[1.0, 2.0])
    psi = math.asin(sin_psi)
    config = SamplerConfig(leg=LegSpec(dt=0.25, steps=5), psi=psi,
                           extra_chances=2, jitter_fraction=0.0)
    rng = chain_rng(seed, 5)
    d = model.dim
    pre = rng.standard_normal((transitions, d))
    post = rng.standard_normal((transitions, d))
    us = rng.uniform(size=transitions)
    x0 = rng.standard_normal(d)
    y_init = rng.standard_normal(d)

    normals_palindromic = np.empty((transitions, 2 * d))
    normals_palindromic[:, :d] = pre
    normals_palindromic[:, d:] = post
    palindromic = run_palindromic_chain(
        model, config, PhaseState(x0, y_init), transitions,
        rng=ScriptedRng(normals=normals_palindromic.ravel(), uniforms=us))

    y0, zetas = couple_noise(psi, y_init, pre, post)
    single = run_chain(
        model, config, PhaseState(x0, y0), Budget(transitions=transitions),
        rng=ScriptedRng(normals=zetas.ravel(), uniforms=us))

    gaps = np.abs(palindromic.positions - single.positions)
    scale = max(1.0, float(np.abs(palindromic.positions).max()))
    return float(gaps.max()) / scale


def verify_palindromic_coupling(transitions: int = 100, seed: int = DEFAULT_SEED,
                                tolerance: float = 1e-12) -> CheckOutcome:
    """The coupled palindromic and single-refresh chains must share positions."""
    _check_size("transitions", transitions)
    return _battery("palindromic_coupling",
                    (_coupling_discrepancy(sin_psi, transitions, seed)
                     for sin_psi in (0.25, 0.5, 1.0)),
                    tolerance, detail=f"{transitions} transitions per angle")


SUITES = {
    "reversibility": verify_reversibility,
    "volume": verify_volume,
    "main_identity": verify_main_identity,
    "lahmc_equivalence": verify_lahmc_equivalence,
    "palindromic_coupling": verify_palindromic_coupling,
}


def verify(suite: str = "all") -> VerificationReport:
    """Run one named suite, or all of them."""
    if suite == "all":
        return VerificationReport(tuple(fn() for fn in SUITES.values()))
    if suite not in SUITES:
        known = ", ".join(list(SUITES) + ["all"])
        raise ValueError(f"unknown suite {suite!r}; choose one of: {known}")
    return VerificationReport((SUITES[suite](),))
