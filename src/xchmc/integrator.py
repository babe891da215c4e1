"""Velocity Verlet legs and numerical map checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from xchmc.phase import (PhaseState, TargetModel, _all_finite, _check_dim, _integer, _real,
                         _real_array, _state, flip)

__all__ = [
    "LegSpec",
    "DivergedLeg",
    "verlet_leg",
    "check_reversibility",
    "check_volume_preservation",
]


@dataclass(frozen=True)
class LegSpec:
    """One integration leg: ``steps`` velocity Verlet steps of size ``dt``."""

    dt: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dt", _real("dt", self.dt, 0.0))
        object.__setattr__(self, "steps", _integer("steps", self.steps, 1))


class DivergedLeg(RuntimeError):
    """An integration leg left the finite domain.

    Attributes
    ----------
    step_index:
        0-based index of the step whose update first produced a non-finite
        gradient or state (``steps`` for the closing half kick).
    force_evals:
        Gradient evaluations the leg made before it was abandoned, the failing
        one included, so budget accounting stays exact: ``step_index + 1``,
        or ``step_index`` when the leg started from a carried gradient.
    """

    def __init__(self, step_index: int, force_evals: int):
        super().__init__(f"integration diverged at step {step_index}")
        self.step_index = step_index
        self.force_evals = force_evals


_FLOAT64 = np.dtype(np.float64)


@np.errstate(over="ignore", invalid="ignore")
def verlet_leg(model: TargetModel, spec: LegSpec, z: PhaseState) -> tuple[PhaseState, int]:
    """Integrate one velocity Verlet leg; returns (end state, gradient evaluations).

    The leg is the half-kick / (drift, kick) x (steps-1) / drift / half-kick
    composition: it is volume preserving and reversible up to a momentum flip.
    It evaluates the gradient at the start and after each drift, and the end
    state carries its last gradient, tagged with ``model.gradient``.  When
    ``z`` carries the gradient of its position for ``model.gradient`` (a leg
    end, or a flip or refresh of one), the first half kick uses it, and a
    complete leg costs ``steps`` gradient evaluations; from any other state,
    a caller's included, it costs ``steps + 1``, and a start the kernel built
    (one that carries its potential) keeps that first gradient, even if the
    leg diverges later.  Divergence raises :class:`DivergedLeg` with the
    partial evaluation count.

    ``z`` is a checked state; only its dimension is compared with the target.
    Every gradient is checked against the state's shape and, like the end
    state, tested for finiteness, so the end state is built without re-checking
    it.  A gradient ``g`` is finite when ``g.dot(g)`` is, which holds exactly
    when every entry is unless the sum of squares overflows; only then are
    the entries tested one by one.  ``z`` is never modified: every kick and
    drift builds a new array (a gradient may return its argument).  The whole
    leg runs under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    if len(z.x) != model.dim:
        _check_dim(model, z)
    # The full step as a vector: an array-array product costs less than a
    # float-array one and gives the same floats, and ``np.empty`` plus ``fill``
    # builds it in less time than ``np.full``.  The two half kicks keep the
    # float, which costs less than building a second vector.
    dt = np.empty(z.x.shape)
    dt.fill(spec.dt)
    half_dt = 0.5 * spec.dt
    steps = spec.steps
    inv_mass = model.mass._inv_mul
    gradient = model.gradient
    x, y = z.x, z.y
    carried = z._gradient
    # Whether the gradient at the start is evaluated here (1) or carried in (0).
    fresh = int(carried is None or carried[0] is not gradient)
    g = None if fresh else carried[1]
    # Gradient evaluation ``step`` follows a drift (all but the first) and
    # feeds a half kick at either end of the leg and a full kick between.
    for step in range(steps + 1):
        if step:
            x = x + dt * inv_mass(y)
        if step or fresh:
            g = gradient(x)
            if type(g) is not np.ndarray or g.dtype is not _FLOAT64:
                g = _real_array("gradient values", g, finite=False)
            if g.shape != y.shape:
                raise ValueError(f"gradient values do not match the state shape {y.shape}")
            if not (math.isfinite(g.dot(g)) or np.isfinite(g).all()):
                raise DivergedLeg(step, step + fresh)
            if not step and z._potential is not None:
                object.__setattr__(z, "_gradient", (gradient, g))
        y = y - (dt if 0 < step < steps else half_dt) * g
    if not (_all_finite(x) and _all_finite(y)):
        raise DivergedLeg(steps, steps + fresh)
    return _state(x, y, None, (gradient, g)), steps + fresh


def check_reversibility(model: TargetModel, spec: LegSpec, z: PhaseState) -> float:
    """Relative size of F(I(F(I(z)))) - z, which is zero for an exactly reversible leg."""
    forward, _ = verlet_leg(model, spec, z)
    back, _ = verlet_leg(model, spec, flip(forward))
    back = flip(back)
    diff = math.hypot(
        float(np.linalg.norm(back.x - z.x)), float(np.linalg.norm(back.y - z.y))
    )
    scale = math.hypot(float(np.linalg.norm(z.x)), float(np.linalg.norm(z.y)))
    return diff / max(scale, 1.0)


def check_volume_preservation(model: TargetModel, spec: LegSpec, z: PhaseState) -> float:
    """|det J - 1| for the leg's Jacobian, estimated by central differences.

    The Jacobian of the full phase-space map (x, y) -> I(x, y) is formed column
    by column with a perturbation of 1e-5 per coordinate, the x and y blocks
    of each column differenced apart.  The perturbed states are kernel states
    (``phase._state``): a coordinate of the finite state ``z`` moved by 1e-5
    stays finite, since near the float maximum the sum rounds back to it.
    """
    step = 1e-5
    d = z.dim
    base = np.concatenate([z.x, z.y])

    def advance(w):
        return verlet_leg(model, spec, _state(w[:d], w[d:], None, None))[0]

    jac = np.empty((2 * d, 2 * d))
    for j in range(2 * d):
        wp = base.copy()
        wp[j] += step
        wm = base.copy()
        wm[j] -= step
        plus, minus = advance(wp), advance(wm)
        jac[:d, j] = (plus.x - minus.x) / (2.0 * step)
        jac[d:, j] = (plus.y - minus.y) / (2.0 * step)
    return abs(float(np.linalg.det(jac)) - 1.0)
