"""Phase-space primitives: states, mass matrices, target models, built-in targets."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "PhaseState",
    "MassMatrix",
    "TargetModel",
    "flip",
    "hamiltonian",
    "log_rho",
    "builtin_target",
    "gradient_fd_error",
]


@dataclass(frozen=True)
class PhaseState:
    """A phase-space point: positions ``x`` and conjugate momenta ``y``."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("positions and momenta must be flat vectors")
        if x.shape != y.shape:
            raise ValueError(
                f"dimension mismatch: {x.shape[0]} positions vs {y.shape[0]} momenta"
            )
        if x.size == 0:
            raise ValueError("phase state needs at least one coordinate")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("phase-space components must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    # ``(potential, V(x))`` and ``(gradient, grad V(x))``: a state the kernel
    # built evaluates each at most once and keeps it (writers: ``_log_rho`` and
    # ``integrator.verlet_leg``); a caller's state is never written to (see
    # ``_orbit_start``).  Not fields: equality, repr and pickling see x and y.
    _potential = None
    _gradient = None

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def __getstate__(self) -> dict:
        return {"x": self.x, "y": self.y}


def _unchecked(cls, **fields):
    """Instance of the frozen dataclass ``cls`` from fields known to be valid.

    Skips ``__post_init__``.  The kernel builds its own states and jittered legs
    with this from arrays and values it has already checked; every caller
    outside the kernel goes through the checking constructor.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum``: the check of every integer field.

    Python and numpy integers and integral floats pass.  A bool, a
    non-integral or non-finite value, or one below ``minimum`` raises a
    ``ValueError`` naming the field ``name``.
    """
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or float(value).is_integer())
            and value >= minimum):
        bound = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {bound}, not {value!r}")
    return int(value)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float vector ``a`` is finite, in one numpy call.

    ``a.dot(a)`` is finite exactly when every entry is, unless the sum of
    squares overflows; only then are the entries tested one by one.
    ``math.isfinite`` tests the sum without a warning, but an overflowing sum
    warns unless the caller ignores overflow (``np.errstate(over="ignore")``).
    """
    return math.isfinite(a.dot(a)) or bool(np.isfinite(a).all())


def _with_momentum(z: PhaseState, y: np.ndarray) -> PhaseState:
    """A kernel state at ``z``'s position with momentum ``y``, carrying ``z``'s values."""
    return _unchecked(PhaseState, x=z.x, y=y, _potential=z._potential, _gradient=z._gradient)


def flip(z: PhaseState) -> PhaseState:
    """Momentum flip (x, y) -> (x, -y): an involution that preserves the energy."""
    return _with_momentum(z, -z.y)


def _same(v: np.ndarray) -> np.ndarray:
    return v


class MassMatrix:
    """Symmetric positive-definite mass matrix in identity, diagonal, or dense form.

    Supplies the two products the sampler needs: ``M^-1 v`` (drifts and
    kinetic energy) and ``M^1/2 v`` (drawing momenta distributed as N(0, M)
    from standard normals); ``_mul`` (``M v``) serves checks of the two.  The
    identity form is dimension-free; diagonal and dense forms fix the
    dimension.

    The public products check their argument.  The kernel calls the unchecked
    ``_inv_mul``/``_sqrt_mul``/``_kinetic`` on float vectors it has already
    validated against the target dimension.
    """

    def __init__(self, diag=None, dense=None):
        if diag is not None and dense is not None:
            raise ValueError("give at most one of diag and dense")
        self._diag = None
        self._dense = None
        if dense is not None:
            m = np.asarray(dense, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
                raise ValueError("dense mass matrix must be square and non-empty")
            if not np.isfinite(m).all():
                raise ValueError("dense mass matrix must be finite")
            scale = max(1.0, float(np.abs(m).max()))
            if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * scale):
                raise ValueError("dense mass matrix must be symmetric")
            m = 0.5 * (m + m.T)
            try:
                chol = np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError("dense mass matrix is not positive definite") from exc
            self.kind = "dense"
            self._dense = m
            # M v, M^-1 v and M^1/2 v (triangular factor) as matrix products.
            self._mul = m.__matmul__
            self._inv_mul = np.linalg.inv(m).__matmul__
            self._sqrt_mul = chol.__matmul__
        elif diag is not None:
            d = np.atleast_1d(np.asarray(diag, dtype=float))
            if d.ndim != 1 or d.size == 0:
                raise ValueError("diagonal mass entries must form a non-empty vector")
            if not np.isfinite(d).all() or (d <= 0).any():
                raise ValueError("diagonal mass entries must be positive and finite")
            self.kind = "diagonal"
            self._diag = d
            # d * v, v / d and sqrt(d) * v.
            self._mul = d.__mul__
            self._inv_mul = d.__rtruediv__
            self._sqrt_mul = np.sqrt(d).__mul__
        else:
            self.kind = "identity"
            self._mul = self._inv_mul = self._sqrt_mul = _same

    @classmethod
    def identity(cls) -> "MassMatrix":
        return cls()

    @classmethod
    def diagonal(cls, entries) -> "MassMatrix":
        return cls(diag=entries)

    @classmethod
    def dense(cls, matrix) -> "MassMatrix":
        return cls(dense=matrix)

    @property
    def dim(self) -> int | None:
        """Fixed dimension, or None for the dimension-free identity."""
        if self.kind == "diagonal":
            return self._diag.size
        if self.kind == "dense":
            return self._dense.shape[0]
        return None

    def _checked(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.dim is not None and v.shape != (self.dim,):
            raise ValueError(f"vector of shape {v.shape} does not match mass dimension {self.dim}")
        return v

    def apply_inverse(self, v) -> np.ndarray:
        """Return M^-1 v."""
        return self._inv_mul(self._checked(v))

    def sqrt_apply(self, v) -> np.ndarray:
        """Return M^1/2 v (triangular factor for the dense form)."""
        return self._sqrt_mul(self._checked(v))

    def kinetic(self, y) -> float:
        """Kinetic energy 0.5 * y' M^-1 y."""
        return self._kinetic(self._checked(y))

    def _kinetic(self, y: np.ndarray) -> float:
        # ndarray.dot is the BLAS ddot that ``@`` calls, without its dispatch.
        return 0.5 * float(y.dot(self._inv_mul(y)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MassMatrix(kind={self.kind!r}, dim={self.dim})"


@dataclass(frozen=True)
class TargetModel:
    """Unnormalized target exp(-beta V(x)) together with its kinetic metric.

    ``potential`` and ``gradient`` must be pure functions of the position:
    independent chains call them concurrently and nothing may be cached
    between calls.  The kernel keeps the array ``gradient`` returns as the
    gradient at that position, so it must not be changed afterwards; it may
    be the position itself, which the kernel never modifies.
    """

    dim: int
    potential: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    beta: float = 1.0
    mass: MassMatrix = field(default_factory=MassMatrix.identity)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _integer("dim", self.dim, 1))
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be positive and finite")
        if self.mass.dim is not None and self.mass.dim != self.dim:
            raise ValueError(
                f"mass dimension {self.mass.dim} does not match target dimension {self.dim}"
            )


def _check_dim(model: TargetModel, z: PhaseState) -> None:
    if z.x.shape[0] != model.dim:
        raise ValueError(f"state dimension {z.dim} does not match target dimension {model.dim}")


def hamiltonian(model: TargetModel, z: PhaseState) -> float:
    """Total energy 0.5 y' M^-1 y + V(x); +inf when either term is not finite."""
    _check_dim(model, z)
    with np.errstate(over="ignore", invalid="ignore"):
        return _hamiltonian(model, z.y, float(model.potential(z.x)))


def log_rho(model: TargetModel, z: PhaseState) -> float:
    """Unnormalized log density -beta H(z); -inf wherever the potential is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_rho(model, _orbit_start(model, z))


def _hamiltonian(model: TargetModel, y: np.ndarray, v: float) -> float:
    """:func:`hamiltonian` of a state with momentum ``y`` and potential ``v``.

    Unguarded: the caller holds ``np.errstate(over="ignore", invalid="ignore")``.
    """
    if not math.isfinite(v):
        return math.inf
    total = model.mass._kinetic(y) + v
    return total if math.isfinite(total) else math.inf


def _log_rho(model: TargetModel, z: PhaseState) -> float:
    """:func:`log_rho` of ``z``, a state the kernel built (see :func:`_orbit_start`).

    V is evaluated only when ``z`` does not carry it for ``model.potential``,
    and ``z`` then keeps it.  Unguarded, like :func:`_hamiltonian`, and
    without the dimension check.
    """
    carried = z._potential
    if carried is None or carried[0] is not model.potential:
        carried = (model.potential, float(model.potential(z.x)))
        object.__setattr__(z, "_potential", carried)
    h = _hamiltonian(model, z.y, carried[1])
    if h == math.inf:
        return -math.inf
    return -model.beta * h


def _orbit_start(model: TargetModel, z: PhaseState) -> PhaseState:
    """``z``, checked against the target, as a state the kernel may write to.

    A state that carries a potential was built by the kernel and comes back as
    it is.  Any other state (a caller's, or a leg end that was never a
    candidate) is left untouched, and a copy of it is returned.
    """
    _check_dim(model, z)
    if z._potential is not None:
        return z
    return _with_momentum(z, z.y)


def _gaussian(dims: int, params: dict) -> tuple[Callable, Callable]:
    variances = params.pop("variances", 1.0)
    var = np.broadcast_to(np.asarray(variances, dtype=float), (dims,)).copy()
    if not np.isfinite(var).all() or (var <= 0).any():
        raise ValueError("gaussian variances must be positive and finite")

    def potential(x):
        return 0.5 * float(np.add.reduce(x * x / var))

    def gradient(x):
        return x / var

    return potential, gradient


def _double_well(dims: int, params: dict) -> tuple[Callable, Callable]:
    # The constants as vectors: an array-array product or difference costs less
    # than a float-array one and gives the same floats.
    one, four = np.ones(dims), np.full(dims, 4.0)

    def potential(x):
        q = x * x - one
        return float(np.add.reduce(q * q))

    def gradient(x):
        return four * x * (x * x - one)

    return potential, gradient


def _banana(dims: int, params: dict) -> tuple[Callable, Callable]:
    if dims < 2:
        raise ValueError("banana target needs at least 2 dimensions")
    b = float(params.pop("curvature", 0.5))
    s2 = float(params.pop("first_variance", 1.0))
    if not math.isfinite(b):
        raise ValueError("banana curvature must be finite")
    if not (math.isfinite(s2) and s2 > 0):
        raise ValueError("banana first_variance must be positive and finite")

    # Curved Gaussian ridge: the second coordinate tracks b*(x0^2 - s2), the
    # remaining coordinates are standard normal.
    def potential(x):
        bend = x[1] + b * (x[0] * x[0] - s2)
        rest = x[2:]
        return float(0.5 * x[0] * x[0] / s2 + 0.5 * bend * bend
                     + 0.5 * np.add.reduce(rest * rest))

    def gradient(x):
        g = np.array(x, dtype=float)
        bend = x[1] + b * (x[0] * x[0] - s2)
        g[0] = x[0] / s2 + 2.0 * b * x[0] * bend
        g[1] = bend
        return g

    return potential, gradient


_BUILTINS = {
    "gaussian": _gaussian,
    "double_well": _double_well,
    "banana": _banana,
}


def builtin_target(name: str, dims: int, *, beta: float = 1.0, mass=None,
                   **params) -> TargetModel:
    """Construct one of the built-in analytic targets.

    Parameters
    ----------
    name:
        ``gaussian`` (independent zero-mean coordinates,
        ``V = sum_i x_i^2 / (2 s_i^2)``; parameter ``variances`` is a scalar or
        per-coordinate vector), ``double_well`` (separable quartic
        ``V = sum_i (x_i^2 - 1)^2``), or ``banana`` (curved Gaussian ridge,
        parameters ``curvature`` and ``first_variance``).
    dims:
        Number of position coordinates.
    beta, mass:
        Inverse temperature and kinetic metric; defaults 1 and identity.
        ``mass`` accepts a :class:`MassMatrix` or a per-coordinate sequence of
        diagonal masses (the JSON-friendly spelling for sweep specs).
    """
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown target {name!r}; choose one of: {known}")
    dims = _integer("dims", dims, 1)
    if mass is None:
        mass = MassMatrix.identity()
    elif not isinstance(mass, MassMatrix):
        mass = MassMatrix.diagonal(mass)
    remaining = dict(params)
    potential, gradient = _BUILTINS[name](dims, remaining)
    if remaining:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(remaining)}")
    return TargetModel(
        dim=dims,
        potential=potential,
        gradient=gradient,
        beta=beta,
        mass=mass,
    )


def gradient_fd_error(model: TargetModel, x, relative_step: float = 1e-5) -> float:
    """Worst coordinatewise gap between the analytic gradient and central differences.

    Step for coordinate i is ``relative_step * max(1, |x_i|)``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.asarray(model.gradient(x), dtype=float)
    worst = 0.0
    for i in range(x.size):
        h = relative_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fd = (model.potential(xp) - model.potential(xm)) / (2.0 * h)
        worst = max(worst, abs(float(g[i]) - fd))
    return worst
