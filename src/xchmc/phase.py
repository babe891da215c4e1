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
        x = _real_array("positions", self.x)
        y = _real_array("momenta", self.y, length=x.shape[0])
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


def _state(x: np.ndarray, y: np.ndarray, potential, gradient) -> PhaseState:
    """A state the kernel built from finite float vectors ``x`` and ``y`` of one length.

    The one constructor of kernel states: it skips ``__post_init__`` and writes
    the instance dict directly, with the carried ``(potential, V(x))`` and
    ``(gradient, grad V(x))`` pairs or None.
    """
    z = object.__new__(PhaseState)
    d = z.__dict__
    d["x"] = x
    d["y"] = y
    d["_potential"] = potential
    d["_gradient"] = gradient
    return z


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


def _real(name: str, value, lo: float = -math.inf, hi: float = math.inf,
          lo_open: bool = True, hi_open: bool = True) -> float:
    """``value`` as a finite ``float`` from ``lo`` to ``hi``: the check of every real field.

    Python and numpy reals, integers included, pass.  An end is excluded when
    its ``*_open`` flag is set (float bounds compare fastest).  A bool, a
    non-real or non-finite value, or one outside the interval raises a
    ``ValueError`` naming the field ``name``.
    """
    x = value
    if type(x) is not float:
        # A numpy float64 becomes a float too; a non-real becomes NaN, in no interval.
        try:
            x = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
        except OverflowError:  # an integer beyond the float range
            x = math.inf
    if (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi) and math.isfinite(x):
        return x
    if lo == 0.0 and lo_open and hi == math.inf:
        rule = "be positive and finite"
    elif lo == -math.inf and hi == math.inf:
        rule = "be a finite real number"
    else:
        ends = [repr(b).removesuffix(".0") for b in (lo, hi)]
        rule = f"lie in {'(['[not lo_open]}{ends[0]}, {ends[1]}{')]'[not hi_open]}"
    raise ValueError(f"{name} must {rule}, not {value!r}")


def _real_array(name: str, value, ndim: int = 1, finite: bool = True, positive: bool = False,
                empty: bool = False, length: int | None = None) -> np.ndarray:
    """``value`` as a float64 array of ``ndim`` dimensions: the check of every vector.

    An ndarray passes on its dtype (integer or float), anything else on being a real
    or nested sequences of Python or numpy reals, no bool among them.  Fewer
    dimensions get leading axes, as from ``np.atleast_2d``, except that an empty
    value has no rows.  Entries must be finite if ``finite``, positive if
    ``positive`` and present unless ``empty``, and the last axis must have
    ``length`` entries unless it is None; else a ``ValueError`` names ``name``.
    """
    if isinstance(value, np.ndarray):
        real = value.dtype.kind in "iuf"
    else:
        types = set(map(type, np.array(value, dtype=object).ravel().tolist()))
        real = all(t is not bool and issubclass(t, numbers.Real) for t in types)
    try:
        a = np.asarray(value, dtype=float) if real else None
    except OverflowError:  # an integer beyond the float range
        a = None
    if a is None or (finite and not np.isfinite(a).all()) or (positive and (a <= 0).any()):
        rule = "positive finite " if positive else "finite " if finite else ""
        raise ValueError(f"{name} must be {rule}real numbers")
    if a.ndim < ndim:
        a = a.reshape((1,) * (ndim - a.ndim) + a.shape if a.size else (0, length or 0))
    if a.ndim != ndim or not (a.size or empty):
        shape = ("vector", "matrix")[ndim - 1]
        raise ValueError(f"{name} must form a {'non-empty ' * (not empty)}{shape}")
    if length is not None and a.shape[-1] != length:
        raise ValueError(f"{name} must have {'rows of ' * (ndim - 1)}length {length}, "
                         f"not {a.shape[-1]}")
    return a


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float vector ``a`` is finite, in one numpy call.

    ``a.dot(a)`` is finite exactly when every entry is, unless the sum of
    squares overflows; only then are the entries tested one by one.
    ``math.isfinite`` tests the sum without a warning, but an overflowing sum
    warns unless the caller ignores overflow (``np.errstate(over="ignore")``).
    """
    return math.isfinite(a.dot(a)) or bool(np.isfinite(a).all())


def _with_momentum(z: PhaseState, y: np.ndarray) -> PhaseState:
    """A kernel state (:func:`_state`) at ``z``'s position with the finite momentum
    ``y``, carrying ``z``'s values: the refresh, the flip and the copy of
    :func:`_orbit_start`."""
    return _state(z.x, y, z._potential, z._gradient)


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
    identity form is dimension-free (``dim`` is None); diagonal and dense
    forms fix ``dim``.

    The public products check their argument.  The kernel calls the unchecked
    ``_inv_mul``/``_sqrt_mul``/``_kinetic`` on float vectors it has already
    validated against the target dimension.
    """

    def __init__(self, diag=None, dense=None):
        if diag is not None and dense is not None:
            raise ValueError("give at most one of diag and dense")
        if dense is not None:
            m = _real_array("dense mass matrix entries", dense, 2)
            m = _real_array("dense mass matrix entries", m, 2, length=m.shape[0])  # square
            scale = max(1.0, float(np.abs(m).max()))
            if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * scale):
                raise ValueError("dense mass matrix must be symmetric")
            m = 0.5 * (m + m.T)
            try:
                chol = np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError("dense mass matrix is not positive definite") from exc
            self.kind, self.dim = "dense", m.shape[0]
            # M v, M^-1 v and M^1/2 v (triangular factor) as matrix products.
            self._mul = m.__matmul__
            self._inv_mul = np.linalg.inv(m).__matmul__
            self._sqrt_mul = chol.__matmul__
        elif diag is not None:
            d = _real_array("diagonal mass entries", diag, positive=True)
            self.kind, self.dim = "diagonal", d.size
            # d * v, v / d and sqrt(d) * v.
            self._mul = d.__mul__
            self._inv_mul = d.__rtruediv__
            self._sqrt_mul = np.sqrt(d).__mul__
        else:
            self.kind, self.dim = "identity", None
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

    def _checked(self, name: str, v) -> np.ndarray:
        # Non-finite entries pass: a diverging leg hands them on.
        return _real_array(name, v, finite=False, length=self.dim)

    def apply_inverse(self, v) -> np.ndarray:
        """Return M^-1 v."""
        return self._inv_mul(self._checked("v", v))

    def sqrt_apply(self, v) -> np.ndarray:
        """Return M^1/2 v (triangular factor for the dense form)."""
        return self._sqrt_mul(self._checked("v", v))

    def kinetic(self, y) -> float:
        """Kinetic energy 0.5 * y' M^-1 y."""
        return self._kinetic(self._checked("y", y))

    def _kinetic(self, y: np.ndarray) -> float:
        # ndarray.dot is the BLAS ddot that ``@`` calls, without its dispatch.
        # + 0.0 maps -0.0 to +0.0, as ``@`` gives it, and leaves every other float.
        return 0.5 * float(y.dot(self._inv_mul(y))) + 0.0

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
        object.__setattr__(self, "beta", _real("beta", self.beta, 0.0))
        if self.mass.dim is not None and self.mass.dim != self.dim:
            raise ValueError(
                f"mass dimension {self.mass.dim} does not match target dimension {self.dim}"
            )


def _check_dim(model: TargetModel, z: PhaseState) -> None:
    if z.x.shape[0] != model.dim:
        raise ValueError(f"state dimension {z.dim} does not match target dimension {model.dim}")


def log_rho(model: TargetModel, z: PhaseState) -> float:
    """Unnormalized log density -beta H(z); -inf wherever the potential is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_rho(model, _orbit_start(model, z))


def _log_rho(model: TargetModel, z: PhaseState) -> float:
    """:func:`log_rho` of ``z``, a state the kernel built (see :func:`_orbit_start`).

    -beta (0.5 y' M^-1 y + V), or -inf when V or the total energy is not
    finite.  V is evaluated only when ``z`` does not carry it for
    ``model.potential``, and ``z`` then keeps it.  Without the dimension
    check, and unguarded: the caller holds ``np.errstate(over="ignore",
    invalid="ignore")``.
    """
    carried = z._potential
    if carried is None or carried[0] is not model.potential:
        carried = (model.potential, float(model.potential(z.x)))
        z.__dict__["_potential"] = carried
    v = carried[1]
    if not math.isfinite(v):
        return -math.inf
    h = model.mass._kinetic(z.y) + v
    return -model.beta * h if math.isfinite(h) else -math.inf


def _orbit_start(model: TargetModel, z: PhaseState) -> PhaseState:
    """``z``, checked against the target, as a state the kernel may write to.

    A state that carries a potential was built by the kernel and comes back as
    it is.  Any other state (a caller's, or a leg end that was never a
    candidate) is left untouched, and a copy of it is returned.
    """
    if len(z.x) != model.dim:
        _check_dim(model, z)
    if z._potential is not None:
        return z
    return _with_momentum(z, z.y)


def _gaussian(dims: int, params: dict) -> tuple[Callable, Callable]:
    variances = params.pop("variances", 1.0)
    var = _real_array("gaussian variances", variances, positive=True)
    if var.size > 1:  # one value is every coordinate's variance
        _real_array("gaussian variances", var, length=dims)
    var = np.broadcast_to(var, dims).copy()

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
    b = _real("curvature", params.pop("curvature", 0.5))
    s2 = _real("first_variance", params.pop("first_variance", 1.0), 0.0)

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


def gradient_fd_error(model: TargetModel, x) -> float:
    """Worst coordinatewise gap between the analytic gradient and central differences.

    Step for coordinate i is ``1e-5 * max(1, |x_i|)``.  A non-finite gap is
    worse than any finite one, so it is returned at once.
    """
    x = _real_array("x", x, length=model.dim)
    g = _real_array("gradient values", model.gradient(x), finite=False, length=model.dim)
    worst = 0.0
    for i in range(x.size):
        h = 1e-5 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fd = (model.potential(xp) - model.potential(xm)) / (2.0 * h)
        gap = abs(float(g[i]) - fd)
        if not math.isfinite(gap):
            return gap
        worst = max(worst, gap)
    return worst
