"""The cheaper float forms of the inner loop against the forms they replaced.

The kernel computes the kinetic energy and ``squared_radius`` with
``ndarray.dot`` instead of ``@``, the double well from vector constants,
the built-in potentials with ``np.add.reduce``, the full Verlet step as a
vector, the slot increments as Python floats and a ``Generator``'s two
transition draws with one ``random(2)``.  Each form must give the same bits
as the old one, on any float: huge, tiny, subnormal, infinite or NaN.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from xchmc import MassMatrix, builtin_target, slot_distribution, squared_radius

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, 1e154, -1e155, 1e200,
           -1.7e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
# Any float64, with the extreme and non-finite values drawn often.
any_float = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
# Moderate floats, so that long sums stay finite and show their rounding order.
moderate = st.floats(-10.0, 10.0)


def vectors(min_size=1, max_size=40):
    """Vectors over any float, or over moderate floats only."""
    return st.one_of(*(st.lists(e, min_size=min_size, max_size=max_size).map(np.array)
                       for e in (any_float, moderate)))


@st.composite
def vector_pairs(draw):
    """Two vectors of one length in 1..40."""
    d = draw(st.integers(1, 40))
    same = vectors(d, d)
    return draw(same), draw(same)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@st.composite
def masses(draw, d):
    """A mass matrix of dimension ``d`` of each kind, with entries over many scales."""
    scale = st.floats(min_value=1e-150, max_value=1e150)
    kind = draw(st.sampled_from(["identity", "diagonal", "dense"]))
    if kind == "identity":
        return MassMatrix.identity()
    if kind == "diagonal":
        return MassMatrix.diagonal(draw(st.lists(scale, min_size=d, max_size=d)))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)))
    a = a.reshape(d, d)
    return MassMatrix.dense(draw(scale) * (a @ a.T + d * np.eye(d)))


@st.composite
def mass_and_momentum(draw):
    d = draw(st.integers(1, 12))
    return draw(masses(d)), draw(vectors(d, d))


class TestDotForMatmul:
    @given(mass_and_momentum())
    def test_kinetic_energy(self, case):
        mass, y = case
        with np.errstate(all="ignore"):
            old = 0.5 * float(y @ mass._inv_mul(y))
            assert same_bits(mass._kinetic(y), old)

    @given(vectors())
    def test_squared_radius(self, x):
        with np.errstate(all="ignore"):
            assert same_bits(squared_radius().fn(x), float(x @ x))


class TestBuiltinTargets:
    @given(vectors())
    def test_double_well_vector_constants(self, x):
        model = builtin_target("double_well", x.size)
        with np.errstate(all="ignore"):
            assert same_bits(model.gradient(x), 4.0 * x * (x * x - 1.0))
            q = x * x - 1.0
            assert same_bits(model.potential(x), float((q * q).sum()))

    @given(vector_pairs())
    def test_gaussian_potential(self, pair):
        x, v = pair
        variances = np.where(np.isfinite(v) & (v > 0), v, 1.0)
        model = builtin_target("gaussian", x.size, variances=variances)
        with np.errstate(all="ignore"):
            assert same_bits(model.potential(x), 0.5 * float((x * x / variances).sum()))

    @given(vectors(min_size=2), st.floats(-1e3, 1e3))
    def test_banana_potential(self, x, b):
        model = builtin_target("banana", x.size, curvature=b)
        with np.errstate(all="ignore"):
            bend = x[1] + b * (x[0] * x[0] - 1.0)
            rest = x[2:]
            old = float(0.5 * x[0] * x[0] / 1.0 + 0.5 * bend * bend + 0.5 * (rest * rest).sum())
            assert same_bits(model.potential(x), old)

    @given(vectors(min_size=0, max_size=600))
    def test_add_reduce_is_sum(self, a):
        with np.errstate(all="ignore"):
            assert same_bits(np.add.reduce(a), a.sum())


class TestVectorStep:
    @given(vector_pairs(), any_float)
    def test_kick_and_drift(self, pair, dt):
        x, g = pair
        step = np.full(x.shape, dt)
        with np.errstate(all="ignore"):
            assert same_bits(step * g, dt * g)
            assert same_bits(x + step * g, x + dt * g)


class TestSlotIncrements:
    @given(st.lists(any_float, min_size=1, max_size=8))
    def test_p_matches_the_array_formula(self, log_ratios):
        sd = slot_distribution(log_ratios)
        sigma = sd.sigma
        p = np.empty(sigma.size + 1)
        p[0] = sigma[0]
        p[1:-1] = sigma[1:] - sigma[:-1]
        p[-1] = 1.0 - sigma[-1]
        assert same_bits(sd.p, p)
        assert sd.p.dtype == np.float64 and sd.p.shape == p.shape


class TestGeneratorDraws:
    @given(st.integers(0, 2**63), st.integers(1, 50))
    def test_random_2_is_two_random_calls(self, seed, pairs):
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(pairs):
            assert one.random(2).tolist() == [two.random(), two.random()]
        assert one.random() == two.random()
