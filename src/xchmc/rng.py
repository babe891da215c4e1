"""Random-stream management: seed splitting and a scripted stand-in for tests."""

from __future__ import annotations

from collections import deque

import numpy as np

from xchmc.phase import _integer, _real_array

__all__ = ["chain_rng", "ScriptedRng"]


def chain_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Deterministic sub-stream for one chain or replica.

    The sub-stream is ``SeedSequence(master_seed, spawn_key=indices)``: mixing
    the chain/replica indices into the spawn key guarantees independent,
    reproducible streams for every (seed, indices) combination.  The seed and
    every index must be integers >= 0 (``phase._integer``).
    """
    ss = np.random.SeedSequence(entropy=_integer("master_seed", master_seed, 0),
                                spawn_key=tuple(_integer("index", i, 0) for i in indices))
    return np.random.default_rng(ss)


def _draws(name: str, values) -> deque:
    # Non-finite draws pass: tests feed them to the checks the sampler makes on each draw.
    return deque(_real_array(name, values, finite=False, empty=True).tolist())


class ScriptedRng:
    """Feeds pre-chosen draws to the sampler, in consumption order.

    The sampler consumes, per transition: ``dim`` standard normals (momentum
    refresh noise), one uniform on [0, 1) (the acceptance draw), and one
    jitter perturbation.  ``standard_normal`` pops from ``normals``;
    ``uniform()`` with the default bounds pops from ``uniforms``; any other
    bounds are treated as a jitter request and served from ``jitters``.  When
    ``jitters`` is None the midpoint of the requested interval is returned,
    i.e. the step size is left unperturbed.
    """

    def __init__(self, normals=(), uniforms=(), jitters=None):
        self._normals = _draws("normals", normals)
        self._uniforms = _draws("uniforms", uniforms)
        self._jitters = None if jitters is None else _draws("jitters", jitters)

    def _pop(self, queue: deque, what: str) -> float:
        if not queue:
            raise IndexError(f"scripted {what} draws exhausted")
        return queue.popleft()

    def standard_normal(self, size):
        n = _integer("size", size, 0)
        return np.array([self._pop(self._normals, "normal") for _ in range(n)])

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        if low == 0.0 and high == 1.0:
            return self._pop(self._uniforms, "uniform")
        if self._jitters is None:
            return 0.5 * (low + high)
        return self._pop(self._jitters, "jitter")
