"""A ceiling on the deterministic work of a transition.

The work is counted as the Python calls into the ``xchmc`` package (a frame
whose module is one of its modules, so the methods ``dataclasses`` generates
for its classes count too), by ``sys.setprofile``, over a fixed 2000-transition
``run_chain`` at the ``gauss10_chain`` benchmark settings.  For a given stream
the count is exact, and numpy's own Python frames are not in it, so it moves
only when the kernel's call graph does.  A change that lowers the count lowers
``CEILING`` with it; a change that raises it states why.
"""

import math
import sys

import numpy as np

from xchmc import Budget, LegSpec, PhaseState, SamplerConfig, builtin_target, chain_rng, run_chain

CEILING = 24.5845  # Python calls into the package per transition
TRANSITIONS = 2000
VARIANCES = (0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)  # the gauss10_chain target


def test_python_calls_per_transition_stay_under_the_ceiling():
    var = np.array(VARIANCES)
    model = builtin_target("gaussian", var.size, variances=var)
    config = SamplerConfig(leg=LegSpec(0.4, 5), psi=math.asin(0.4), extra_chances=3,
                           jitter_fraction=0.05, seed=1)
    start = chain_rng(1, 0)
    z0 = PhaseState(start.standard_normal(var.size) * np.sqrt(var),
                    start.standard_normal(var.size))
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").partition(".")[0] == "xchmc":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        rec = run_chain(model, config, z0, Budget(transitions=TRANSITIONS),
                        rng=chain_rng(1, 1, 0))
    finally:
        sys.setprofile(previous)
    # The draws the ceiling was measured on: the same stream gives the same legs.
    assert rec.total_force_evals == 10431
    assert calls[0] / TRANSITIONS <= CEILING
