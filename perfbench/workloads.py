"""The three benchmark workloads.

Each workload is a closed batch: one benchmark process runs a fixed amount of
work to completion.  A workload has ``distinct`` input sets, all made from the
workload seed (sweep specs and their seeds, the start state and chain stream,
the battery seeds); batch ``i`` of a run uses input set ``i % distinct``, and
the benchmark repeats batches for the length of a run.  Batches with the same
input set must produce byte-identical outputs.  Pooling the efficiency over
the distinct sets, rather than over however many batches fit in a run, keeps
it exactly repeatable at a fixed seed.

* ``dw2_sweep``: ``run_experiment`` on the 2-D double well, K in {0, 3} at
  equal force budgets, replicas on a process pool, CSV and JSON written.
  Per-transition interpreter cost, the pool and the output dominate.
* ``gauss10_chain``: one long in-process ``run_chain`` on the anisotropic
  10-D Gaussian, then ESS-based averages of all coordinates and squares.
  No pool, no files, and series long enough for the threaded BLAS path of
  the ESS estimator.
* ``verify_batteries``: the five identity batteries.  They integrate eager
  full orbits and finite-difference Jacobians instead of the lazy legs of the
  sampler, so a change that helps the lazy path and hurts the eager one
  shows only here.

Both sampling workloads run without burn-in (the Gaussian chain starts from
an exact draw of the target; the double-well start at the saddle is inside
the typical set), so every gradient call of a batch lands in a chain record
and the traced run can check the force-evaluation accounting exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import xchmc.diagnostics as diagnostics
import xchmc.harness as harness
import xchmc.phase as phase
import xchmc.sampler as sampler
import xchmc.verification as verification
from xchmc.integrator import LegSpec
from xchmc.rng import chain_rng

Z_LIMIT = 4.0


@dataclass
class Batch:
    """What one closed batch did, as measured from outside the program."""

    wall_s: float            # whole timed phase: sampling, diagnostics and output
    sample_s: float          # the sampling (or battery) calls alone
    force_evals: int         # from the program's records; 0 where only tracing can count
    yield_: float            # pooled ESS (sampling) or identity checks (batteries)
    attempted: int
    failed: int
    digest: str              # hash of every output, for determinism and transparency
    record_candidates: int = 0
    extra: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    # Filled in by the runner.
    speed: float = 1.0       # machine speed around the batch, relative to reference
    traced: bool = False
    layers: dict = field(default_factory=dict)
    accounting: dict = field(default_factory=dict)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# --------------------------------------------------------------------------------------
# dw2_sweep
# --------------------------------------------------------------------------------------

def double_well_r2_mean(dims: int = 2) -> float:
    """E[|x|^2] under exp(-sum (x_i^2 - 1)^2), by 1-D quadrature of one coordinate."""
    x = np.linspace(-4.0, 4.0, 80_001)
    w = np.exp(-((x * x - 1.0) ** 2))
    return dims * float(np.sum(x * x * w) / np.sum(w))


class Dw2Sweep:
    name = "dw2_sweep"
    distinct = 4
    replicas = 8
    budget = 15_000

    def setup(self, seed: int, work: Path):
        specs = [harness.parse_spec({
            "target": {"name": "double_well", "params": {"dims": 2}},
            "sweep": {"axis": "K", "values": [0, 3]},
            "fixed": {"dt": 0.28, "L": 5, "sin_psi": 0.4, "jitter": 0.05},
            "replicas": self.replicas, "budget_force_evals": self.budget, "burn_in": 0,
            "observable": "r2", "seed": seed * self.distinct + j, "include_momenta": True,
        }) for j in range(self.distinct)]
        return {"specs": specs, "work": work, "workers": _workers(), "runs": 0}

    def batch(self, ctx, j: int, tracer=None) -> Batch:
        ctx["runs"] += 1
        out = ctx["work"] / f"sweep-{ctx['runs']}"
        spec = dataclasses.replace(ctx["specs"][j], out_dir=str(out))
        t0 = perf_counter()
        harness.run_experiment(spec, workers=ctx["workers"])
        wall = perf_counter() - t0

        files = sorted(out.iterdir())
        digest = _sha(*(p.name.encode() + p.read_bytes() for p in files))
        summary = json.loads((out / "summary.json").read_bytes())
        shutil.rmtree(out)

        ref = double_well_r2_mean()
        problems, ess, evals, failed = [], 0.0, 0, 0
        per_k = {}
        for cell in summary["results"]:
            entries = cell["replicas"]
            good = [e for e in entries if "error" not in e]
            failed += len(entries) - len(good)
            problems += [f"K={cell['value']} replica error {e['error']}"
                         for e in entries if "error" in e]
            cell_ess = sum(e["ess"] for e in good)
            cell_evals = sum(e["force_evals"] for e in good)
            ess += cell_ess
            evals += cell_evals
            means = np.array([e["mean"] for e in good])
            se = math.sqrt(sum(e["stderr"] ** 2 for e in good)) / max(len(good), 1)
            z = abs(float(means.mean()) - ref) / se if good else math.inf
            if not z <= Z_LIMIT:
                failed += 1
                problems.append(f"K={cell['value']} r2 mean off the quadrature value: |z|={z:.2f}")
            per_k[f"ess_per_kfe_K{cell['value']}"] = 1000.0 * cell_ess / max(cell_evals, 1)
            per_k[f"flip_frac_K{cell['value']}"] = cell["aggregate"]["slot_means"].get("flip")
            per_k[f"r2_z_K{cell['value']}"] = z
        n_cells = len(summary["results"])
        return Batch(wall_s=wall, sample_s=wall, force_evals=evals, yield_=ess,
                     attempted=n_cells * spec.replicas + n_cells, failed=failed,
                     digest=digest, extra=per_k, problems=problems)


# --------------------------------------------------------------------------------------
# gauss10_chain
# --------------------------------------------------------------------------------------

GAUSS10_VARIANCES = (0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)


def _square(i: int):
    return diagnostics.Observable(f"x{i}^2", lambda x: float(x[i] * x[i]))


class Gauss10Chain:
    name = "gauss10_chain"
    distinct = 1
    budget = 150_000

    def setup(self, seed: int, work: Path):
        var = np.array(GAUSS10_VARIANCES)
        model = phase.builtin_target("gaussian", var.size, variances=var)
        config = sampler.SamplerConfig(leg=LegSpec(0.4, 5), psi=math.asin(0.4),
                                       extra_chances=3, jitter_fraction=0.05, seed=seed)
        rng = chain_rng(seed, 0)
        z0 = phase.PhaseState(rng.standard_normal(var.size) * np.sqrt(var),
                              rng.standard_normal(var.size))
        observables = ([diagnostics.coordinate(i) for i in range(var.size)]
                       + [_square(i) for i in range(var.size)])
        return {"model": model, "config": config, "z0": z0, "var": var, "seed": seed,
                "budget": sampler.Budget(force_evals=self.budget), "observables": observables}

    def batch(self, ctx, j: int, tracer=None) -> Batch:
        model = ctx["model"] if tracer is None else tracer.timed_model(ctx["model"])
        rng = chain_rng(ctx["seed"], 1, j)
        t0 = perf_counter()
        rec = sampler.run_chain(model, ctx["config"], ctx["z0"], ctx["budget"], rng=rng)
        t1 = perf_counter()
        estimates = [diagnostics.estimate_average(rec, ob) for ob in ctx["observables"]]
        wall = perf_counter() - t0

        var = ctx["var"]
        truth = np.concatenate([np.zeros(var.size), var])
        problems = []
        worst = 0.0
        for ob, est, mu in zip(ctx["observables"], estimates, truth):
            z = abs(est.mean - mu) / est.stderr
            worst = max(worst, z)
            if not z <= Z_LIMIT:
                problems.append(f"{ob.name}: mean {est.mean:.4f} vs {mu:g}, |z|={z:.2f}")
        arrays = [getattr(rec, f.name) for f in dataclasses.fields(rec)
                  if isinstance(getattr(rec, f.name), np.ndarray)]
        digest = _sha(*(a.tobytes() for a in arrays), repr(estimates).encode())
        ess = float(np.mean([e.ess for e in estimates]))
        return Batch(wall_s=wall, sample_s=t1 - t0, force_evals=rec.total_force_evals,
                     yield_=ess, attempted=1 + len(estimates), failed=len(problems),
                     digest=digest, record_candidates=int(rec.candidates.sum()),
                     extra={"worst_z": worst, "series_points": rec.positions.shape[0]},
                     problems=problems)


# --------------------------------------------------------------------------------------
# verify_batteries
# --------------------------------------------------------------------------------------

class VerifyBatteries:
    name = "verify_batteries"
    distinct = 1
    scale = 2

    def setup(self, seed: int, work: Path):
        s = self.scale
        return {"seed": seed, "calls": [
            ("verify_reversibility", {"points_per_target": 100 * s}),
            ("verify_volume", {"points_per_target": 100 * s}),
            ("verify_main_identity", {"triples": 1000 * s}),
            ("verify_lahmc_equivalence", {"triples": 1000 * s}),
            ("verify_palindromic_coupling", {"transitions": 100 * s}),
        ]}

    def batch(self, ctx, j: int, tracer=None) -> Batch:
        outcomes = []
        t0 = perf_counter()
        for fn_name, kwargs in ctx["calls"]:
            outcomes.append(getattr(verification, fn_name)(seed=ctx["seed"], **kwargs))
        wall = perf_counter() - t0
        problems = [o.line() for o in outcomes if not o.passed]
        digest = _sha(repr(outcomes).encode())
        checks = sum(o.checks for o in outcomes)
        return Batch(wall_s=wall, sample_s=wall, force_evals=0, yield_=float(checks),
                     attempted=len(outcomes), failed=len(problems), digest=digest,
                     extra={o.name: o.worst for o in outcomes}, problems=problems)


WORKLOADS = {w.name: w for w in (Dw2Sweep(), Gauss10Chain(), VerifyBatteries())}
