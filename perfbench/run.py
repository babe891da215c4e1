#!/usr/bin/env python3
"""Benchmark of the xchmc package: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gauss10_chain --seed 1 --seconds 20 --trace 0

The run sets the workload up (timed as ``setup_s``, here and in a fresh
interpreter after every batch), then repeats the workload's closed batch
until ``--seconds`` are spent and checks every batch's outputs.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates traced and untraced
batches and prints the per-layer metrics (see ``tracing.py``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine facts and every metric by name with its unit.  The full result,
per-batch figures included, goes to ``.perfbench_out/``.

The package is imported from ``src/`` of the checkout the script sits in, and
the run exits with status 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("dw2_sweep", "gauss10_chain", "verify_batteries")
MIN_BATCHES = 5             # batches (and fresh-interpreter set-ups) per untraced run
CALIBRATION_STEPS = 20_000  # iterations of the speed yardstick, about 0.1 s
CALIBRATION_REF_S = 0.1     # the yardstick's time at reference speed (see calibration_s)
AR1_POINTS = 100_000        # series length of the ESS cost probe in traced runs

# End-to-end metrics (untraced runs).  "yield" is the workload's useful output:
# effective samples for the two sampling workloads, identity checks for the
# batteries.
UNITS = {
    "setup_s": "s",
    "force_evals_per_s": "1/s",
    "yield_per_kfe": "1/kfe",
    "yield_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def setup_once(workload: str, seed: int, work: Path):
    """Import the package and build the workload's inputs; returns (seconds, workload, ctx)."""
    t0 = perf_counter()
    import xchmc  # noqa: F401  (the import is part of what a user waits for)
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    ctx = wl.setup(seed, work)
    return perf_counter() - t0, wl, ctx


def probe_setup(workload: str, seed: int, work: Path) -> float:
    """Setup time of a fresh interpreter (import caches as a new user process sees them)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy as np

    nproc = None
    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + path.read_bytes())
    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("OPENBLAS_") or k in ("OMP_NUM_THREADS",
                                                             "MKL_NUM_THREADS")},
        "commit": commit,
        "src_sha256": h.hexdigest(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child (sweep workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def calibration_s() -> float:
    """Time of a fixed loop of small numpy operations: the machine-speed yardstick.

    A shared host's speed can drift by tens of percent over seconds to minutes
    (other tenants, frequency scaling), alike for the program and for this loop.  The
    timed end-to-end metrics are therefore scaled to reference speed, where
    the loop takes ``CALIBRATION_REF_S``: a batch's rate is multiplied by the
    yardstick time measured around it over that constant.  The loop is fixed
    code of the benchmark, so a change to the program cannot move it.
    """
    import numpy as np

    x, y, v = np.zeros(8), np.ones(8), np.linspace(0.5, 6.0, 8)
    t0 = perf_counter()
    for _ in range(CALIBRATION_STEPS):
        g = x / v
        if not np.isfinite(g).all():
            break
        y = y - 0.2 * g
        x = x + 0.4 * y
        float(x @ x)
    return perf_counter() - t0


def run_window(run_batch, seconds: float, min_batches: int) -> list:
    """Call ``run_batch(i)`` for i = 0, 1, ... while the next call still fits in ``seconds``."""
    batches = []
    t0 = perf_counter()
    while True:
        ti = perf_counter()
        batches.append(run_batch(len(batches)))
        now = perf_counter()
        if len(batches) >= min_batches and (now - t0) + (now - ti) > seconds:
            return batches


def ar1_ess_seconds(seed: int) -> float:
    """Median of three ESS calls on an AR(1) series, phi = 0.99, n = AR1_POINTS."""
    import numpy as np
    from xchmc.diagnostics import ess_initial_monotone

    noise = np.random.default_rng(seed).standard_normal(AR1_POINTS)
    series = np.empty(AR1_POINTS)
    level = 0.0
    for i, e in enumerate(noise.tolist()):
        level = 0.99 * level + e
        series[i] = level
    times = []
    for _ in range(3):
        t0 = perf_counter()
        ess_initial_monotone(series)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Checks:
    """Tally of the benchmark's own checks; each failure counts in ``failed``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def add_batch(self, b) -> None:
        self.attempted += b.attempted
        self.failed += b.failed
        self.problems += b.problems


def pooled_efficiency(batches, distinct: int) -> float:
    """Yield per 1000 force evaluations, pooled over the distinct input sets."""
    first = batches[:distinct]
    return 1000.0 * sum(b.yield_ for b in first) / sum(b.force_evals for b in first)


def check_repeats(batches, distinct: int, checks: Checks) -> None:
    for i, b in enumerate(batches[distinct:], start=distinct):
        checks.add(b.digest == batches[i % distinct].digest,
                   f"batch {i} differs from batch {i % distinct} on the same inputs")


def untraced_run(args, wl, ctx, setup_s: float, work: Path, checks: Checks):
    from tracing import Tracer

    # One fresh-interpreter set-up after each batch, so that the median covers
    # the machine's state over the whole run rather than one moment of it.
    # The yardstick runs before and after each batch.
    yard = [calibration_s()]
    setup = [setup_s * CALIBRATION_REF_S / yard[0]]

    def run_batch(i):
        before = yard[-1]
        b = wl.batch(ctx, i % wl.distinct)
        yard.append(calibration_s())
        b.speed = 0.5 * (before + yard[-1]) / CALIBRATION_REF_S
        setup.append(probe_setup(args.workload, args.seed, work)
                     * CALIBRATION_REF_S / yard[-1])
        return b

    batches = run_window(run_batch, args.seconds, min_batches=max(wl.distinct, MIN_BATCHES))
    rss = peak_rss_mb()
    for b in batches:
        checks.add_batch(b)
    if batches[0].force_evals == 0:
        # Only the batteries hide their force evaluations: count them in one
        # traced batch per input set after the timed window; it must
        # reproduce the untraced outputs.
        for j in range(wl.distinct):
            tracer = Tracer(work / "spool")
            tracer.install()
            mark = tracer.mark()
            try:
                counted = wl.batch(ctx, j, tracer)
            finally:
                broken = tracer.uninstall()
            tracer.layer_metrics(mark, workers=1)
            fe = tracer.last_accounting["gradient_calls"]
            checks.add(not broken, f"names not restored: {broken}")
            checks.add(counted.digest == batches[j].digest,
                       "counting batch changed the battery outputs")
            checks.add(fe == tracer.last_accounting["leg_force_evals"],
                       "gradient calls differ from the legs' force-evaluation counts")
            for b in batches[j::wl.distinct]:
                b.force_evals = fe
    check_repeats(batches, wl.distinct, checks)
    per_kfe = pooled_efficiency(batches, wl.distinct)
    metrics = {
        "setup_s": statistics.median(setup),
        "force_evals_per_s": statistics.median(b.force_evals * b.speed / b.sample_s
                                               for b in batches),
        "yield_per_kfe": per_kfe,
        "yield_per_s": per_kfe / 1000.0 * statistics.median(
            b.force_evals * b.speed / b.wall_s for b in batches),
        "peak_rss_mb": rss,
    }
    raw = {"setup_s": statistics.median(s * y / CALIBRATION_REF_S
                                        for s, y in zip(setup, yard)),
           "force_evals_per_s": statistics.median(b.force_evals / b.sample_s
                                                  for b in batches)}
    detail = {"setup_samples_s": setup, "yardstick_s": yard, "uncalibrated": raw}
    return metrics, batches, detail


def traced_run(args, wl, ctx, work: Path, checks: Checks):
    import numpy as np
    from tracing import Tracer

    tracer = Tracer(work / "spool")
    workers = ctx.get("workers", 1)

    # Set the workload up once more under the tracer, for harness.parse_spec_s.
    tracer.install()
    mark = tracer.mark()
    try:
        wl.setup(args.seed, work)
    finally:
        broken = tracer.uninstall()
    parse_spec_s = tracer.layer_metrics(mark, workers)["harness.parse_spec_s"]

    # Traced and untraced batches alternate, each pair on the same input set.
    def run_batch(i):
        j = (i // 2) % wl.distinct
        if i % 2 == 1:
            return wl.batch(ctx, j)
        tracer.install()
        m = tracer.mark()
        try:
            b = wl.batch(ctx, j, tracer)
        finally:
            broken.extend(tracer.uninstall())
        b.layers = tracer.layer_metrics(m, workers)
        b.accounting = dict(tracer.last_accounting)
        b.traced = True
        return b

    batches = run_window(run_batch, args.seconds, min_batches=2)
    traced = [b for b in batches if b.traced]
    plain = [b for b in batches if not b.traced]
    for b in batches:
        checks.add_batch(b)
    checks.add(not broken, f"names not restored: {broken}")
    for i in range(1, len(batches), 2):
        checks.add(batches[i].digest == batches[i - 1].digest,
                   f"traced batch {i - 1} and untraced batch {i} produced different outputs")
    check_repeats(batches, 2 * wl.distinct, checks)
    for b in traced:
        acc = b.accounting
        checks.add(acc["gradient_calls"] == acc["leg_force_evals"],
                   f"gradient calls {acc['gradient_calls']} != leg force evals "
                   f"{acc['leg_force_evals']}")
        if b.force_evals:  # the sampling workloads: every gradient call is recorded
            candidates = acc["replica_candidates"] or b.record_candidates
            checks.add(acc["gradient_calls"] == b.force_evals,
                       f"gradient calls {acc['gradient_calls']} != record force evals "
                       f"{b.force_evals}")
            checks.add(candidates == acc["step_candidates"],
                       f"records hold {candidates} candidates, steps report "
                       f"{acc['step_candidates']}")
            checks.add(acc["legs"] == acc["step_legs"],
                       f"{acc['legs']} legs, {acc['step_legs']} of them inside transitions")
            checks.add(acc["bad_steps"] == 0,
                       f"{acc['bad_steps']} transitions whose legs do not match "
                       f"their candidates")
            checks.add(acc["legs"] + acc["skipped_candidates"] == candidates,
                       f"legs {acc['legs']} + candidates skipped after a divergence "
                       f"{acc['skipped_candidates']} != candidates {candidates}")
    layers = {k: float(np.median([b.layers[k] for b in traced])) for k in traced[0].layers}
    layers["harness.parse_spec_s"] = parse_spec_s
    layers["diagnostics.ess_first_call_s"] = tracer.first_ess_call_s()
    layers["diagnostics.ess_ar1_1e5_s"] = ar1_ess_seconds(args.seed)
    steady = traced[1:] or traced
    layers["trace.overhead_frac"] = (statistics.median(b.wall_s for b in steady)
                                     / statistics.median(b.wall_s for b in plain)) - 1.0
    layers["trace.spans"] = float(np.median([b.accounting["spans"] for b in traced]))
    return layers, batches, {}


def named_metrics(workload: str, metrics: dict, failed: int, attempted: int) -> dict:
    """The yield figures under their workload-specific names, and ``failed_frac``."""
    out = {"failed_frac": (failed / attempted, "ratio")}
    if "yield_per_kfe" not in metrics:
        return out
    if workload == "verify_batteries":
        out["checks_per_s"] = (metrics["yield_per_s"], "1/s")
        out["checks_per_kfe"] = (metrics["yield_per_kfe"], "1/kfe")
    else:
        out["ess_per_kfe"] = (metrics["yield_per_kfe"], "1/kfe")
        out["ess_per_s"] = (metrics["yield_per_s"], "1/s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xchmc" / "__init__.py").is_file():
        print(f"perfbench: no xchmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        setup_s, wl, ctx = setup_once(args.workload, args.seed, work)
        import xchmc
        if not Path(xchmc.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: imported xchmc from {xchmc.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        facts = machine_facts()
        if args.trace:
            metrics, batches, detail = traced_run(args, wl, ctx, work, checks)
        else:
            metrics, batches, detail = untraced_run(args, wl, ctx, setup_s, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from tracing import LAYER_UNITS
    named = named_metrics(args.workload, metrics, checks.failed, checks.attempted)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {k: {"value": v, "unit": UNITS.get(k) or LAYER_UNITS[k]}
                          for k, v in metrics.items()}}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": facts, "result": result,
        "named": {k: v for k, (v, _) in named.items()},
        "problems": checks.problems, **detail,
        "batches": [{"wall_s": b.wall_s, "sample_s": b.sample_s,
                     "force_evals": b.force_evals, "yield": b.yield_, "digest": b.digest,
                     "traced": b.traced, "speed": b.speed, **b.extra} for b in batches],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} batches={len(batches)} digest={batches[0].digest[:16]}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")
    for name, (value, unit) in named.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    for name, value in detail.get("uncalibrated", {}).items():
        print(f"  {name + ' (uncalibrated)':38s} {value:14.6g} {UNITS[name]}")
    for problem in checks.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
