#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady each metric is.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 10 --first-seed 1
    python3 perfbench/spread.py --workloads dw2_sweep --seeds 5 --traced 0

For every workload it runs ``run.py`` once per seed, untraced, and reports
for each end-to-end metric the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, next to the metric's
bound in ``BENCHMARK.json``.  It then runs the first seed again and checks
that ``yield_per_kfe`` (ESS per 1000 force evaluations on the sampling
workloads) repeats exactly, so the cross-seed spread can be told apart from a
change of efficiency under a new random stream.  ``--traced N`` adds N traced
runs per workload; they report the per-layer medians, how many runs showed
the first-call ESS stall, and whether each traced run reproduced the digest
of the untraced run at its seed.  The summary goes to standard output and to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STALL_S = 0.1   # a first ESS call slower than this counts as the BLAS start-up stall


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "digest": record["batches"][0]["digest"],
            "uncalibrated": record.get("uncalibrated", {}), "machine": record["machine"]}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out" / "spread.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs = {s: run_once(workload, s, args.seconds, 0) for s in seeds}
        report["machine"] = runs[seeds[0]]["machine"]
        failures = [s for s, r in runs.items() if not r["result"]["correct"]]
        metrics = {}
        for name in runs[seeds[0]]["result"]["metrics"]:
            metrics[name] = spread([r["result"]["metrics"][name]["value"]
                                    for r in runs.values()])
            metrics[name]["bound"] = bounds[name]
        uncalibrated = {name: spread([r["uncalibrated"][name] for r in runs.values()])
                        for name in runs[seeds[0]]["uncalibrated"]}
        repeat = run_once(workload, seeds[0], args.seconds, 0)
        first = runs[seeds[0]]["result"]["metrics"]["yield_per_kfe"]["value"]
        again = repeat["result"]["metrics"]["yield_per_kfe"]["value"]
        entry = {"seeds": seeds, "incorrect_seeds": failures, "metrics": metrics,
                 "uncalibrated": uncalibrated,
                 "yield_per_kfe_repeat": {"seed": seeds[0], "first": first, "again": again,
                                          "identical": first == again,
                                          "same_digest": repeat["digest"]
                                          == runs[seeds[0]]["digest"]}}
        if args.traced:
            traced = {s: run_once(workload, s, args.seconds, 1) for s in seeds[:args.traced]}
            layers = {name: statistics.median(t["result"]["metrics"][name]["value"]
                                              for t in traced.values())
                      for name in next(iter(traced.values()))["result"]["metrics"]}
            entry["traced"] = {
                "runs": len(traced),
                "incorrect_runs": [s for s, t in traced.items() if not t["result"]["correct"]],
                "digest_matches_untraced": all(t["digest"] == runs[s]["digest"]
                                               for s, t in traced.items()),
                "ess_first_call_s": [t["result"]["metrics"]["diagnostics.ess_first_call_s"]
                                     ["value"] for t in traced.values()],
                "stalled_runs": sum(t["result"]["metrics"]["diagnostics.ess_first_call_s"]
                                    ["value"] > STALL_S for t in traced.values()),
                "layer_medians": layers,
            }
        report["workloads"][workload] = entry

        print(f"{workload}: {len(seeds)} seeds x {args.seconds:g} s, "
              f"incorrect: {failures or 'none'}")
        for name, m in metrics.items():
            flag = "ok" if m["spread"] <= m["bound"] / 3 else (
                "within bound" if m["spread"] <= m["bound"] else "TOO WIDE")
            print(f"  {name:20s} median {m['median']:12.6g}  q1 {m['q1']:12.6g}  "
                  f"q3 {m['q3']:12.6g}  spread {m['spread']:7.4f}  bound {m['bound']:.2f}  {flag}")
        for name, m in uncalibrated.items():
            print(f"  {name + ' (uncalibrated)':34s} median {m['median']:12.6g}  "
                  f"spread {m['spread']:7.4f}")
        rep = entry["yield_per_kfe_repeat"]
        print(f"  yield_per_kfe at seed {rep['seed']}: {rep['first']!r} then {rep['again']!r} "
              f"(identical: {rep['identical']}); cross-seed spread "
              f"{metrics['yield_per_kfe']['spread']:.4f}")
        if args.traced:
            t = entry["traced"]
            print(f"  traced runs {t['runs']}: incorrect {t['incorrect_runs'] or 'none'}, "
                  f"digest matches untraced: {t['digest_matches_untraced']}, "
                  f"ESS first-call stall (> {STALL_S} s) in {t['stalled_runs']} run(s)")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
