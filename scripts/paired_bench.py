#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, alternating which side runs first.

Usage (from the repository root)::

    mkdir -p /tmp/xchmc-parent
    git archive HEAD~1 | tar -x -C /tmp/xchmc-parent
    python3 scripts/paired_bench.py --parent /tmp/xchmc-parent --out BENCH_topic.json

Pair i runs ``perfbench/run.py --seed 11+i --trace 0`` in each checkout, for
the ``run_seconds`` of ``BENCHMARK.json``, the parent first on even i.  Each
end-to-end metric is summarised over the 10 pairs: both sides' medians and
quartiles, the pairs the change won (ties count for neither), the gain rule
(at least 9 wins and a median gain above the parent's quartile distance) and
the change's median as a share of the parent's, next to the metric's bound.
Three traced pairs, alternating in the same way so that host drift does not
show up as a per-layer difference, then give each side's per-layer medians.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 11
TRACED_RUNS = 3


def load_spread(side: str, checkout: Path):
    """The ``perfbench/spread.py`` module of ``checkout``; its ``run_once`` runs there."""
    spec = importlib.util.spec_from_file_location(f"spread_{side}",
                                                  checkout / "perfbench" / "spread.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def metric_values(run: dict) -> dict:
    return {k: m["value"] for k, m in run["result"]["metrics"].items()}


def compare(runs: list[dict], metric: str, better: str, bound: float, spread) -> dict:
    """Gain rule and regression share of one end-to-end metric over the pairs."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"][metric]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs.values())
    parent = spread([p["parent"] for p in pairs.values()])
    change = spread([p["change"] for p in pairs.values()])
    gain = sign * (change["median"] - parent["median"])
    worse = -gain / abs(parent["median"]) if parent["median"] else 0.0
    return {"parent": parent, "change": change, "wins": wins,
            "ties": sum(p["change"] == p["parent"] for p in pairs.values()),
            "change_over_parent": (change["median"] / parent["median"]
                                   if parent["median"] else None),
            "gain_rule_met": wins >= 0.9 * PAIRS and gain > parent["q3"] - parent["q1"],
            "worse_share": worse, "bound": bound, "within_bound": worse <= bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spread_of = {side: load_spread(side, path) for side, path in checkouts.items()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"pairs": PAIRS, "first_seed": FIRST_SEED, "run_seconds": seconds,
           "traced_runs": TRACED_RUNS, "machine": {}, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            for position, side in enumerate(SIDES if i % 2 == 0 else SIDES[::-1]):
                r = spread_of[side].run_once(workload, seed, seconds, 0)
                out["machine"][side] = r["machine"]
                runs.append({"seed": seed, "side": side, "order": position,
                             "correct": r["result"]["correct"],
                             "failed": r["result"]["failed"],
                             "attempted": r["result"]["attempted"],
                             "metrics": metric_values(r), "uncalibrated": r["uncalibrated"],
                             "digest": r["digest"]})
                print(f"{workload} seed {seed} {side}: "
                      f"force_evals_per_s={runs[-1]['metrics']['force_evals_per_s']:.0f} "
                      f"correct={runs[-1]['correct']}", flush=True)
        digests = {}
        for r in runs:
            digests.setdefault(r["seed"], set()).add(r["digest"])
        summary = {m["name"]: compare(runs, m["name"], m["better"], m["bound"],
                                      spread_of["change"].spread)
                   for m in bench["end_to_end"]}
        t = {side: [] for side in SIDES}
        for j in range(TRACED_RUNS):
            for side in SIDES if j % 2 == 0 else SIDES[::-1]:
                t[side].append(spread_of[side].run_once(workload, FIRST_SEED + j, seconds, 1))
        traced = {side: {"all_correct": all(r["result"]["correct"] for r in t[side]),
                         "layers": {k: statistics.median(metric_values(r)[k] for r in t[side])
                                    for k in t[side][0]["result"]["metrics"]}}
                  for side in SIDES}
        out["workloads"][workload] = {
            "runs": runs, "summary": summary, "traced": traced,
            "all_correct": all(r["correct"] for r in runs),
            "same_outputs": all(len(d) == 1 for d in digests.values())}
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        fe = summary["force_evals_per_s"]
        print(f"{workload}: force_evals_per_s parent {fe['parent']['median']:.0f} "
              f"change {fe['change']['median']:.0f}, wins {fe['wins']}/{PAIRS}, "
              f"gain rule met: {fe['gain_rule_met']}, "
              f"same outputs: {out['workloads'][workload]['same_outputs']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
