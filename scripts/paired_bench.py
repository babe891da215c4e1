#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, alternating which side runs first.

Usage (from the repository root, with the change committed)::

    python3 scripts/paired_bench.py --out BENCH_topic.json
    python3 scripts/paired_bench.py --parent HEAD~2 --out BENCH_topic.json

The change side is the checkout ``--change`` (default: this one).  The parent
side is the git revision ``--parent`` (default ``HEAD~1``) of that checkout's
repository, exported with ``git archive`` into a temporary directory that is
removed afterwards.  The output records both sides' full commit hashes under
``commits``, since the exported tree has no ``.git`` to tell its own.

Pair i runs ``perfbench/run.py --seed 11+i --trace 0`` in each checkout, for
the ``run_seconds`` of ``BENCHMARK.json``, the parent first on even i.  Each
end-to-end metric is summarised over the 10 pairs: both sides' medians and
quartiles, the pairs the change won (ties count for neither), the gain rule
(at least 9 wins and a median gain above the parent's quartile distance) and
the change's median as a share of the parent's, next to the metric's bound.
A seed's outputs count as the same (``same_outputs``) when both sides' runs
give the same sorted digests over all of their batches.
Three traced pairs, alternating in the same way so that host drift does not
show up as a per-layer difference, then give each side's per-layer medians.
``force_evals_per_s_log_ratio`` holds the mean over the pairs of
log(change / parent) of ``force_evals_per_s``, with its 95 % t interval: the
size of effect the run could resolve.

``work_counts`` holds each side's exact work counts, from one untimed batch at
seed ``first_seed``, run in a fresh interpreter in that side's checkout with
the sweep's replicas in-process (see :func:`count_batch`): the Python calls
into the ``xchmc`` package and the C calls made from them, per transition and
per force evaluation, with the interpreter and numpy versions they hold for.

For a side that is a git checkout, ``src_edited`` records whether its
``src/`` has uncommitted changes (None for a side that is not a checkout, such
as the exported parent).  The script stops before any run when the change
side's ``src/`` has them, since the runs would then not measure the committed
tree.

The work runs in a child process that leads a process group of its own, which
the runs and their sweep workers join.  SIGTERM, SIGINT or SIGHUP to the script
stops that group and nothing else: the runs end, and the child removes the
exported parent on its way out.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 11
TRACED_RUNS = 3
T975 = 2.2621571628  # Student's t 0.975 quantile at PAIRS - 1 = 9 degrees of freedom
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


def load_spread(side: str, checkout: Path):
    """The ``perfbench/spread.py`` module of ``checkout``; its ``run_once`` runs there."""
    spec = importlib.util.spec_from_file_location(f"spread_{side}",
                                                  checkout / "perfbench" / "spread.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)


def src_edited(checkout: Path) -> bool | None:
    """Whether ``src/`` of ``checkout`` has uncommitted changes; None outside a git checkout."""
    top = git(checkout, "rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != checkout:
        return None
    status = git(checkout, "status", "--porcelain", "--", "src")
    if status.returncode:
        raise RuntimeError(f"git status failed in {checkout}: {status.stderr.strip()}")
    return bool(status.stdout.strip())


def commit_of(checkout: Path, revision: str) -> str:
    """The full hash of the commit ``revision`` names in the repository of ``checkout``."""
    out = git(checkout, "rev-parse", "--verify", "--end-of-options", f"{revision}^{{commit}}")
    if out.returncode:
        raise RuntimeError(f"{revision!r} is not a commit of {checkout}: {out.stderr.strip()}")
    return out.stdout.strip()


def export(checkout: Path, commit: str, dest: Path) -> None:
    """The tree of ``commit`` written into ``dest``, as ``git archive | tar -x`` writes it."""
    archive = subprocess.run(["git", "-C", str(checkout), "archive", commit],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def metric_values(run: dict) -> dict:
    return {k: m["value"] for k, m in run["result"]["metrics"].items()}


def batch_digests(checkout: Path, workload: str, seed: int) -> list[str]:
    """The distinct output digests of every batch of an untraced run in ``checkout``.

    Repeats of an input set must give one digest within a run, so this is one
    digest per input set, whatever number of batches fit in the run.
    """
    record = json.loads((checkout / ".perfbench_out"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    return sorted({b["digest"] for b in record["batches"]})


def paired(runs: list[dict], metric: str) -> dict:
    """``{seed: {side: value}}`` of one metric."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"][metric]
    return pairs


def log_ratio_interval(runs: list[dict], metric: str) -> dict:
    """Mean over the pairs of log(change / parent) of ``metric``, and its 95 % t interval."""
    logs = [math.log(p["change"] / p["parent"]) for p in paired(runs, metric).values()]
    if len(logs) != PAIRS:
        raise ValueError(f"{len(logs)} pairs; T975 holds for {PAIRS}")
    mean = statistics.fmean(logs)
    half = T975 * statistics.stdev(logs) / math.sqrt(len(logs))
    return {"mean": mean, "ci95": [mean - half, mean + half]}


def count_batch(checkout: Path, workload: str, seed: int) -> dict:
    """Exact work counts of one untimed batch of ``workload`` at ``seed`` in ``checkout``.

    It imports the package from ``checkout/src`` and the workloads from
    ``checkout/perfbench``, so it runs in an interpreter of its own
    (:func:`work_counts`).  The workload's pool has one worker, so a sweep runs
    its replicas in this process.  ``sys.setprofile`` counts, in the code of the
    ``xchmc`` package: the Python calls, the C calls made from it, the
    transitions (calls of ``extra_chance_step``) and the force evaluations
    (calls of a function named ``gradient``, as the built-in targets' gradients
    are).  A frame is the package's when its module is, so the methods that
    ``dataclasses`` generates for the package's classes count too.  A batch that
    reports its force evaluations must report the counted ones.
    """
    checkout = checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import numpy
    workloads = importlib.import_module("workloads")
    package = Path(sys.modules["xchmc"].__file__).resolve().parent
    if package != checkout / "src" / "xchmc":
        raise RuntimeError(f"imported xchmc from {package}, not from {checkout / 'src'}")
    workloads._workers = lambda: 1
    n = {"python_calls": 0, "c_calls": 0, "transitions": 0, "force_evals": 0}

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            if frame.f_globals.get("__name__", "").partition(".")[0] != "xchmc":
                return
            if event == "c_call":
                n["c_calls"] += 1
                return
            n["python_calls"] += 1
            name = frame.f_code.co_name
            if name == "extra_chance_step":
                n["transitions"] += 1
            elif name == "gradient":
                n["force_evals"] += 1

    wl = workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="xchmc-count-") as work:
        ctx = wl.setup(seed, Path(work))
        sys.setprofile(profile)
        try:
            batch = wl.batch(ctx, 0)
        finally:
            sys.setprofile(None)
    if batch.force_evals and batch.force_evals != n["force_evals"]:
        raise RuntimeError(f"{workload}: the batch reports {batch.force_evals} force "
                           f"evaluations, the profile counted {n['force_evals']}")
    for calls in ("python_calls", "c_calls"):
        for per, total in (("transition", "transitions"), ("force_eval", "force_evals")):
            n[f"{calls}_per_{per}"] = n[calls] / n[total] if n[total] else None
    return {**n, "python": platform.python_version(), "numpy": numpy.__version__}


def work_counts(checkout: Path, workload: str, seed: int) -> dict:
    """:func:`count_batch` in a fresh interpreter, which writes no bytecode."""
    code = ("import json, sys; from pathlib import Path; import paired_bench; "
            "print(json.dumps(paired_bench.count_batch(Path(sys.argv[1]), sys.argv[2], "
            "int(sys.argv[3]))))")
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(checkout), workload, str(seed)],
                          cwd=checkout, env={**os.environ, "PYTHONPATH": str(ROOT / "scripts")},
                          capture_output=True, text=True, timeout=1800)
    if proc.returncode:
        raise RuntimeError(f"counting {workload} in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(runs: list[dict], metric: str, better: str, bound: float, spread) -> dict:
    """Gain rule and regression share of one end-to-end metric over the pairs."""
    pairs = paired(runs, metric)
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
    parser.add_argument("--parent", default="HEAD~1",
                        help="git revision of the parent side (default: HEAD~1)")
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    change = args.change.resolve()
    if src_edited(change):
        print(f"{change}/src has uncommitted changes; commit them first", file=sys.stderr)
        return 1
    commits = {"parent": commit_of(change, args.parent), "change": commit_of(change, "HEAD")}
    with tempfile.TemporaryDirectory(prefix="xchmc-parent-") as parent:
        export(change, commits["parent"], Path(parent))
        run_pairs({"parent": Path(parent).resolve(), "change": change}, commits, args.out)
    return 0


def run_pairs(checkouts: dict, commits: dict, out_path: Path) -> None:
    """Paired and traced runs of both checkouts, written to ``out_path`` after each workload."""
    edited = {side: src_edited(path) for side, path in checkouts.items()}
    spread_of = {side: load_spread(side, path) for side, path in checkouts.items()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"pairs": PAIRS, "first_seed": FIRST_SEED, "run_seconds": seconds,
           "traced_runs": TRACED_RUNS, "commits": commits, "src_edited": edited,
           "machine": {}, "workloads": {}}
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
                             "digests": batch_digests(checkouts[side], workload, seed)})
                print(f"{workload} seed {seed} {side}: "
                      f"force_evals_per_s={runs[-1]['metrics']['force_evals_per_s']:.0f} "
                      f"correct={runs[-1]['correct']}", flush=True)
        digests = {}
        for r in runs:
            digests.setdefault(r["seed"], set()).add(tuple(r["digests"]))
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
        counts = {side: work_counts(path, workload, FIRST_SEED)
                  for side, path in checkouts.items()}
        out["workloads"][workload] = {
            "runs": runs, "summary": summary, "traced": traced, "work_counts": counts,
            "force_evals_per_s_log_ratio": log_ratio_interval(runs, "force_evals_per_s"),
            "all_correct": all(r["correct"] for r in runs),
            "same_outputs": all(len(d) == 1 for d in digests.values())}
        out_path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        fe = summary["force_evals_per_s"]
        print(f"{workload}: force_evals_per_s parent {fe['parent']['median']:.0f} "
              f"change {fe['change']['median']:.0f}, wins {fe['wins']}/{PAIRS}, "
              f"gain rule met: {fe['gain_rule_met']}, "
              f"same outputs: {out['workloads'][workload]['same_outputs']}; Python calls "
              f"per transition parent {counts['parent']['python_calls_per_transition']} "
              f"change {counts['change']['python_calls_per_transition']}", flush=True)


def _unwind(signum, frame):
    """Leave the work through its cleanup, once: later stop signals are ignored."""
    for s in STOP_SIGNALS:
        signal.signal(s, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def in_own_group(work) -> int:
    """The exit code of ``work()``, run in a forked child that leads a new process group.

    Every process the child starts joins that group, which this process
    created, so a stop signal here is passed on as SIGTERM to exactly that
    group: the child's ``subprocess.run`` kills the run it waits on, and the
    child unwinds through its cleanup.  When the child has exited, whatever
    is left of the group is killed, and a stopped script exits with 128 plus
    the number of the signal it received.  The stop signals stay blocked from the
    fork until each side has its handlers, so none is lost in between.  It
    forks, so it is called before any thread starts.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
    pid = os.fork()
    if pid == 0:
        os.setpgid(0, 0)
        for s in STOP_SIGNALS:
            signal.signal(s, _unwind)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
        # The child never returns into the caller's frames: every way out of
        # ``work`` ends in ``os._exit``.
        try:
            code = work()
        except SystemExit as exc:  # argparse's exits and the stop signals
            code = exc.code or 0
        except BaseException:
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)

    try:
        os.setpgid(pid, pid)  # the child does it too; whichever runs first makes the group
    except OSError:
        pass
    received = []

    def stop(signum, frame):
        received.append(signum)
        _signal_group(pid, signal.SIGTERM)

    for s in STOP_SIGNALS:
        signal.signal(s, stop)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
    # Wait without reaping, so that the group's id cannot be reused before it is stopped.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    _signal_group(pid, signal.SIGKILL)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return 128 + received[0] if received else code


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:  # no process is left in the group
        pass


if __name__ == "__main__":
    sys.exit(in_own_group(main))
