"""Out-of-tree tracing of the xchmc layers.

The tracer never edits ``src/``.  It rebinds the module-level names each layer
calls into (``xchmc.sampler.verlet_leg``, ``xchmc.harness.run_chain``, ...),
wraps ``PhaseState.__post_init__`` to count validations, and hands out targets
whose ``gradient``/``potential`` are timed callables built with
``dataclasses.replace``.  :meth:`Tracer.uninstall` puts every original object
back and reports any name that is not restored.

Spans live in memory as compact arrays (kind, start, end, parent) plus a few
per-kind payload lists.  Sweep workers are forked, so they inherit the
rebound names; after each replica a worker appends its spans to a spool file
of its own, and the parent merges the spool when ``run_experiment`` returns.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import xchmc.diagnostics as diagnostics
import xchmc.harness as harness
import xchmc.integrator as integrator
import xchmc.phase as phase
import xchmc.sampler as sampler
import xchmc.verification as verification
from xchmc.integrator import DivergedLeg

KINDS = (
    "phase.gradient", "phase.potential", "phase.log_rho",
    "integrator.leg",
    "sampler.refresh", "sampler.step", "sampler.run_chain",
    "sampler.sigma_sequence", "sampler.lahmc",
    "diagnostics.ess", "diagnostics.estimate_average", "diagnostics.main_identity",
    "verification.reversibility", "verification.volume", "verification.main_identity",
    "verification.lahmc", "verification.palindromic",
    "harness.parse_spec", "harness.run_experiment", "harness.replica",
    "harness.write_csv", "harness.summary_json",
)
KIND = {name: i for i, name in enumerate(KINDS)}

# Names rebound to a span wrapper: span kind -> (owner, attribute) pairs.  Every
# module that imported a function under its own name is listed, because the
# callers look the name up in their own module globals.
_SPANNED = {
    "sampler.refresh": [(sampler, "refresh_momentum")],
    "sampler.run_chain": [(sampler, "run_chain"), (harness, "run_chain"),
                          (verification, "run_chain")],
    "sampler.sigma_sequence": [(sampler, "sigma_sequence"), (diagnostics, "sigma_sequence"),
                               (verification, "sigma_sequence")],
    "sampler.lahmc": [(sampler, "lahmc_probabilities"), (verification, "lahmc_probabilities")],
    "phase.log_rho": [(phase, "log_rho"), (sampler, "log_rho"), (diagnostics, "log_rho")],
    "diagnostics.estimate_average": [(diagnostics, "estimate_average"),
                                     (harness, "estimate_average")],
    "diagnostics.main_identity": [(diagnostics, "check_main_identity"),
                                  (verification, "check_main_identity")],
    "verification.reversibility": [(verification, "verify_reversibility")],
    "verification.volume": [(verification, "verify_volume")],
    "verification.main_identity": [(verification, "verify_main_identity")],
    "verification.lahmc": [(verification, "verify_lahmc_equivalence")],
    "verification.palindromic": [(verification, "verify_palindromic_coupling")],
    "harness.parse_spec": [(harness, "parse_spec")],
    "harness.summary_json": [(harness.SummaryReport, "json_bytes")],
}

# Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {
    "phase.gradient_calls": "count", "phase.potential_calls": "count",
    "phase.gradient_us": "us", "phase.log_rho_us": "us",
    "phase.state_validations_per_fe": "count",
    "integrator.legs": "count", "integrator.diverged_legs": "count",
    "integrator.leg_self_us": "us",
    "sampler.transitions": "count", "sampler.refresh_us": "us",
    "sampler.step_self_us": "us", "sampler.step_us_p99": "us",
    "sampler.driver_self_s": "s", "sampler.candidates_per_transition": "count",
    "sampler.useful_leg_ratio": "ratio", "sampler.skipped_candidates": "count",
    "sampler.flip_frac": "ratio",
    "sampler.force_evals_per_transition": "count",
    "sampler.eager_orbit_us": "us", "sampler.lahmc_us": "us",
    "diagnostics.ess_calls": "count", "diagnostics.ess_points": "count",
    "diagnostics.ess_us": "us", "diagnostics.ess_first_call_s": "s",
    "diagnostics.ess_ar1_1e5_s": "s", "diagnostics.observable_self_s": "s",
    "diagnostics.main_identity_us": "us",
    "verification.reversibility_s": "s", "verification.volume_s": "s",
    "verification.main_identity_s": "s", "verification.lahmc_s": "s",
    "verification.palindromic_s": "s",
    "harness.parse_spec_s": "s", "harness.replica_median_s": "s",
    "harness.replica_max_s": "s", "harness.worker_busy_frac": "ratio",
    "harness.result_bytes": "bytes", "harness.csv_write_s": "s",
    "harness.csv_bytes": "bytes", "harness.summary_json_s": "s",
    "harness.serial_tail_s": "s", "harness.failed_replicas": "count",
    "trace.overhead_frac": "ratio", "trace.spans": "count",
}


def record_nbytes(record) -> int:
    """Bytes of array data a worker pickles back for one chain record."""
    return sum(getattr(record, f.name).nbytes for f in dataclasses.fields(record)
               if isinstance(getattr(record, f.name), np.ndarray))


class Tracer:
    """Span recorder plus the set of rebound names it installed."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.kind = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.validations = 0
        # Per-kind payloads, one entry per span of that kind, in span order.
        self.leg_info: list[tuple[int, int]] = []        # (force evals, diverged)
        # (force evals, candidates, flipped, legs run, 1-based index of the diverged leg or 0)
        self.step_info: list[tuple[int, int, int, int, int]] = []
        self.ess_info: list[tuple[int, int]] = []        # (points, first call in process)
        self.replica_info: list[dict] = []
        self.csv_bytes = 0
        self._ess_pids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, kind: int) -> int:
        i = len(self.start)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def _spanned(self, name: str, fn):
        kind = KIND[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return wrapper

    # -- wrappers with payloads -------------------------------------------------

    def timed_model(self, model):
        grad, pot = model.gradient, model.potential
        kg, kp = KIND["phase.gradient"], KIND["phase.potential"]

        def gradient(x):
            i = self._open(kg)
            try:
                return grad(x)
            finally:
                self._close(i)

        def potential(x):
            i = self._open(kp)
            try:
                return pot(x)
            finally:
                self._close(i)
        return dataclasses.replace(model, gradient=gradient, potential=potential)

    def _wrap_builtin_target(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.timed_model(fn(*args, **kwargs))
        return wrapper

    def _wrap_leg(self, fn):
        kind = KIND["integrator.leg"]

        @functools.wraps(fn)
        def wrapper(model, spec, z):
            i = self._open(kind)
            try:
                out = fn(model, spec, z)
            except DivergedLeg as err:
                self.leg_info.append((err.force_evals, 1))
                raise
            finally:
                self._close(i)
            self.leg_info.append((out[1], 0))
            return out
        return wrapper

    def _wrap_step(self, fn):
        kind = KIND["sampler.step"]

        @functools.wraps(fn)
        def wrapper(model, config, z, rng):
            first_leg = len(self.leg_info)
            i = self._open(kind)
            try:
                out = fn(model, config, z, rng)
            finally:
                self._close(i)
            legs = [d for _, d in self.leg_info[first_leg:]]
            diverged_at = legs.index(1) + 1 if 1 in legs else 0
            self.step_info.append((out.force_evals, out.candidates_computed,
                                   int(out.slot == config.extra_chances + 2),
                                   len(legs), diverged_at))
            return out
        return wrapper

    def _wrap_ess(self, fn):
        kind = KIND["diagnostics.ess"]

        @functools.wraps(fn)
        def wrapper(series):
            pid = os.getpid()
            first = pid not in self._ess_pids
            self._ess_pids.add(pid)
            i = self._open(kind)
            try:
                return fn(series)
            finally:
                self._close(i)
                self.ess_info.append((int(np.size(series)), int(first)))
        return wrapper

    def _wrap_csv(self, fn):
        kind = KIND["harness.write_csv"]

        @functools.wraps(fn)
        def wrapper(record, path, include_momenta=False):
            i = self._open(kind)
            try:
                fn(record, path, include_momenta=include_momenta)
            finally:
                self._close(i)
            self.csv_bytes += os.path.getsize(path)
        return wrapper

    def _wrap_replica(self, fn):
        """Replica runner; in a forked worker it ships its spans to the spool."""
        kind = KIND["harness.replica"]

        @functools.wraps(fn)
        def wrapper(payload):
            since = self.mark()
            saved_stack, self.stack = self.stack, []
            i = self._open(kind)
            try:
                res = fn(payload)
            finally:
                self._close(i)
                self.stack = saved_stack
            record = res["record"]
            info = {"result_bytes": 0 if record is None else record_nbytes(record),
                    "force_evals": 0 if record is None else record.total_force_evals,
                    "candidates": 0 if record is None else int(record.candidates.sum()),
                    "failed": int(record is None)}
            if os.getpid() == self.pid:
                self.replica_info.append(info)
            else:
                self._ship(since, info)
            return res
        return wrapper

    def _wrap_run_experiment(self, fn):
        kind = KIND["harness.run_experiment"]

        @functools.wraps(fn)
        def wrapper(spec, workers=1):
            i = self._open(kind)
            try:
                return fn(spec, workers)
            finally:
                self._close(i)
                self._merge_spool(i)
        return wrapper

    def _count_validation(self, fn):
        @functools.wraps(fn)
        def wrapper(state):
            self.validations += 1
            fn(state)
        return wrapper

    # -- worker spool -----------------------------------------------------------

    def _ship(self, since: dict, info: dict) -> None:
        """Append the spans recorded since ``since`` to this worker's spool, then drop them."""
        a, n = since["span"], len(self)
        par = np.frombuffer(self.parent, dtype=np.int64)[a:n].copy()
        par[par >= 0] -= a
        blob = {
            "kind": np.frombuffer(self.kind, dtype=np.int8)[a:n].copy(),
            "start": np.frombuffer(self.start, dtype=np.int64)[a:n].copy(),
            "end": np.frombuffer(self.end, dtype=np.int64)[a:n].copy(),
            "parent": par,
            "leg_info": self.leg_info[since["leg"]:],
            "step_info": self.step_info[since["step"]:],
            "ess_info": self.ess_info[since["ess"]:],
            "validations": self.validations - since["validations"],
            "info": info,
        }
        with open(self.spool_dir / f"worker-{os.getpid()}.pkl", "ab") as fh:
            pickle.dump(blob, fh, protocol=pickle.HIGHEST_PROTOCOL)
        for arr in (self.kind, self.start, self.end, self.parent):
            del arr[a:]
        del self.leg_info[since["leg"]:], self.step_info[since["step"]:]
        del self.ess_info[since["ess"]:]
        self.validations = since["validations"]

    def _merge_spool(self, parent_span: int) -> None:
        for path in sorted(self.spool_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        blob = pickle.load(fh)
                    except EOFError:
                        break
                    offset = len(self)
                    par = blob["parent"]
                    self.kind.extend(blob["kind"].tolist())
                    self.start.extend(blob["start"].tolist())
                    self.end.extend(blob["end"].tolist())
                    self.parent.extend(np.where(par >= 0, par + offset, parent_span).tolist())
                    self.leg_info += blob["leg_info"]
                    self.step_info += blob["step_info"]
                    self.ess_info += blob["ess_info"]
                    self.validations += blob["validations"]
                    self.replica_info.append(blob["info"])
            path.unlink()

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for name, owners in _SPANNED.items():
            wrapper = self._spanned(name, getattr(*owners[0]))
            for owner, attr in owners:
                self._patch(owner, attr, wrapper)
        special = [
            ([(phase, "builtin_target"), (harness, "builtin_target"),
              (verification, "builtin_target")], self._wrap_builtin_target),
            ([(sampler, "verlet_leg"), (integrator, "verlet_leg"),
              (diagnostics, "verlet_leg")], self._wrap_leg),
            ([(sampler, "extra_chance_step")], self._wrap_step),
            ([(diagnostics, "ess_initial_monotone")], self._wrap_ess),
            ([(harness, "write_chain_csv")], self._wrap_csv),
            ([(harness, "_run_replica")], self._wrap_replica),
            ([(harness, "run_experiment")], self._wrap_run_experiment),
            ([(phase.PhaseState, "__post_init__")], self._count_validation),
        ]
        for owners, make in special:
            wrapper = make(getattr(*owners[0]))
            for owner, attr in owners:
                self._patch(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every rebound name; return the names that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        broken = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for owner, attr, original in self._patches
                  if getattr(owner, attr) is not original]
        self._patches.clear()
        return broken

    # -- batch marks ------------------------------------------------------------

    def mark(self) -> dict:
        """Snapshot of the recorder positions; pass to :meth:`layer_metrics`."""
        return {"span": len(self), "leg": len(self.leg_info), "step": len(self.step_info),
                "ess": len(self.ess_info), "replica": len(self.replica_info),
                "validations": self.validations, "csv_bytes": self.csv_bytes}

    def layer_metrics(self, since: dict, workers: int) -> dict:
        """Per-layer figures of the spans recorded after ``since``."""
        a = since["span"]
        kind = np.frombuffer(self.kind, dtype=np.int8)[a:].astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)[a:]
        end = np.frombuffer(self.end, dtype=np.int64)[a:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[a:] - a
        dur = (end - start).astype(float)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        self_ns = dur - child

        def sel(name):
            return kind == KIND[name]

        def total_s(name, own=False):
            return float((self_ns if own else dur)[sel(name)].sum()) / 1e9

        def mean_us(name, own=False):
            m = sel(name)
            return float((self_ns if own else dur)[m].mean()) / 1e3 if m.any() else 0.0

        def count(name):
            return int(sel(name).sum())

        legs = np.array(self.leg_info[since["leg"]:], dtype=np.int64).reshape(-1, 2)
        steps = np.array(self.step_info[since["step"]:], dtype=np.int64).reshape(-1, 5)
        ess = np.array(self.ess_info[since["ess"]:], dtype=np.int64).reshape(-1, 2)
        replicas = self.replica_info[since["replica"]:]
        grad_calls = count("phase.gradient")
        n_steps = steps.shape[0]
        candidates = int(steps[:, 1].sum())
        step_legs = int(steps[:, 3].sum())
        # extra_chance_step counts the candidates after a diverged leg as
        # density-zero candidates without integrating them.
        diverged = steps[:, 4] > 0
        skipped = int((steps[diverged, 1] - steps[diverged, 4]).sum())
        # A transition is accounted for when each of its candidates up to the
        # first diverged leg ran exactly one leg, and a divergence ended in a flip.
        bad_steps = int(np.sum(np.where(diverged,
                                        (steps[:, 3] != steps[:, 4]) | (steps[:, 2] == 0),
                                        steps[:, 3] != steps[:, 1])))
        step_dur = dur[sel("sampler.step")]
        ess_dur = dur[sel("diagnostics.ess")]
        steady = ess_dur[ess[:, 1] == 0] if ess.size else ess_dur

        out = {
            "phase.gradient_calls": grad_calls,
            "phase.potential_calls": count("phase.potential"),
            "phase.gradient_us": mean_us("phase.gradient"),
            "phase.log_rho_us": mean_us("phase.log_rho"),
            "phase.state_validations_per_fe":
                (self.validations - since["validations"]) / grad_calls if grad_calls else 0.0,
            "integrator.legs": count("integrator.leg"),
            "integrator.diverged_legs": int(legs[:, 1].sum()),
            "integrator.leg_self_us": mean_us("integrator.leg", own=True),
            "sampler.transitions": n_steps,
            "sampler.refresh_us": mean_us("sampler.refresh"),
            "sampler.step_self_us":
                float(np.median(self_ns[sel("sampler.step")])) / 1e3 if n_steps else 0.0,
            "sampler.step_us_p99":
                float(np.percentile(step_dur, 99)) / 1e3 if n_steps else 0.0,
            "sampler.driver_self_s": total_s("sampler.run_chain", own=True),
            "sampler.candidates_per_transition": candidates / n_steps if n_steps else 0.0,
            "sampler.useful_leg_ratio":
                float(n_steps - steps[:, 2].sum()) / step_legs if step_legs else 0.0,
            "sampler.skipped_candidates": skipped,
            "sampler.flip_frac": float(steps[:, 2].mean()) if n_steps else 0.0,
            "sampler.force_evals_per_transition":
                float(steps[:, 0].mean()) if n_steps else 0.0,
            "sampler.eager_orbit_us": mean_us("sampler.sigma_sequence"),
            "sampler.lahmc_us": mean_us("sampler.lahmc"),
            "diagnostics.ess_calls": int(ess.shape[0]),
            "diagnostics.ess_points": int(ess[:, 0].sum()),
            "diagnostics.ess_us": float(np.median(steady)) / 1e3 if steady.size else 0.0,
            "diagnostics.observable_self_s":
                total_s("diagnostics.estimate_average", own=True),
            "diagnostics.main_identity_us": mean_us("diagnostics.main_identity"),
        }
        for name in ("reversibility", "volume", "main_identity", "lahmc", "palindromic"):
            out[f"verification.{name}_s"] = total_s(f"verification.{name}")

        rep = sel("harness.replica")
        rep_dur = dur[rep] / 1e9
        runs = np.flatnonzero(sel("harness.run_experiment"))
        tail = busy = 0.0
        for r in runs:
            mine = rep & (parent == r)
            if mine.any():
                last = end[mine].max()
                tail += float(end[r] - last) / 1e9
                busy += float(dur[mine].sum()) / (workers * float(last - start[r]))
        out.update({
            "harness.parse_spec_s": total_s("harness.parse_spec"),
            "harness.replica_median_s": float(np.median(rep_dur)) if rep_dur.size else 0.0,
            "harness.replica_max_s": float(rep_dur.max()) if rep_dur.size else 0.0,
            "harness.worker_busy_frac": busy / runs.size if runs.size else 0.0,
            "harness.result_bytes": sum(r["result_bytes"] for r in replicas),
            "harness.csv_write_s": total_s("harness.write_csv"),
            "harness.csv_bytes": self.csv_bytes - since["csv_bytes"],
            "harness.summary_json_s": total_s("harness.summary_json"),
            "harness.serial_tail_s": tail,
            "harness.failed_replicas": sum(r["failed"] for r in replicas),
        })
        # Exact accounting, checked by the caller against the program's own records.
        self.last_accounting = {
            "gradient_calls": grad_calls,
            "leg_force_evals": int(legs[:, 0].sum()),
            "legs": count("integrator.leg"),
            "step_candidates": candidates,
            "step_legs": step_legs,
            "skipped_candidates": skipped,
            "bad_steps": bad_steps,
            "replica_force_evals": sum(r["force_evals"] for r in replicas),
            "replica_candidates": sum(r["candidates"] for r in replicas),
            "spans": int(dur.size),
        }
        return out

    def first_ess_call_s(self) -> float:
        """Longest first ESS call of any process over the whole run (the BLAS warm-up)."""
        ess = np.array(self.ess_info, dtype=np.int64).reshape(-1, 2)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        kind = np.frombuffer(self.kind, dtype=np.int8)
        ess_dur = dur[kind == KIND["diagnostics.ess"]]
        firsts = ess_dur[ess[:, 1] == 1] if ess.size else ess_dur
        return float(firsts.max()) / 1e9 if firsts.size else 0.0
