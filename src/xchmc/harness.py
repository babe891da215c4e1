"""Benchmark harness: experiment specs, replica sweeps, CSV/JSON reporting."""

from __future__ import annotations

import dataclasses
import json
import math
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from xchmc.diagnostics import estimate_average, make_observable, slot_stats
from xchmc.integrator import LegSpec
from xchmc.phase import PhaseState, _integer, _real, builtin_target
from xchmc.rng import chain_rng
from xchmc.sampler import Budget, ChainRecord, SamplerConfig, run_chain

__all__ = [
    "SpecError",
    "ExperimentSpec",
    "load_spec",
    "parse_spec",
    "SummaryReport",
    "sample_chain",
    "run_experiment",
    "write_chain_csv",
]

SWEEP_AXES = ("dt", "leg_span", "sin_psi", "K")


class SpecError(ValueError):
    """An experiment spec failed validation; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated sweep description (see :func:`parse_spec` for the file format)."""

    target: str
    dims: int
    target_params: dict = field(default_factory=dict)
    sweep_axis: str = "dt"
    sweep_values: tuple = ()
    dt: float | None = None
    steps: int | None = None
    leg_span: float | None = None
    sin_psi: float = 1.0
    extra_chances: int = 0
    jitter: float = 0.05
    replicas: int = 10
    budget_force_evals: int = 1_000_000
    burn_in: int = 500
    observable: str | dict = "x0"
    seed: int = 0
    out_dir: str | None = None
    include_momenta: bool = False


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        raise SpecError(field_name, message)


# The rule of each number a spec holds, by parameter.
_NUMBER_RULES = {
    **dict.fromkeys(("dims", "L", "replicas", "budget_force_evals"), partial(_integer, minimum=1)),
    **dict.fromkeys(("K", "burn_in", "seed"), partial(_integer, minimum=0)),
    **dict.fromkeys(("dt", "leg_span"), partial(_real, lo=0.0)),
    "sin_psi": partial(_real, lo=0.0, hi=1.0, hi_open=False),
    "jitter": partial(_real, lo=0.0, hi=1.0, lo_open=False),
}


def _number(value, field_name: str, name: str):
    """``value`` by the rule of parameter ``name``, or a ``SpecError`` at ``field_name``
    (for a sweep value, ``sweep.values[i]``, while ``name`` is the axis)."""
    try:
        return _NUMBER_RULES[name](name, value)
    except ValueError as exc:
        raise SpecError(field_name, str(exc)) from None


def _as_object(value, field_name: str) -> dict:
    """A copy of an optional JSON object; absent (None) gives an empty one."""
    _require(value is None or isinstance(value, dict), field_name, "must be an object")
    return dict(value or {})


def parse_spec(raw: dict) -> ExperimentSpec:
    """Validate a spec dictionary and fill in defaults.

    Canonical layout::

        {"target": {"name": "gaussian", "params": {"dims": 2, "variances": [1, 4]}},
         "sweep": {"axis": "dt", "values": [0.1, 0.2]},
         "fixed": {"leg_span": 1.0, "sin_psi": 1.0, "K": 3, "jitter": 0.05},
         "replicas": 10, "budget_force_evals": 1000000, "burn_in": 500,
         "observable": "x0", "seed": 7, "out_dir": "runs/demo"}

    The flat shorthand ``{"target": "gaussian", "dims": 1, "sweep": "dt",
    "values": [...]}`` is also accepted.  Unknown keys are rejected.
    """
    _require(isinstance(raw, dict), "spec", "must be a JSON object")

    known = {"target", "dims", "sweep", "values", "fixed", "replicas",
             "budget_force_evals", "burn_in", "observable", "seed", "out_dir",
             "include_momenta"}
    unknown = set(raw) - known
    _require(not unknown, "spec", f"unknown keys: {sorted(unknown)}")

    # --- target ---------------------------------------------------------
    target_raw = raw.get("target")
    _require(target_raw is not None, "target", "is required")
    if isinstance(target_raw, str):
        name = target_raw
        params = {}
        dims = raw.get("dims")
        _require(dims is not None, "dims", "is required when target is given as a name")
    else:
        _require(isinstance(target_raw, dict), "target", "must be a name or an object")
        _require("dims" not in raw, "dims", "belongs inside target.params for object targets")
        extra = set(target_raw) - {"name", "params"}
        _require(not extra, "target", f"unknown keys: {sorted(extra)}")
        name = target_raw.get("name")
        _require(isinstance(name, str), "target.name", "must be a string")
        params = _as_object(target_raw.get("params"), "target.params")
        dims = params.pop("dims", None)
        _require(dims is not None, "target.params.dims", "is required")
    dims = _number(dims, "dims", "dims")

    # --- sweep ----------------------------------------------------------
    sweep_raw = raw.get("sweep")
    _require(sweep_raw is not None, "sweep", "is required")
    if isinstance(sweep_raw, str):
        axis = sweep_raw
        values = raw.get("values")
        _require(values is not None, "values", "is required when sweep is given as a name")
    else:
        _require(isinstance(sweep_raw, dict), "sweep", "must be a name or an object")
        _require("values" not in raw, "values", "belongs inside the sweep object")
        extra = set(sweep_raw) - {"axis", "values"}
        _require(not extra, "sweep", f"unknown keys: {sorted(extra)}")
        axis = sweep_raw.get("axis")
        values = sweep_raw.get("values")
    _require(axis in SWEEP_AXES, "sweep.axis", f"must be one of {SWEEP_AXES}")
    _require(isinstance(values, (list, tuple)) and len(values) > 0,
             "sweep.values", "must be a non-empty list")

    # --- fixed parameters -------------------------------------------------
    fixed = _as_object(raw.get("fixed"), "fixed")
    extra = set(fixed) - {"dt", "L", "leg_span", "sin_psi", "K", "jitter"}
    _require(not extra, "fixed", f"unknown keys: {sorted(extra)}")
    _require(axis not in fixed, f"fixed.{axis}",
             "duplicates the sweep axis; a parameter is either swept or fixed")

    dt, steps, leg_span = (None if fixed.get(name) is None
                           else _number(fixed[name], f"fixed.{name}", name)
                           for name in ("dt", "L", "leg_span"))
    _require(not (steps is not None and leg_span is not None),
             "fixed.leg_span", "give either L or leg_span, not both")

    # A swept sin_psi or K is absent from ``fixed``, so its unused default is checked here.
    sin_psi, extra_chances, jitter = (
        _number(fixed.get(name, default), f"fixed.{name}", name)
        for name, default in (("sin_psi", ExperimentSpec.sin_psi),
                              ("K", ExperimentSpec.extra_chances),
                              ("jitter", ExperimentSpec.jitter)))

    # Leg geometry must be fully determined for every sweep value.
    if axis == "dt":
        _require(steps is not None or leg_span is not None,
                 "fixed", "sweeping dt needs fixed.L or fixed.leg_span")
    elif axis == "leg_span":
        _require(dt is not None, "fixed.dt", "is required when sweeping leg_span")
        _require(steps is None, "fixed.L", "cannot be fixed while sweeping leg_span")
    else:
        _require(dt is not None, "fixed.dt", "is required")
        _require(steps is not None or leg_span is not None,
                 "fixed", "needs fixed.L or fixed.leg_span")

    # --- sweep values -----------------------------------------------------
    checked_values = tuple(_number(v, f"sweep.values[{i}]", axis) for i, v in enumerate(values))

    integers = {name: _number(raw.get(name, getattr(ExperimentSpec, name)), name, name)
                for name in ("replicas", "budget_force_evals", "burn_in", "seed")}
    observable = raw.get("observable", ExperimentSpec.observable)
    # Evaluated once at the origin, so that every replica can evaluate it.
    try:
        make_observable(observable).fn(np.zeros(dims))
    except IndexError:
        raise SpecError("observable",
                        f"reads a coordinate outside the target's {dims} dimensions") from None
    except KeyError as exc:
        raise SpecError("observable", f"needs the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SpecError("observable", str(exc)) from None
    out_dir = raw.get("out_dir")
    _require(out_dir is None or isinstance(out_dir, str), "out_dir", "must be a string path")
    include_momenta = raw.get("include_momenta", ExperimentSpec.include_momenta)
    _require(isinstance(include_momenta, bool), "include_momenta", "must be a boolean")

    spec = ExperimentSpec(
        target=name, dims=dims, target_params=params,
        sweep_axis=axis, sweep_values=checked_values,
        dt=dt, steps=steps, leg_span=leg_span, sin_psi=sin_psi,
        extra_chances=extra_chances, jitter=jitter,
        observable=observable, out_dir=out_dir, include_momenta=include_momenta, **integers,
    )
    # Fail fast on bad target parameters rather than inside a worker, and on
    # one with no JSON form for summary.json (an array's is its list).
    try:
        builtin_target(spec.target, spec.dims, **spec.target_params)
        json.dumps(_json_safe(spec.target_params))
    except (TypeError, ValueError) as exc:
        raise SpecError("target", str(exc)) from None
    for value in spec.sweep_values:
        _config_for(spec, value)
    return spec


def load_spec(path) -> ExperimentSpec:
    """Read and validate a JSON experiment spec."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise SpecError("spec", f"not valid JSON ({exc})") from None
    return parse_spec(raw)


def _config_for(spec: ExperimentSpec, value) -> SamplerConfig:
    """Resolve one sweep value, already checked by ``parse_spec``, into a sampler configuration."""
    params = {"dt": spec.dt, "leg_span": spec.leg_span, "sin_psi": spec.sin_psi,
              "K": spec.extra_chances, spec.sweep_axis: value}
    steps = spec.steps or max(1, round(params["leg_span"] / params["dt"]))
    return SamplerConfig(
        leg=LegSpec(dt=params["dt"], steps=steps),
        psi=math.asin(params["sin_psi"]),
        extra_chances=params["K"],
        jitter_fraction=spec.jitter,
    )


def _spec_payload(spec: ExperimentSpec) -> dict:
    """The spec's one JSON form, without ``out_dir``: ``summary.json`` and ``xchmc sample``."""
    payload = dataclasses.asdict(spec)
    del payload["out_dir"]
    return _json_safe(payload)


def sample_chain(spec: ExperimentSpec, value_index: int, replica: int) -> ChainRecord:
    """Replica ``replica`` of ``spec`` at its sweep value ``value_index``.

    The chain draws from ``chain_rng(spec.seed, value_index, replica)``.  Its
    start is the origin with momentum M^1/2 zeta, zeta the first ``dims``
    normals of that stream; then come the burn-in and the force-evaluation budget.
    """
    rng = chain_rng(spec.seed, value_index, replica)
    model = builtin_target(spec.target, spec.dims, **spec.target_params)
    config = _config_for(spec, spec.sweep_values[value_index])
    y0 = model.mass.sqrt_apply(rng.standard_normal(spec.dims))
    z0 = PhaseState(np.zeros(spec.dims), y0)
    budget = Budget(force_evals=spec.budget_force_evals, burn_in=spec.burn_in)
    return run_chain(model, config, z0, budget, rng=rng)


def _run_replica(payload: dict) -> dict:
    """Run one (sweep value, replica) cell of :func:`sample_chain`; module-level so
    worker pools can pickle it."""
    spec = payload["spec"]
    value_index = payload["value_index"]
    replica = payload["replica"]
    try:
        record = sample_chain(spec, value_index, replica)
        stats = slot_stats(record)
        estimate = estimate_average(record, make_observable(spec.observable))
        slots = {f"a{k}": float(stats.acceptance_fractions[k])
                 for k in range(stats.acceptance_fractions.size)}
        slots["flip"] = stats.flip_fraction
        return {
            "value_index": value_index,
            "replica": replica,
            "entry": {
                "seed": [spec.seed, value_index, replica],
                "transitions": record.transitions,
                "force_evals": record.total_force_evals,
                "slots": slots,
                "ess": estimate.ess,
                "mean": estimate.mean,
                "stderr": estimate.stderr,
            },
            "record": record,
        }
    except Exception as exc:  # recorded per replica, not fatal for the sweep
        # Its frames start at this one, in a worker process as in a serial sweep.
        return {
            "value_index": value_index,
            "replica": replica,
            "entry": {"seed": [spec.seed, value_index, replica], "error": repr(exc),
                      "traceback": traceback.format_exc()},
            "record": None,
        }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):  # its nested lists, or the number of a 0-d array
        return _json_safe(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


@dataclass(frozen=True)
class SummaryReport:
    """Sweep results: one block per sweep value, plus the resolved spec."""

    spec: ExperimentSpec
    results: tuple

    def json_bytes(self) -> bytes:
        payload = _json_safe({
            "schema": "xchmc-summary-v1",
            "spec": _spec_payload(self.spec),
            "results": list(self.results),
        })
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _aggregate(entries: list[dict]) -> dict:
    good = [e for e in entries if "error" not in e]
    if not good:
        return {"ess_mean": None, "ess_std": None, "ess_stderr": None, "slot_means": {}}
    ess = np.array([e["ess"] for e in good], dtype=float)
    finite = ess[np.isfinite(ess)]
    # One finite ESS gives a mean but no spread: its std and stderr are undefined.
    ess_mean = float(finite.mean()) if finite.size else None
    ess_std = ess_stderr = None
    if finite.size > 1:
        ess_std = float(finite.std(ddof=1))
        ess_stderr = ess_std / math.sqrt(finite.size)
    slot_names = sorted({k for e in good for k in e["slots"]})
    slot_means = {name: float(np.mean([e["slots"].get(name, 0.0) for e in good]))
                  for name in slot_names}
    return {"ess_mean": ess_mean, "ess_std": ess_std, "ess_stderr": ess_stderr,
            "slot_means": slot_means}


def _replica_results(payloads: list[dict], workers: int):
    """Results of ``_run_replica`` over ``payloads``, in order, each as soon as it is ready.

    The process pool, and with it ``multiprocessing``, is imported only when a
    sweep runs one, so ``import xchmc`` and serial runs do without it.  The
    pool has at most one worker per payload: under the fork start method it
    starts all of its workers at the first submit.
    """
    workers = min(workers, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_run_replica, payloads)
    else:
        yield from map(_run_replica, payloads)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> SummaryReport:
    """Run the full sweep: replicas x sweep values, aggregation, and reporting.

    Every (value, replica) cell runs on its own deterministic sub-stream, so
    results do not depend on scheduling or on ``workers``, an integer >= 1.
    Per-replica failures are recorded in place of their entry.
    When ``spec.out_dir`` is set, one CSV per replica plus ``summary.json``
    are written there.
    """
    workers = _integer("workers", workers, 1)
    payloads = [{"spec": spec, "value_index": i, "replica": r}
                for i in range(len(spec.sweep_values)) for r in range(spec.replicas)]
    out_dir = Path(spec.out_dir) if spec.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    # Each replica's CSV is written as soon as its result arrives, in payload
    # order, and only its summary entry is kept.
    entries: list[list[dict]] = [[] for _ in spec.sweep_values]
    for res in _replica_results(payloads, workers):
        i, r = res["value_index"], res["replica"]
        entries[i].append(res["entry"])
        if out_dir is not None and res["record"] is not None:
            path = out_dir / f"{spec.sweep_axis}_{i:02d}_rep{r:02d}.csv"
            write_chain_csv(res["record"], path, include_momenta=spec.include_momenta)
    results = [{"value": value, "replicas": entries[i], "aggregate": _aggregate(entries[i])}
               for i, value in enumerate(spec.sweep_values)]

    report = SummaryReport(spec=spec, results=tuple(results))
    if out_dir is not None:
        (out_dir / "summary.json").write_bytes(report.json_bytes())
    return report


def write_chain_csv(record: ChainRecord, path, include_momenta: bool = False) -> None:
    """Write a chain to CSV at full double precision (values round-trip exactly).

    Row 0 is the starting state and leaves the per-transition fields empty;
    row n >= 1 carries the slot and jittered dt of transition n.  The bytes are
    those of ``csv.writer`` (``\\r\\n`` line ends; no field needs quoting).
    """
    d = record.positions.shape[1]
    header = ["transition", "slot", "dt"] + [f"x{i}" for i in range(d)]
    values = record.positions
    if include_momenta:
        header += [f"y{i}" for i in range(d)]
        values = np.hstack([record.positions, record.momenta])
    rows = values.tolist()
    lines = [",".join(header), "0,,," + ",".join(map(repr, rows[0]))]
    lines += [f"{n},{slot},{dt!r}," + ",".join(map(repr, row))
              for n, (slot, dt, row) in enumerate(
                  zip(record.slots.tolist(), record.dt_used.tolist(), rows[1:]), start=1)]
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
