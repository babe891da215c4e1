"""Command-line interface.

Exit codes: 0 success, 1 usage/configuration error, 2 verification failure,
3 runtime failure.  An error about what a command's input file holds names the file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from xchmc.diagnostics import series_average, slot_stats
from xchmc.harness import (ExperimentSpec, SpecError, _spec_payload, load_spec, parse_spec,
                           run_experiment, sample_chain, write_chain_csv)
from xchmc.verification import SUITES, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xchmc",
        description="Extra-chance generalized hybrid Monte Carlo sampler and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run a single chain on a built-in target")
    p.add_argument("--target", required=True, help="gaussian, double_well, or banana")
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--dt", type=float, required=True, help="integration step size")
    p.add_argument("--steps", type=int, required=True, help="Verlet steps per leg (L)")
    p.add_argument("--sin-psi", type=float, default=ExperimentSpec.sin_psi,
                   help="sine of the momentum refresh angle, in (0, 1]")
    p.add_argument("--extra-chances", type=int, default=ExperimentSpec.extra_chances,
                   help="extra candidate legs offered before a momentum flip (K)")
    p.add_argument("--jitter", type=float, default=ExperimentSpec.jitter,
                   help="relative step-size jitter per transition")
    p.add_argument("--budget", type=int, default=100_000, help="force-evaluation budget")
    p.add_argument("--burn-in", type=int, default=ExperimentSpec.burn_in,
                   help="discarded warmup transitions")
    p.add_argument("--seed", type=int, default=ExperimentSpec.seed)
    p.add_argument("--out", type=Path, default=None, help="output file (default: stdout summary)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--momenta", action="store_true", help="include momenta in CSV output")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("sweep", help="run a replica sweep from a JSON spec file")
    p.add_argument("--spec", type=Path, required=True)
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.set_defaults(handler=_cmd_sweep, source=("spec", SpecError))  # not --workers errors

    p = sub.add_parser("verify", help="run the exact-identity verification suites")
    p.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("ess", help="effective sample size of a CSV column")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--column", required=True)
    p.set_defaults(handler=_cmd_ess, source=("input", ValueError))

    p = sub.add_parser("plot-data", help="emit plot-ready aggregates from a sweep summary")
    p.add_argument("--summary", type=Path, required=True, help="summary.json from a sweep")
    p.add_argument("--out", type=Path, default=None, help="output CSV (default: stdout)")
    p.set_defaults(handler=_cmd_plot_data, source=("summary", ValueError))

    return parser


def _cmd_sample(args) -> int:
    if args.out is None and (args.format == "json" or args.momenta):
        flag = "--format json" if args.format == "json" else "--momenta"
        raise ValueError(f"{flag} needs --out: without it only the summary line is printed")
    # Replica (0, 0) of the one-value dt sweep at --dt, as `xchmc sweep` runs it.
    spec = parse_spec({
        "target": args.target, "dims": args.dims, "sweep": "dt", "values": [args.dt],
        "fixed": {"L": args.steps, "sin_psi": args.sin_psi, "K": args.extra_chances,
                  "jitter": args.jitter},
        "replicas": 1, "budget_force_evals": args.budget, "burn_in": args.burn_in,
        "seed": args.seed, "include_momenta": args.momenta})
    record = sample_chain(spec, 0, 0)
    stats = slot_stats(record)
    if args.out is not None:
        if args.format == "csv":
            write_chain_csv(record, args.out, include_momenta=spec.include_momenta)
        else:
            payload = {
                "spec": _spec_payload(spec),
                "transitions": record.transitions,
                "force_evals": record.total_force_evals,
                "slots": record.slots.tolist(),
                "dt_used": record.dt_used.tolist(),
                "positions": record.positions.tolist(),
                "momenta": record.momenta.tolist(),
            }
            args.out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    fractions = " ".join(
        f"a{k}={stats.acceptance_fractions[k]:.4f}"
        for k in range(stats.acceptance_fractions.size))
    print(f"transitions={record.transitions} force_evals={record.total_force_evals} "
          f"{fractions} flip={stats.flip_fraction:.4f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = load_spec(args.spec)
    report = run_experiment(spec, workers=args.workers)
    for block in report.results:
        agg = block["aggregate"]
        ess_mean, ess_stderr = ("n/a" if agg[k] is None else f"{agg[k]:.1f}"
                                for k in ("ess_mean", "ess_stderr"))
        print(f"{spec.sweep_axis}={block['value']}: ess_mean={ess_mean} "
              f"ess_stderr={ess_stderr} slot_means={agg['slot_means']}")
    if spec.out_dir:
        print(f"summary written to {Path(spec.out_dir) / 'summary.json'}")
    failed = [e for block in report.results for e in block["replicas"] if "error" in e]
    for entry in failed:
        print(f"replica {entry['seed']} failed: {entry['error']}\n{entry['traceback']}",
              end="", file=sys.stderr)
    return EXIT_RUNTIME if failed else EXIT_OK


def _cmd_verify(args) -> int:
    report = verify(args.suite)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_ess(args) -> int:
    with open(args.input, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("line 1: no header row (the file is empty)")
        if args.column not in header:
            raise ValueError(f"column {args.column!r} not in the header (have: {header})")
        idx = header.index(args.column)
        values = []
        for row in reader:
            where = f"line {reader.line_num}"
            if len(row) <= idx:
                raise ValueError(f"{where}: column {args.column!r} is field {idx + 1}, "
                                 f"but the row has only {len(row)}")
            if row[idx] != "":
                try:
                    value = float(row[idx])
                except ValueError:
                    raise ValueError(f"{where}: {row[idx]!r} in column {args.column!r} "
                                     "is not a number") from None
                if not math.isfinite(value):
                    raise ValueError(f"{where}: {row[idx]!r} in column {args.column!r} "
                                     "is not a finite number")
                values.append(value)
    try:
        mean, ess, stderr = series_average(values)
    except ValueError as exc:
        raise ValueError(f"column {args.column!r}: {exc}") from None
    payload = {"column": args.column, "n": len(values), "mean": mean,
               "ess": ess, "stderr": stderr}
    if math.isnan(ess):
        payload.update(ess=None, stderr=None, note="zero variance; ESS undefined")
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_plot_data(args) -> int:
    try:
        summary = json.loads(Path(args.summary).read_text())
        lines = [f"{summary['spec']['sweep_axis']},ess_mean,ess_std"]
        for block in summary["results"]:
            agg = block["aggregate"]
            # A null aggregate is an empty field: no replica had a finite ESS, or,
            # for ess_std, fewer than two did.
            fields = [block["value"], agg["ess_mean"], agg["ess_std"]]
            lines.append(",".join("" if f is None else str(f) for f in fields))
    except KeyError as exc:
        raise ValueError(f"not a sweep summary: no key {exc.args[0]!r}") from None
    # Not JSON or not UTF-8 text, or a list, number or string where an object or list belongs.
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not a sweep summary: {exc}") from None
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except ValueError as exc:  # a SpecError among them
        source, errors = getattr(args, "source", (None, ()))
        where = f"{getattr(args, source)}: " if isinstance(exc, errors) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(f"unexpected failure: {exc!r}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
