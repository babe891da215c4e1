import concurrent.futures
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xchmc import (Budget, MassMatrix, PhaseState, SpecError, builtin_target, chain_rng,
                   coordinate, load_spec, parse_spec, run_chain, run_experiment,
                   series_average, write_chain_csv)
import xchmc.harness as harness
from xchmc.cli import main
from xchmc.harness import _config_for, sample_chain

SPECS = Path(__file__).resolve().parent.parent / "specs"
MINIMAL = {"target": "gaussian", "dims": 1, "sweep": "dt", "values": [0.3],
           "fixed": {"L": 4}}


def tiny_spec(**overrides):
    raw = {"target": "gaussian", "dims": 1, "sweep": "dt", "values": [0.3],
           "fixed": {"L": 4, "jitter": 0.0}, "replicas": 1,
           "budget_force_evals": 1000, "burn_in": 5, "seed": 7}
    raw.update(overrides)
    return parse_spec(raw)


def assert_ess_reads(path, column, values, capsys):
    """`xchmc ess` on a chain CSV column prints exactly the series_average of ``values``."""
    capsys.readouterr()
    assert main(["ess", "--input", str(path), "--column", column]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = [None if math.isnan(f) else f for f in series_average(values)]
    assert [payload[k] for k in ("mean", "ess", "stderr")] == expected
    assert payload["n"] == len(values)


class TestParseSpec:
    def test_minimal_shorthand_fills_defaults(self):
        spec = parse_spec(MINIMAL)
        assert spec.target == "gaussian"
        assert spec.dims == 1
        assert spec.sweep_axis == "dt"
        assert spec.sweep_values == (0.3,)
        assert spec.replicas == 10
        assert spec.budget_force_evals == 1_000_000
        assert spec.burn_in == 500
        assert spec.observable == "x0"
        assert spec.sin_psi == 1.0
        assert spec.extra_chances == 0
        assert spec.jitter == 0.05

    def test_canonical_nested_layout(self):
        spec = parse_spec({
            "target": {"name": "gaussian",
                       "params": {"dims": 2, "variances": [1.0, 4.0]}},
            "sweep": {"axis": "sin_psi", "values": [0.5, 1.0]},
            "fixed": {"dt": 0.2, "L": 5, "K": 3},
            "replicas": 3, "seed": 11,
        })
        assert spec.dims == 2
        assert spec.target_params == {"variances": [1.0, 4.0]}
        assert spec.sweep_axis == "sin_psi"
        assert spec.extra_chances == 3
        assert spec.replicas == 3

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError, match="unknown keys"):
            parse_spec({**MINIMAL, "bananas": 1})

    def test_unknown_fixed_key_rejected(self):
        with pytest.raises(SpecError, match="fixed"):
            parse_spec({**MINIMAL, "fixed": {"L": 4, "step": 0.1}})

    def test_sweep_axis_cannot_also_be_fixed(self):
        with pytest.raises(SpecError) as err:
            parse_spec({**MINIMAL, "fixed": {"L": 4, "dt": 0.1}})
        assert err.value.field == "fixed.dt"

    def test_l_and_leg_span_conflict(self):
        raw = {"target": "gaussian", "dims": 1, "sweep": "sin_psi",
               "values": [1.0], "fixed": {"dt": 0.2, "L": 4, "leg_span": 1.0}}
        with pytest.raises(SpecError) as err:
            parse_spec(raw)
        assert err.value.field == "fixed.leg_span"

    def test_sin_psi_out_of_range_names_the_field(self):
        raw = {"target": "gaussian", "dims": 1, "sweep": "dt", "values": [0.3],
               "fixed": {"L": 4, "sin_psi": 1.5}}
        with pytest.raises(SpecError) as err:
            parse_spec(raw)
        assert err.value.field == "fixed.sin_psi"
        assert "(0, 1]" in str(err.value)

    @pytest.mark.parametrize("raw,field", [
        *[({**MINIMAL, "fixed": bad}, "fixed") for bad in ([1, 2], "ab", 5)],
        *[({"target": {"name": "gaussian", "params": bad}, "sweep": "dt", "values": [0.3],
            "fixed": {"L": 4}}, "target.params") for bad in ([1, 2], "ab", 5)],
        ({**MINIMAL, "fixed": {"L": 4, "sin_psi": True}}, "fixed.sin_psi"),
        ({**MINIMAL, "sweep": "sin_psi", "values": [0.5, True], "fixed": {"dt": 0.2, "L": 4}},
         "sweep.values[1]"),
        ({**MINIMAL, "fixed": {"L": 4, "jitter": False}}, "fixed.jitter"),
        *[({**MINIMAL, "replicas": bad}, "replicas") for bad in (True, 2.5)],
        ({**MINIMAL, "dims": 2, "observable": "x5"}, "observable"),
        ({**MINIMAL, "observable": {"kind": "indicator", "index": 1, "lo": 0, "hi": 1}},
         "observable"),
        ({**MINIMAL, "observable": {"kind": "indicator", "lo": 0, "hi": 1}}, "observable"),
        *[({**MINIMAL, "dims": 3, "observable": {"kind": "indicator", "index": bad, "lo": 0,
                                                 "hi": 1}}, "observable")
          for bad in (2.5, True, "2")],
        ({**MINIMAL, "dims": 3, "observable": {"kind": "indicator", "index": 1.5, "lo": 0,
                                               "hi": 1}}, "observable"),
        ({**MINIMAL, "observable": {"kind": "indicator", "index": 0, "lo": "0", "hi": 1}},
         "observable"),
        *[({"target": {"name": name, "params": {"dims": 2, **bad}}, "sweep": "dt",
            "values": [0.3], "fixed": {"L": 4}}, "target")
          for name, bad in (("gaussian", {"beta": True}), ("banana", {"curvature": "0.5"}),
                            ("gaussian", {"variances": ["1", "4"]}),
                            ("double_well", {"mass": [True, True]}))],
        ({**MINIMAL, "burn_in": -1}, "burn_in"),
        ({**MINIMAL, "sweep": "K", "values": [0], "fixed": {"dt": 0.0, "L": 4}}, "fixed.dt"),
        ({**MINIMAL, "sweep": "K", "values": [0], "fixed": {"dt": 0.2, "leg_span": -1.0}},
         "fixed.leg_span"),
        ({**MINIMAL, "sweep": "leg_span", "values": [1.0, 0.0], "fixed": {"dt": 0.2}},
         "sweep.values[1]"),
    ])
    def test_malformed_field_is_a_spec_error(self, tmp_path, raw, field):
        with pytest.raises(SpecError) as err:
            parse_spec(raw)
        assert err.value.field == field
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        assert main(["sweep", "--spec", str(path)]) == 1

    def test_variances_of_the_wrong_length_are_named(self):
        raw = {"target": {"name": "gaussian", "params": {"dims": 2, "variances": [1, 2, 3]}},
               "sweep": "dt", "values": [0.3], "fixed": {"L": 4}}
        with pytest.raises(SpecError, match="^target: gaussian variances must have length 2, "
                                            "not 3$") as err:
            parse_spec(raw)
        assert err.value.field == "target"

    @pytest.mark.parametrize("two", [2.0, np.int64(2)], ids=["float", "numpy"])
    def test_integral_replicas_read_as_int(self, two):
        replicas = parse_spec({**MINIMAL, "replicas": two}).replicas
        assert replicas == 2 and type(replicas) is int

    def test_bad_axis_rejected(self):
        with pytest.raises(SpecError, match="sweep.axis"):
            parse_spec({**MINIMAL, "sweep": "temperature"})

    def test_sweep_values_validated_per_axis(self):
        with pytest.raises(SpecError, match=r"sweep.values\[1\]"):
            parse_spec({**MINIMAL, "values": [0.3, -0.1]})
        raw = {"target": "gaussian", "dims": 1, "sweep": "K", "values": [0, 1.5],
               "fixed": {"dt": 0.2, "L": 4}}
        with pytest.raises(SpecError, match=r"sweep.values\[1\]"):
            parse_spec(raw)

    # leg_span / dt = inf has no step count: the swept value, or the fixed span, is named.
    @pytest.mark.parametrize("axis,values,fixed,field", [
        ("dt", [1.0, 1e-10], {"leg_span": 1e308}, "sweep.values[1]"),
        ("leg_span", [1.0, 1e308], {"dt": 1e-10}, "sweep.values[1]"),
        ("sin_psi", [0.5], {"dt": 1e-10, "leg_span": 1e308}, "fixed.leg_span"),
    ], ids=["dt", "leg_span", "sin_psi"])
    def test_overflowing_step_count_names_the_field(self, axis, values, fixed, field):
        raw = {"target": "gaussian", "dims": 1, "sweep": axis, "values": values,
               "fixed": fixed}
        with pytest.raises(SpecError) as err:
            parse_spec(raw)
        assert err.value.field == field
        assert str(err.value) == f"{field}: leg_span / dt exceeds the float range"

    def test_dt_sweep_requires_leg_geometry(self):
        with pytest.raises(SpecError, match="leg_span"):
            parse_spec({"target": "gaussian", "dims": 1, "sweep": "dt",
                        "values": [0.3]})

    def test_dims_required_for_named_target(self):
        with pytest.raises(SpecError, match="dims"):
            parse_spec({"target": "gaussian", "sweep": "dt", "values": [0.3],
                        "fixed": {"L": 4}})

    def test_target_params_may_set_diagonal_mass(self):
        raw = {"target": {"name": "double_well",
                          "params": {"dims": 2, "mass": [1.0, 9.0]}},
               "sweep": "dt", "values": [0.3], "fixed": {"L": 4}}
        spec = parse_spec(raw)
        assert spec.target_params == {"mass": [1.0, 9.0]}
        model = builtin_target(spec.target, spec.dims, **spec.target_params)
        assert model.mass.kind == "diagonal"

    # A MassMatrix builds a target, but summary.json cannot hold it.
    @pytest.mark.parametrize("params,message", [
        ({"variances": [-1.0]}, "gaussian variances must be positive"),
        ({"mass": MassMatrix.diagonal([2.0])},
         "Object of type MassMatrix is not JSON serializable"),
    ], ids=["negative_variance", "mass_matrix"])
    def test_bad_target_params_rejected_up_front(self, params, message):
        raw = {"target": {"name": "gaussian", "params": {"dims": 1, **params}},
               "sweep": "dt", "values": [0.3], "fixed": {"L": 4}}
        with pytest.raises(SpecError, match=f"^target: {message}") as err:
            parse_spec(raw)
        assert err.value.field == "target"

    # An Observable object has no JSON form for summary.json, and a worker
    # process cannot receive its lambdas.
    @pytest.mark.parametrize("observable,message", [
        ("xyz", "unknown observable 'xyz'"),
        (coordinate(0), "cannot interpret observable spec of type Observable"),
    ], ids=["unknown_name", "observable_object"])
    def test_bad_observable_rejected(self, observable, message):
        with pytest.raises(SpecError, match=f"^observable: {message}") as err:
            parse_spec({**MINIMAL, "observable": observable})
        assert err.value.field == "observable"

    def test_leg_span_resolution_rounds_with_floor_one(self):
        raw = {"target": "gaussian", "dims": 1, "sweep": "leg_span",
               "values": [1.0, 0.1], "fixed": {"dt": 0.25}}
        spec = parse_spec(raw)
        assert _config_for(spec, 1.0).leg.steps == 4
        assert _config_for(spec, 0.1).leg.steps == 1

    def test_load_spec_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_spec(path) == parse_spec(MINIMAL)

    @pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.name)
    def test_committed_specs_load(self, path):
        assert load_spec(path).out_dir is None

    def test_load_spec_reports_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="JSON"):
            load_spec(path)


class TestRunExperiment:
    def test_budget_drives_transition_count(self):
        report = run_experiment(tiny_spec())
        entry = report.results[0]["replicas"][0]
        # L = 4: each transition costs exactly 4 force evaluations (the extra one
        # of the chain's first leg is spent in the burn-in)
        assert abs(entry["transitions"] - 250) <= 1
        assert entry["force_evals"] >= 1000
        assert entry["force_evals"] < 1000 + 5

    def test_entry_and_aggregate_structure(self):
        report = run_experiment(tiny_spec(replicas=2))
        block = report.results[0]
        assert block["value"] == 0.3
        assert len(block["replicas"]) == 2
        entry = block["replicas"][0]
        assert entry["seed"] == [7, 0, 0]
        assert set(entry) == {"seed", "transitions", "force_evals", "slots",
                              "ess", "mean", "stderr"}
        assert set(entry["slots"]) == {"a0", "flip"}
        agg = block["aggregate"]
        assert agg["ess_mean"] > 0
        assert agg["ess_std"] >= 0.0
        assert set(agg["slot_means"]) == {"a0", "flip"}

    def test_replica_streams_are_reproducible_by_hand(self, tmp_path, capsys):
        spec = tiny_spec(out_dir=str(tmp_path))
        run_experiment(spec)
        model = builtin_target("gaussian", 1)
        rng = chain_rng(7, 0, 0)
        y0 = model.mass.sqrt_apply(rng.standard_normal(1))
        record = run_chain(model, _config_for(spec, 0.3),
                           PhaseState(np.zeros(1), y0),
                           Budget(force_evals=1000, burn_in=5), rng=rng)
        path = tmp_path / "dt_00_rep00.csv"
        for column, values in [("x0", record.positions[:, 0]), ("slot", record.slots),
                               ("dt", record.dt_used)]:
            assert_ess_reads(path, column, values, capsys)

    def test_summary_bytes_identical_across_runs_and_directories(self, tmp_path):
        a = run_experiment(tiny_spec(replicas=2, out_dir=str(tmp_path / "a")))
        b = run_experiment(tiny_spec(replicas=2, out_dir=str(tmp_path / "b")))
        assert a.json_bytes() == b.json_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
               (tmp_path / "b" / "summary.json").read_bytes()

    def test_worker_count_does_not_change_results(self):
        spec = tiny_spec(replicas=2, values=[0.2, 0.4])
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert serial.json_bytes() == parallel.json_bytes()

    def test_process_pool_is_imported_only_by_a_pooled_sweep(self):
        code = (
            "import sys\n"
            "import xchmc\n"
            "loaded = lambda: 'concurrent.futures' in sys.modules\n"
            "raw = {'target': 'gaussian', 'dims': 1, 'sweep': 'dt', 'values': [0.3],\n"
            "       'fixed': {'L': 2}, 'replicas': 2, 'budget_force_evals': 60, 'burn_in': 0}\n"
            "spec = xchmc.parse_spec(raw)\n"
            "states = [loaded()]\n"
            "xchmc.run_experiment(spec, workers=1)\n"
            "states.append(loaded())\n"
            "xchmc.run_experiment(spec, workers=2)\n"
            "states.append(loaded())\n"
            "print(states)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[False,", "False,", "True]"]

    @pytest.mark.parametrize("workers,cells,pool_size", [(64, 2, 2), (3, 4, 3), (5, 1, None)])
    def test_pool_has_at_most_one_worker_per_replica(self, monkeypatch, workers, cells,
                                                     pool_size):
        # A stand-in pool that records its size and runs in-process: no worker starts.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        report = run_experiment(tiny_spec(replicas=cells), workers=workers)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(report.results[0]["replicas"]) == cells

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(tiny_spec(), workers=workers)

    def test_numpy_worker_count_runs(self):
        spec = tiny_spec()
        assert run_experiment(spec, workers=np.int64(2)).json_bytes() == \
               run_experiment(spec, workers=1).json_bytes()

    def test_sample_chain_is_the_replica_of_its_indices(self, tmp_path):
        spec = tiny_spec(replicas=2, values=[0.2, 0.4], out_dir=str(tmp_path),
                         include_momenta=True)
        run_experiment(spec)
        expected = tmp_path / "expected.csv"
        write_chain_csv(sample_chain(spec, 1, 1), expected, include_momenta=True)
        assert expected.read_bytes() == (tmp_path / "dt_01_rep01.csv").read_bytes()

    def test_worker_count_does_not_change_output_files(self, tmp_path):
        # CSVs are written as each replica's result arrives; the files must
        # not depend on how the replicas were scheduled.
        files = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            run_experiment(tiny_spec(replicas=3, values=[0.2, 0.4], out_dir=str(out),
                                     include_momenta=True), workers=workers)
            files[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(files[1]) == 7
        assert files[1] == files[2] == files[3]

    # A numpy array in target.params is written as its list.
    @pytest.mark.parametrize("params,written", [
        ({}, {}), ({"variances": np.array([4.0])}, {"variances": [4.0]})],
        ids=["no_params", "numpy_variances"])
    def test_summary_spec_block(self, tmp_path, params, written):
        raw = {"target": {"name": "gaussian", "params": {"dims": 1, **params}}, "sweep": "dt",
               "values": [0.3], "fixed": {"L": 4, "jitter": 0.0}, "replicas": 1,
               "budget_force_evals": 1000, "burn_in": 5, "seed": 7, "out_dir": str(tmp_path)}
        report = run_experiment(parse_spec(raw))
        assert json.loads((tmp_path / "summary.json").read_bytes())["spec"] == {
            "target": "gaussian", "dims": 1, "target_params": written, "sweep_axis": "dt",
            "sweep_values": [0.3], "dt": None, "steps": 4, "leg_span": None,
            "sin_psi": 1.0, "extra_chances": 0, "jitter": 0.0, "replicas": 1,
            "budget_force_evals": 1000, "burn_in": 5, "observable": "x0", "seed": 7,
            "include_momenta": False}
        assert json.loads(report.json_bytes())["spec"]["sweep_values"] == [0.3]

    def test_failed_replica_recorded_not_fatal(self):
        # 20 force evals -> 4 transitions, far too short for an ESS estimate
        report = run_experiment(tiny_spec(budget_force_evals=20, burn_in=0))
        entry = report.results[0]["replicas"][0]
        assert "error" in entry
        assert report.results[0]["aggregate"]["ess_mean"] is None

    def test_failed_replica_traceback_does_not_depend_on_workers(self, tmp_path):
        summaries = []
        for workers in (1, 2):
            out_dir = tmp_path / f"workers{workers}"
            run_experiment(tiny_spec(budget_force_evals=20, burn_in=0, replicas=2,
                                     out_dir=str(out_dir)), workers=workers)
            summaries.append((out_dir / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        entry = json.loads(summaries[0])["results"][0]["replicas"][0]
        assert entry["error"] == repr(ValueError("need at least 10 points to estimate an ESS"))
        assert entry["traceback"].startswith("Traceback (most recent call last):")
        assert "in _run_replica" in entry["traceback"]
        assert "in ess_initial_monotone" in entry["traceback"]

    def test_one_replica_has_a_mean_but_no_spread(self):
        agg = run_experiment(tiny_spec(replicas=1)).results[0]["aggregate"]
        assert agg["ess_mean"] > 0
        assert agg["ess_std"] is None and agg["ess_stderr"] is None

    def test_one_finite_ess_of_three_replicas_has_no_spread(self, monkeypatch):
        real, calls = harness.estimate_average, {"n": 0}

        def fails_after_the_first(record, observable):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("replica fails on purpose")
            return real(record, observable)

        monkeypatch.setattr(harness, "estimate_average", fails_after_the_first)
        block = run_experiment(tiny_spec(replicas=3)).results[0]
        assert ["error" in e for e in block["replicas"]] == [False, True, True]
        agg = block["aggregate"]
        assert agg["ess_mean"] == block["replicas"][0]["ess"]
        assert agg["ess_std"] is None and agg["ess_stderr"] is None

    def test_extra_chances_reduce_flips_on_rough_target(self):
        def run(k):
            raw = {"target": "double_well", "dims": 2, "sweep": "K",
                   "values": [k], "fixed": {"dt": 0.45, "L": 5, "jitter": 0.0},
                   "replicas": 2, "budget_force_evals": 30_000, "burn_in": 50,
                   "seed": 3}
            agg = run_experiment(parse_spec(raw)).results[0]["aggregate"]
            total = sum(v for key, v in agg["slot_means"].items() if key != "flip")
            return total, agg["slot_means"]["flip"]

        accept0, flip0 = run(0)
        accept3, flip3 = run(3)
        assert accept3 > accept0
        assert flip3 < flip0


class TestChainCsv:
    def test_round_trip_is_exact(self, tmp_path, dwell2d, capsys):
        rng = chain_rng(5, 0)
        z0 = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
        from xchmc import LegSpec, SamplerConfig
        config = SamplerConfig(leg=LegSpec(0.37, 3), psi=math.asin(0.77),
                               extra_chances=2, jitter_fraction=0.1, seed=5)
        record = run_chain(dwell2d, config, z0, Budget(transitions=50), rng=rng)
        path = tmp_path / "chain.csv"
        write_chain_csv(record, path, include_momenta=True)
        columns = [("slot", record.slots), ("dt", record.dt_used)]
        for i in range(2):
            columns += [(f"x{i}", record.positions[:, i]), (f"y{i}", record.momenta[:, i])]
        for column, values in columns:
            assert_ess_reads(path, column, values, capsys)

    def test_momenta_omitted_by_default(self, tmp_path, gauss1d, capsys):
        from xchmc import LegSpec, SamplerConfig
        config = SamplerConfig(leg=LegSpec(0.3, 2), psi=1.0, seed=1)
        record = run_chain(gauss1d, config, PhaseState([0.0], [1.0]),
                           Budget(transitions=5))
        path = tmp_path / "chain.csv"
        write_chain_csv(record, path)
        assert path.read_text().splitlines()[0] == "transition,slot,dt,x0"
        assert main(["ess", "--input", str(path), "--column", "y0"]) == 1
        assert "column 'y0' not in" in capsys.readouterr().err

    @pytest.mark.parametrize("include_momenta", [False, True])
    def test_bytes_match_csv_writer(self, tmp_path, dwell2d, include_momenta):
        # The reference is the row-by-row csv.writer form of the same table.
        from xchmc import LegSpec, SamplerConfig
        from xchmc.sampler import ChainRecord

        config = SamplerConfig(leg=LegSpec(0.4, 3), psi=math.asin(0.6),
                               extra_chances=3, jitter_fraction=0.1, seed=2)
        chain = run_chain(dwell2d, config, PhaseState([0.1, -0.2], [0.3, 0.4]),
                          Budget(transitions=40))
        # Values whose repr is unusual: signed zero, subnormal, huge, long digits.
        positions = chain.positions.copy()
        positions[1:5, 0] = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3]
        record = ChainRecord(positions=positions, momenta=chain.momenta, slots=chain.slots,
                             candidates=chain.candidates, force_evals=chain.force_evals,
                             dt_used=chain.dt_used, extra_chances=3, burn_in=0)
        path = tmp_path / "chain.csv"
        write_chain_csv(record, path, include_momenta=include_momenta)

        d = record.positions.shape[1]
        header = ["transition", "slot", "dt"] + [f"x{i}" for i in range(d)]
        if include_momenta:
            header += [f"y{i}" for i in range(d)]
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        for n in range(record.positions.shape[0]):
            row = [str(n)]
            if n == 0:
                row += ["", ""]
            else:
                row += [str(record.slots[n - 1]), repr(float(record.dt_used[n - 1]))]
            row += [repr(float(v)) for v in record.positions[n]]
            if include_momenta:
                row += [repr(float(v)) for v in record.momenta[n]]
            writer.writerow(row)
        assert path.read_bytes() == buf.getvalue().encode()
