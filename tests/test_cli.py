import csv
import json
import math
import subprocess
import sys

import pytest

from xchmc import (Budget, LegSpec, PhaseState, SamplerConfig, builtin_target, chain_rng,
                   coordinate, estimate_average, run_chain, write_chain_csv)
from xchmc.cli import main
from xchmc.harness import _spec_payload, parse_spec

SAMPLE = ["sample", "--target", "gaussian", "--dims", "1", "--dt", "0.3",
          "--steps", "4", "--budget", "600", "--burn-in", "5", "--seed", "3"]


def run_sample(tmp_path, *extra):
    out = tmp_path / "chain.csv"
    code = main(SAMPLE + ["--out", str(out)] + list(extra))
    return code, out


def hand_run_sample(sin_psi=1.0, extra_chances=0, jitter=0.05):
    """The chain of SAMPLE, run without the CLI: start (0, M^1/2 zeta) on chain_rng(3, 0, 0)."""
    model = builtin_target("gaussian", 1)
    config = SamplerConfig(leg=LegSpec(0.3, 4), psi=math.asin(sin_psi),
                           extra_chances=extra_chances, jitter_fraction=jitter, seed=3)
    rng = chain_rng(3, 0, 0)
    z0 = PhaseState([0.0], model.mass.sqrt_apply(rng.standard_normal(1)))
    return run_chain(model, config, z0, Budget(force_evals=600, burn_in=5), rng=rng)


class TestSample:
    def test_writes_csv_and_prints_summary(self, tmp_path, capsys):
        code, out = run_sample(tmp_path)
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "transitions=" in line and "a0=" in line and "flip=" in line
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["transition", "slot", "dt"]
        assert len(rows) > 100  # 600 evals / 5 per transition, plus start row

    def test_json_format(self, tmp_path):
        out = tmp_path / "chain.json"
        code = main(SAMPLE + ["--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"spec", "transitions", "force_evals", "slots", "dt_used",
                                "positions", "momenta"}
        # The spec block is that of summary.json for the same settings as a spec file.
        assert payload["spec"] == _spec_payload(parse_spec({
            "target": "gaussian", "dims": 1, "sweep": "dt", "values": [0.3],
            "fixed": {"L": 4}, "replicas": 1, "budget_force_evals": 600, "burn_in": 5,
            "seed": 3}))
        assert payload["force_evals"] >= 600
        assert len(payload["positions"]) == payload["transitions"] + 1

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        _, a = run_sample(tmp_path)
        b = tmp_path / "second.csv"
        main(SAMPLE + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_momenta_csv_is_the_hand_run_chain(self, tmp_path):
        code, out = run_sample(tmp_path, "--momenta", "--sin-psi", "0.5",
                               "--extra-chances", "2", "--jitter", "0.2")
        assert code == 0
        expected = tmp_path / "expected.csv"
        write_chain_csv(hand_run_sample(sin_psi=0.5, extra_chances=2, jitter=0.2), expected,
                        include_momenta=True)
        assert out.read_bytes() == expected.read_bytes()

    def test_momenta_csv_is_replica_0_0_of_its_spec_swept(self, tmp_path, capsys):
        # The one-value spec that SAMPLE describes, run through `xchmc sweep`.
        code, out = run_sample(tmp_path, "--momenta", "--sin-psi", "0.5",
                               "--extra-chances", "2", "--jitter", "0.2")
        assert code == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "target": "gaussian", "dims": 1, "sweep": "dt", "values": [0.3],
            "fixed": {"L": 4, "sin_psi": 0.5, "K": 2, "jitter": 0.2}, "replicas": 1,
            "budget_force_evals": 600, "burn_in": 5, "seed": 3, "include_momenta": True,
            "out_dir": str(tmp_path / "runs")}))
        assert main(["sweep", "--spec", str(spec)]) == 0
        assert out.read_bytes() == (tmp_path / "runs" / "dt_00_rep00.csv").read_bytes()

    def test_unknown_target_is_usage_error(self, tmp_path, capsys):
        code = main(["sample", "--target", "volcano", "--dims", "1",
                     "--dt", "0.3", "--steps", "4"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_sin_psi_out_of_range_is_usage_error(self, capsys):
        code = main(SAMPLE + ["--sin-psi", "1.5"])
        assert code == 1
        assert "(0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value,field,name", [
        ("--budget", "0", "budget_force_evals", "budget_force_evals"),
        ("--seed", "-1", "seed", "seed"),
        ("--steps", "0", "fixed.L", "L"),
        ("--jitter", "1.0", "fixed.jitter", "jitter"),
        ("--extra-chances", "-1", "fixed.K", "K"),
        ("--dims", "0", "dims", "dims"),
        ("--dt", "0", "sweep.values[0]", "dt"),
        ("--dt", "nan", "sweep.values[0]", "dt"),
        ("--sin-psi", "1.5", "fixed.sin_psi", "sin_psi"),
    ])
    def test_bad_value_is_usage_error_naming_the_spec_field(self, option, value, field, name,
                                                            capsys):
        # A later option overrides the one in SAMPLE; the message names the parameter.
        assert main(SAMPLE + [option, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: {name} must ")

    def test_bad_value_fails_before_any_transition(self, monkeypatch, capsys):
        def no_chain(*args, **kwargs):
            raise AssertionError("run_chain called for an invalid spec")

        monkeypatch.setattr("xchmc.harness.run_chain", no_chain)
        assert main(SAMPLE + ["--budget", "0"]) == 1
        assert "budget_force_evals" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,flag", [
        (["--format", "json"], "--format json"),
        (["--momenta"], "--momenta"),
        (["--format", "json", "--momenta"], "--format json"),
    ])
    def test_output_flag_without_out_is_usage_error_naming_it(self, monkeypatch, capsys,
                                                              extra, flag):
        # Without --out only the summary line is printed, so the flag would do nothing.
        def no_chain(*args, **kwargs):
            raise AssertionError("run_chain called for an output flag without --out")

        monkeypatch.setattr("xchmc.harness.run_chain", no_chain)
        assert main(SAMPLE + extra) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {flag} needs --out")

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["sample", "--help"]) == 0


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code = main(["verify", "--suite", "reversibility"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] reversibility" in out

    def test_failure_exits_two(self, capsys, monkeypatch):
        class FakeReport:
            passed = False

            def lines(self):
                return ["[FAIL] reversibility: worst=1.0 tol=1e-10 checks=1"]

        monkeypatch.setattr("xchmc.cli.verify", lambda suite: FakeReport())
        code = main(["verify", "--suite", "reversibility"])
        assert code == 2
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self):
        assert main(["verify", "--suite", "nonsense"]) == 1

    def test_unexpected_failure_exits_three(self, capsys, monkeypatch):
        def broken(suite):
            raise RuntimeError("broken suite")

        monkeypatch.setattr("xchmc.cli.verify", broken)
        assert main(["verify", "--suite", "reversibility"]) == 3
        assert capsys.readouterr().err == "unexpected failure: RuntimeError('broken suite')\n"


class TestEss:
    def test_reports_ess_of_column(self, tmp_path, capsys):
        _, out = run_sample(tmp_path)
        capsys.readouterr()
        code = main(["ess", "--input", str(out), "--column", "x0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["column"] == "x0"
        assert 0 < payload["ess"] <= payload["n"]
        assert payload["stderr"] > 0

    def test_matches_estimate_average(self, tmp_path, capsys):
        _, out = run_sample(tmp_path)
        capsys.readouterr()
        assert main(["ess", "--input", str(out), "--column", "x0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = estimate_average(hand_run_sample(), coordinate(0))
        assert (payload["mean"], payload["ess"], payload["stderr"]) == tuple(expected)

    def test_missing_column_is_usage_error(self, tmp_path, capsys):
        _, out = run_sample(tmp_path)
        assert main(["ess", "--input", str(out), "--column", "x9"]) == 1

    def test_constant_column_reports_undefined_ess(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("t,v\n" + "".join(f"{i},1.0\n" for i in range(20)))
        code = main(["ess", "--input", str(path), "--column", "v"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ess"] is None
        assert "zero variance" in payload["note"]

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["ess", "--input", str(tmp_path / "nope.csv"),
                     "--column", "x0"]) == 3

    @pytest.mark.parametrize("text,line,detail", [
        ("", 1, "no header row"),
        ("t,v\n0,1.0\n1\n2,3.0\n", 3, "is field 2, but the row has only 1"),
        ("t,v\n0,1.0\n\n", 3, "is field 2, but the row has only 0"),
        ("t,v\n0,1.0\n1,abc\n", 3, "'abc' in column 'v' is not a number"),
        *[(f"t,v\n0,1.0\n1,2.0\n2,{cell}\n", 4, f"{cell!r} in column 'v' is not a finite number")
          for cell in ("nan", "inf", "-inf")],
        # Bytes that are not UTF-8 text: the decoder's message, naming no line.
        pytest.param(b"t,v\n0,\xff\xfe\n", None, "can't decode byte 0xff", id="not_utf8"),
    ])
    def test_malformed_csv_is_usage_error_naming_the_line(self, tmp_path, capsys, text, line,
                                                          detail):
        path = tmp_path / "bad.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["ess", "--input", str(path), "--column", "v"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: " + ("" if line is None else f"line {line}: "))
        assert detail in err

    @pytest.mark.parametrize("text,detail", [
        ("v\n", "values must form a non-empty vector"),
        ("t,v\n0,\n1,\n", "values must form a non-empty vector"),
        ("v\n" + "1.0\n2.0\n" * 4, "need at least 10 points"),
    ])
    def test_too_few_values_is_usage_error_naming_file_and_column(self, tmp_path, capsys,
                                                                  text, detail):
        path = tmp_path / "short.csv"
        path.write_text(text)
        assert main(["ess", "--input", str(path), "--column", "v"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: column 'v': ")
        assert detail in err


@pytest.fixture
def sweep_spec(tmp_path):
    spec = {"target": "gaussian", "dims": 1, "sweep": "dt", "values": [0.3, 0.5],
            "fixed": {"L": 4, "jitter": 0.0}, "replicas": 2,
            "budget_force_evals": 800, "burn_in": 5, "seed": 1,
            "out_dir": str(tmp_path / "runs")}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path, tmp_path / "runs"


class TestSweepAndPlotData:
    def test_sweep_runs_and_writes_summary(self, sweep_spec, capsys):
        spec_path, out_dir = sweep_spec
        code = main(["sweep", "--spec", str(spec_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "dt=0.3" in out and "dt=0.5" in out
        assert "ess_stderr=" in out
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "dt_01_rep01.csv").exists()

    def test_failed_replica_exits_three_and_names_its_seed(self, tmp_path, capsys):
        # 20 force evals -> 4 transitions, far too short for an ESS estimate
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"target": "gaussian", "dims": 1, "sweep": "dt",
                                    "values": [0.3], "fixed": {"L": 4}, "replicas": 2,
                                    "budget_force_evals": 20, "burn_in": 0, "seed": 7,
                                    "out_dir": str(tmp_path / "runs")}))
        assert main(["sweep", "--spec", str(path)]) == 3
        err = capsys.readouterr().err
        assert "replica [7, 0, 0] failed" in err and "replica [7, 0, 1] failed" in err
        assert "10 points" in err
        assert err.count("in ess_initial_monotone") == 2  # each replica's traceback
        assert (tmp_path / "runs" / "summary.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_usage_error(self, sweep_spec, workers, capsys):
        spec_path, out_dir = sweep_spec
        assert main(["sweep", "--spec", str(spec_path), "--workers", workers]) == 1
        assert "workers" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text,reason", [
        (json.dumps({"target": "gaussian"}).encode(), "dims: is required"),
        (b"{not json", "spec: not valid JSON (Expecting property name"),
        (b"\xff\xfe{}", "can't decode byte 0xff in position 0"),
        (json.dumps({"target": "gaussian", "dims": 1, "sweep": "dt", "values": [1e-10],
                     "fixed": {"leg_span": 1e308}}).encode(),
         "sweep.values[0]: leg_span / dt exceeds the float range"),
    ], ids=["no_dims", "not_json", "not_utf8", "overflowing_step_count"])
    def test_invalid_spec_is_usage_error(self, tmp_path, capsys, text, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert main(["sweep", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and reason in err

    def test_plot_data_emits_axis_and_aggregates(self, sweep_spec, capsys):
        spec_path, out_dir = sweep_spec
        main(["sweep", "--spec", str(spec_path)])
        capsys.readouterr()
        code = main(["plot-data", "--summary", str(out_dir / "summary.json")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "dt,ess_mean,ess_std"
        assert len(lines) == 3
        assert lines[1].startswith("0.3,")

    def test_plot_data_to_file(self, sweep_spec, tmp_path, capsys):
        spec_path, out_dir = sweep_spec
        main(["sweep", "--spec", str(spec_path)])
        dest = tmp_path / "plot.csv"
        code = main(["plot-data", "--summary", str(out_dir / "summary.json"),
                     "--out", str(dest)])
        assert code == 0
        assert dest.read_text().startswith("dt,ess_mean,ess_std")

    def test_single_replica_prints_no_stderr_and_plots_no_std(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"target": "gaussian", "dims": 1, "sweep": "dt",
                                    "values": [0.3], "fixed": {"L": 4}, "replicas": 1,
                                    "budget_force_evals": 800, "burn_in": 5, "seed": 1,
                                    "out_dir": str(tmp_path / "runs")}))
        assert main(["sweep", "--spec", str(path)]) == 0
        assert "ess_stderr=n/a" in capsys.readouterr().out
        main(["plot-data", "--summary", str(tmp_path / "runs" / "summary.json")])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "0.3" and float(row[1]) > 0 and row[2] == ""

    def test_plot_data_writes_null_aggregates_as_empty_fields(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({
            "spec": {"sweep_axis": "dt"},
            "results": [{"value": 0.1, "aggregate": {"ess_mean": None, "ess_std": None}},
                        {"value": 0.2, "aggregate": {"ess_mean": 12.5, "ess_std": None}},
                        {"value": 0.3, "aggregate": {"ess_mean": 40.25, "ess_std": 3.0}}]}))
        assert main(["plot-data", "--summary", str(summary)]) == 0
        assert capsys.readouterr().out == "dt,ess_mean,ess_std\n0.1,,\n0.2,12.5,\n0.3,40.25,3.0\n"

    @pytest.mark.parametrize("summary,key", [
        ({"a": 1}, "spec"),
        ({"spec": {}, "results": []}, "sweep_axis"),
        ({"spec": {"sweep_axis": "dt"}}, "results"),
        ({"spec": {"sweep_axis": "dt"}, "results": [{"value": 0.1}]}, "aggregate"),
        ({"spec": {"sweep_axis": "dt"},
          "results": [{"value": 0.1, "aggregate": {"ess_mean": 2.0}}]}, "ess_std"),
        # Given as file text, with Python's or json's message as the reason.
        pytest.param("[1, 2]", "list indices must be integers or slices, not str", id="list"),
        pytest.param('{"spec": {"sweep_axis": "dt"}, "results": [1]}',
                     "'int' object is not subscriptable", id="result_not_an_object"),
        pytest.param("sweep summary", "Expecting value: line 1 column 1 (char 0)",
                     id="not_json"),
        pytest.param(b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: "
                     "invalid start byte", id="not_utf8"),
    ])
    def test_plot_data_of_a_non_summary_is_usage_error_naming_the_key(self, tmp_path, capsys,
                                                                      summary, key):
        path = tmp_path / "other.json"
        as_text = isinstance(summary, (str, bytes))
        text = summary if as_text else json.dumps(summary)
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "plot.csv"
        assert main(["plot-data", "--summary", str(path), "--out", str(out)]) == 1
        reason = key if as_text else f"no key {key!r}"
        assert capsys.readouterr().err == f"error: {path}: not a sweep summary: {reason}\n"
        assert not out.exists()


class TestModuleEntryPoint:
    def test_python_dash_m_works(self):
        proc = subprocess.run(
            [sys.executable, "-m", "xchmc", "verify", "--suite", "reversibility"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "[PASS] reversibility" in proc.stdout
