"""``scripts/paired_bench.py`` stops what it started, and only that, on a stop signal,
and counts a checkout's work exactly."""

import importlib
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# The work of a benchmark in miniature: a temporary directory, and a run that
# starts a worker of its own; both write their pids, then wait to be stopped.
WORK = textwrap.dedent("""
    import subprocess, sys, tempfile
    sys.path.insert(0, sys.argv[1])
    import paired_bench

    RUN = '''
    import subprocess, sys, time
    worker = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{worker.pid}\\\\n")
    time.sleep(60)
    '''

    def work():
        with tempfile.TemporaryDirectory(dir=sys.argv[2]) as tmp:
            with open(sys.argv[3], "w") as fh:
                fh.write(f"{tmp}\\n")
            run = subprocess.Popen([sys.executable, "-c", RUN, sys.argv[3]])
            with open(sys.argv[3], "a") as fh:
                fh.write(f"{run.pid}\\n")
            run.wait()
        return 0

    sys.exit(paired_bench.in_own_group(work))
""")


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (a zombie waiting to be reaped is not)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT, signal.SIGHUP])
def test_stop_signal_removes_the_temporary_directory_and_stops_every_process(tmp_path, signum):
    # The script shares this process's group: signalling that group would stop the test.
    pids = tmp_path / "pids"
    script = subprocess.Popen([sys.executable, "-c", WORK, str(SCRIPTS), str(tmp_path),
                               str(pids)])
    try:
        deadline = time.monotonic() + 30
        while not (pids.exists() and len(pids.read_text().splitlines()) == 3):
            assert time.monotonic() < deadline and script.poll() is None
            time.sleep(0.05)
        tmp, *started = pids.read_text().splitlines()
        assert Path(tmp).is_dir()
        script.send_signal(signum)
        assert script.wait(timeout=30) == 128 + signum
    finally:
        if script.poll() is None:
            script.kill()
    assert not Path(tmp).exists()
    deadline = time.monotonic() + 10
    while any(_alive(int(pid)) for pid in started) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(int(pid)) for pid in started)


# A checkout in miniature: a package whose transition calls the gradient twice
# and returns a dataclass, and a workload that runs ``n`` transitions from the seed ``n``.
MINI_KERNEL = textwrap.dedent("""
    from dataclasses import dataclass


    @dataclass
    class Outcome:
        value: float


    def gradient(x):
        return abs(x)


    def extra_chance_step(x):
        return Outcome(gradient(gradient(x)) + len("ab") + len("c"))
""")
MINI_WORKLOADS = textwrap.dedent("""
    import math
    from types import SimpleNamespace

    from xchmc import kernel


    def _workers():
        return 2


    class Mini:
        def __init__(self, reported):
            self.reported = reported

        def setup(self, seed, work):
            return {"n": seed, "workers": _workers()}

        def batch(self, ctx, j, tracer=None):
            assert ctx["workers"] == 1
            total = 0.0
            for _ in range(ctx["n"]):
                total += kernel.extra_chance_step(-1.5).value
            math.floor(total)  # outside src/xchmc: not counted
            return SimpleNamespace(force_evals=self.reported * ctx["n"])


    WORKLOADS = {"mini": Mini(2), "misreported": Mini(3), "unreported": Mini(0)}
""")


@pytest.fixture
def paired_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("paired_bench")


@pytest.fixture
def mini_checkout(tmp_path):
    package = tmp_path / "src" / "xchmc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "kernel.py").write_text(MINI_KERNEL)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(MINI_WORKLOADS)
    return tmp_path


@pytest.mark.parametrize("workload", ["mini", "unreported"])
def test_work_counts_are_exact(paired_bench, mini_checkout, workload):
    counts = paired_bench.work_counts(mini_checkout, workload, 3)
    # Per transition: 1 + 2 Python calls and the generated ``Outcome.__init__``,
    # and 2 abs + 2 len C calls.
    assert {k: counts[k] for k in ("python_calls", "c_calls", "transitions", "force_evals")} == {
        "python_calls": 12, "c_calls": 12, "transitions": 3, "force_evals": 6}
    assert counts["python_calls_per_transition"] == 4.0
    assert counts["c_calls_per_transition"] == 4.0
    assert counts["python_calls_per_force_eval"] == 2.0
    assert counts["c_calls_per_force_eval"] == 2.0
    assert counts["python"] and counts["numpy"]
    assert not list(mini_checkout.rglob("__pycache__"))


def test_misreported_force_evaluations_stop_the_count(paired_bench, mini_checkout):
    with pytest.raises(RuntimeError, match="reports 9 force evaluations, the profile counted 6"):
        paired_bench.work_counts(mini_checkout, "misreported", 3)


def test_log_ratio_interval(paired_bench):
    ratios = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.0, 1.1, 0.98]
    runs = [{"seed": i, "side": side, "metrics": {"m": 100.0 * (r if side == "change" else 1.0)}}
            for i, r in enumerate(ratios) for side in ("parent", "change")]
    interval = paired_bench.log_ratio_interval(runs, "m")
    logs = [math.log(r) for r in ratios]
    mean = sum(logs) / len(logs)
    sd = math.sqrt(sum((v - mean) ** 2 for v in logs) / (len(logs) - 1))
    assert interval["mean"] == pytest.approx(mean, rel=1e-12)
    lo, hi = interval["ci95"]
    assert lo < mean < hi
    assert (hi - lo) / 2 == pytest.approx(2.2621571628 * sd / math.sqrt(10), rel=1e-12)
    with pytest.raises(ValueError, match="9 pairs"):
        paired_bench.log_ratio_interval(runs[:-2], "m")
