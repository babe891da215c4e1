"""``scripts/paired_bench.py`` stops what it started, and only that, on a stop signal."""

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
