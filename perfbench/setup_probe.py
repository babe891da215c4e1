"""Time the set-up of one workload in a fresh interpreter; prints the seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <work dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import setup_once  # noqa: E402  (run.py imports only the standard library)

if __name__ == "__main__":
    seconds, _, _ = setup_once(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(seconds))
