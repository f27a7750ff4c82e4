"""Set up one workload in a fresh process, for run.py's setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints `ready` once the workload could start its first timed operation,
then waits for stdin to close and stops what the set-up started.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    w = WORKLOADS[name](seed)
    w.setup()
    w.begin(0)
    print("ready", flush=True)
    sys.stdin.read()
    w.close()


if __name__ == "__main__":
    main()
