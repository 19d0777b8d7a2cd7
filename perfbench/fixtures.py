"""Writes one workload's inputs from its seed:

    python3 perfbench/fixtures.py <workload> <directory> <seed>

`run.py` starts this in a child process, so that making the inputs is
charged neither to the program's time nor to its memory.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def main(argv) -> int:
    name, work, seed = argv
    workloads.WORKLOADS[name].make_fixtures(Path(work), int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
