"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/probe.py ROOT WORKLOAD SEED WORKDIR

Times ``import treebed``, parameter validation and one warm-up call, and
prints the seconds spent. Building the warm-up call's input is the
benchmark's own work and stays out of the time.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, load_package


def main(argv: list[str]) -> None:
    root, name, seed, workdir = Path(argv[0]), argv[1], int(argv[2]), Path(argv[3])
    workload = WORKLOADS[name]()
    raw = workload.raw_input(seed, "warm-up")
    t0 = time.perf_counter()
    tb = load_package(root)
    workload.bind(tb, workdir)
    t1 = time.perf_counter()
    inp = workload.prepare(raw)
    t2 = time.perf_counter()
    workload.run(inp)
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))


if __name__ == "__main__":
    main(sys.argv[1:])
