"""Time the program's set-up in a fresh interpreter.

Usage: python3 setup_child.py SRC_DIR EQUATION[,EQUATION...]

Prints the seconds taken to import icsr, load the benchmark table and
sample the named equations' train splits.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from icsr import bench  # noqa: E402

table = bench.load_benchmarks()
for name in sys.argv[2].split(","):
    bench.sample(table[name], "train")
print(time.perf_counter() - t0)
