"""Set-up probe: run in a fresh interpreter, it times importing diraclab and
one minimal call of each entry point a workload uses.

    python3 perfbench/probe.py <workload> <seed> <out-dir>

Prints the elapsed seconds, then one line per call with its outcome
(``ok``/``FAIL`` and the call's label).
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

results = workloads.minimal(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - T0))
for label, ok in results:
    print("ok" if ok else "FAIL", label)
