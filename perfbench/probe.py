"""Time one workload's set-up in a fresh process and print it in seconds:
importing hb from this checkout, generating the first block of inputs
and warming the fields and evaluators.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2])).block()
print(time.perf_counter() - START)
