"""Print the seconds this fresh process takes to import impilot, build a
workload's configs and alphabets, and warm the index tables.

    python3 perfbench/setup_probe.py turbo_paper
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports impilot)

workloads.prepare(sys.argv[1])
print(perf_counter() - START)
