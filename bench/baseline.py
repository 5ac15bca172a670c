"""Regenerate the library-call rows of the ROADMAP Baseline table.

    python3 bench/baseline.py

Each row is timed in this process with ``time.perf_counter`` and reported
as the median of ``REPEATS`` calls, in seconds.  The library is imported from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import wellfounded as W  # noqa: E402

ROWS = (
    ("quicksort on sorted range(1500)", lambda: W.quicksort(lambda b, a: b <= a, range(1500))),
    ("transitive_closure(nat).decide(0, 2000)", lambda: W.transitive_closure(W.nat_less()).decide(0, 2000)),
    ("nat_less_decide(0, 10**6)", lambda: W.nat_less_decide(0, 10**6)),
)
REPEATS = 3


def main() -> int:
    print(f"Python {platform.python_version()}, {os.cpu_count()} CPUs, median of {REPEATS}")
    print("| What | Time |")
    print("| --- | --- |")
    for label, call in ROWS:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        print(f"| `{label}` | {statistics.median(times):.2f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
