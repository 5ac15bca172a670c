#!/usr/bin/env python3
"""Survey seeded descending walks across the named orders.

For each order and sample start, runs a batch of seeded walks and reports
chain-length statistics against the order's conservative descent bound.

    python scripts/descent_survey.py --walks 200 --seed 0
"""

import argparse
import statistics
import sys
from pathlib import Path

try:
    import wellfounded  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wellfounded import fuzz_descent
from wellfounded.orders import ORDER_NAMES, named_descent_order


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--walks", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-steps", type=int, default=10000)
    args = parser.parse_args()

    print(f"{'order':<14} {'start':<12} {'walks':>6} {'min':>5} {'mean':>7} {'max':>5} {'bound':>7}")
    for name in ORDER_NAMES:
        order = named_descent_order(name)
        for start in order.sample_starts:
            lengths = [
                len(
                    fuzz_descent(
                        order.relation,
                        start,
                        max_steps=args.max_steps,
                        seed=args.seed + walk,
                    )
                )
                for walk in range(args.walks)
            ]
            bound = order.descent_bound(start)
            print(
                f"{name:<14} {order.describe(start):<12} {args.walks:>6} "
                f"{min(lengths):>5} {statistics.mean(lengths):>7.1f} {max(lengths):>5} "
                f"{bound if bound is not None else '-':>7}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
