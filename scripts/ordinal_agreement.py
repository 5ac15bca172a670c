#!/usr/bin/env python3
"""Compare ordinal notations along two independent paths.

Samples random notation pairs, compares them directly in Cantor normal
form, and again after translating both sides into nested multisets over
the unit carrier; any disagreement or failed round trip is reported.

    python scripts/ordinal_agreement.py --samples 2000 --depth 3
"""

import argparse
import random
import sys
import time
from pathlib import Path

try:
    import wellfounded  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wellfounded import (
    Ordering,
    compare,
    empty_relation,
    format_ordinal,
    from_nested,
    nested_multiset_relation,
    to_nested,
)
from wellfounded.checks import random_notation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    order = nested_multiset_relation(empty_relation("unit"), max_depth=4 + 2 * args.depth)
    started = time.time()
    disagreements = 0
    round_trip_failures = 0
    for _ in range(args.samples):
        a = random_notation(rng, args.depth)
        b = random_notation(rng, args.depth)
        if from_nested(to_nested(a)) != a:
            round_trip_failures += 1
            print(f"round trip failed: {format_ordinal(a)}")
        direct = compare(a, b) is Ordering.LT
        translated = order.decide(to_nested(a), to_nested(b)) is not None
        if direct != translated:
            disagreements += 1
            print(f"disagree: {format_ordinal(a)}  vs  {format_ordinal(b)}")
    elapsed = time.time() - started
    print(
        f"{args.samples} pairs at depth {args.depth}: "
        f"{disagreements} disagreements, {round_trip_failures} round-trip failures, "
        f"{elapsed:.2f}s"
    )
    return 1 if disagreements or round_trip_failures else 0


if __name__ == "__main__":
    sys.exit(main())
