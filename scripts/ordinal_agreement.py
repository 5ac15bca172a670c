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

from wellfounded.checks import ordinal_disagreements


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    started = time.time()
    problems = 0
    rng = random.Random(args.seed)
    for line in ordinal_disagreements(rng, args.samples, args.depth):
        problems += 1
        print(line)
    elapsed = time.time() - started
    print(
        f"{args.samples} pairs at depth {args.depth}: "
        f"{problems} disagreements or failed round trips, {elapsed:.2f}s"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
