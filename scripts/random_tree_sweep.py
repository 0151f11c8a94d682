#!/usr/bin/env python3
"""Randomized structural sweep over colored-zeroed trees.

Generates random trees (mixed coloring and zeroing modes), classifies each,
and runs the exact verification suite on every theorem-applicable one.
Prints a classification histogram and fails loudly on any exact-check
violation; useful for soak-testing beyond the fixed acceptance sweep.

Usage:
  python scripts/random_tree_sweep.py --count 500 --seed 1 --trials 10
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_tree  # noqa: E402

from treetoric.errors import NotApplicableError  # noqa: E402
from treetoric.pipeline import verify_tree  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--n-max", type=int, default=8)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    tally: Counter[str] = Counter()
    bad = 0
    for idx in range(args.count):
        t = random_tree(rng, n_max=args.n_max)
        try:
            result = verify_tree(t, trials=args.trials, seed=idx)
        except NotApplicableError:
            tally["NONE"] += 1
            continue
        tally[result.theorem] += 1
        for c in result.checks:
            if not c["passed"]:
                bad += 1
                print(f"FAIL {c['check']}: {t.to_dict()}")
    for tag, count in sorted(tally.items()):
        print(f"{tag:24s} {count}")
    print(f"failures: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
