#!/usr/bin/env python3
"""Randomized structural sweep over colored-zeroed trees.

Generates random trees (mixed coloring and zeroing modes), classifies each,
and runs the exact verification suite on every theorem-applicable one.
Prints a classification histogram and fails loudly on any exact-check
violation; useful for soak-testing beyond the fixed acceptance sweep.  A
failure line names the tree's index, which is also its ``verify_tree``
seed, so ``verify_tree(tree, trials, seed=index)`` replays it exactly.

Usage:
  python scripts/random_tree_sweep.py --count 500 --seed 1 --trials 10
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from random_trees import random_tree  # noqa: E402

from treetoric.errors import NotApplicableError  # noqa: E402
from treetoric.pipeline import require_trials, verify_tree  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--n-max", type=int, default=8)
    args = ap.parse_args()
    if args.count < 0:
        ap.error("--count must be non-negative")
    if args.n_max < 2:
        ap.error("--n-max must be at least 2")
    # the tree generator's seed aliases by absolute value as the trials' do
    try:
        require_trials(args.trials, args.seed)
    except ValueError as exc:
        ap.error(str(exc))

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
                print(f"FAIL {c['check']} tree {idx} (seed {idx}): {t.to_dict()}")
    for tag, count in sorted(tally.items()):
        print(f"{tag:24s} {count}")
    print(f"failures: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
