#!/usr/bin/env python3
"""Run analyze / generators / verify over every tree fixture.

Writes one report set per fixture into the output directory and prints a
one-line summary per tree.  Trees outside the toric regimes get a
classification report only.

Usage:
  python scripts/run_fixture_suite.py --out out/fixtures --trials 100 --seed 0
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
sys.path.insert(0, str(REPO / "src"))

from treetoric.classify import classify  # noqa: E402
from treetoric.cli import _json  # noqa: E402
from treetoric.pipeline import require_trials, verify_tree  # noqa: E402
from treetoric.trees import load_tree  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/fixtures", help="output directory")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        require_trials(args.trials, args.seed)
    except ValueError as exc:
        ap.error(str(exc))

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "parents" not in doc:
            continue  # data-only fixtures (e.g. the stored 10x10 transform)
        tree = load_tree(path)
        report = classify(tree)
        (outdir / f"{path.stem}.analyze.json").write_text(_json(report.to_dict()))
        if not report.applicable:
            print(f"{path.stem:24s} {report.theorem:22s} ({'; '.join(report.reasons)})")
            continue
        result = verify_tree(tree, trials=args.trials, seed=args.seed)
        (outdir / f"{path.stem}.generators.txt").write_text(
            "".join(line + "\n" for line in result.generators)
        )
        (outdir / f"{path.stem}.verify.json").write_text(_json(result.to_dict()))
        status = "ok" if result.passed else "FAILED"
        print(
            f"{path.stem:24s} {report.theorem:22s} "
            f"{len(result.generators):3d} generators ({result.coordinates})  "
            f"verify: {status}"
        )
        if not result.passed:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
