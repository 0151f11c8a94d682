"""End-to-end verification of the toric descriptions, exactly.

For a theorem-applicable tree the pipeline assembles the coordinate change,
the path map and the combined generators, then certifies the claims through
three exact checks:

* kernel membership: every generator's two monomials map to the same
  parameter exponent vector;
* forward vanishing: for sampled invertible matrices K in the tree's
  pattern, every generator evaluates to exactly 0 at the coordinates of
  K^{-1};
* round trip: points produced by the path map, pulled back to a matrix and
  inverted, land exactly back in the tree's pattern (singular points are
  skipped, not failed);

plus a rank check of the exponent matrix against the number of occurring
parameters.  All arithmetic is rational, so a pass is an identity, not an
approximation.  Trials derive per-trial seeds from the master seed and are
independent; reports are reproducible byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import random

from .binomials import Binomial
from .classify import ClassificationReport, classify
from .graphs import ColoredGraph
from .ideals import combined_from_classification
from .laplacians import CoordinateMap, g_derived_laplacian_map, reduced_laplacian_map
from .matrices import (
    MatrixPattern,
    det_exact,
    invert_exact,
    pattern_contains,
    pattern_from_tree,
    sample_point,
)
from .monomials import MonomialMap, exponent_rank, path_map
from .trees import ColoredTree

_SEED_STRIDE = 1_000_003


def _trial_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + index


@dataclass
class VerificationContext:
    """Everything needed to run checks on one theorem-applicable tree."""

    tree: ColoredTree
    report: ClassificationReport
    working: ColoredTree
    graph: ColoredGraph
    pattern: MatrixPattern
    cmap: CoordinateMap
    mmap: MonomialMap
    generators: list[Binomial]
    kind: str


def build_context(t: ColoredTree) -> VerificationContext:
    """Classify and assemble maps and generators; raises when NONE."""
    report = classify(t)
    generators, kind = combined_from_classification(report)
    working = report.working_tree
    graph = report.graph
    if working.zeroed:
        cmap = g_derived_laplacian_map(graph)
    else:
        cmap = reduced_laplacian_map(t.n_leaves)
    return VerificationContext(
        tree=t,
        report=report,
        working=working,
        graph=graph,
        pattern=pattern_from_tree(t),
        cmap=cmap,
        mmap=path_map(working, kind=kind),
        generators=generators,
        kind=kind,
    )


# -------------------------------------------------------------------- #
# individual checks                                                      #
# -------------------------------------------------------------------- #


def kernel_membership(
    ctx: VerificationContext,
    generators: list[Binomial] | None = None,
) -> dict:
    gens = ctx.generators if generators is None else generators
    failing = [b.text() for b in gens if not ctx.mmap.in_kernel(b)]
    return {
        "check": "kernel_membership",
        "generators": len(gens),
        "failing": failing,
        "passed": not failing,
    }


def forward_vanishing(
    ctx: VerificationContext,
    trials: int,
    seed: int,
    generators: list[Binomial] | None = None,
) -> dict:
    """Sample K in the pattern, invert, map, and demand exact zeros."""
    gens = ctx.generators if generators is None else generators
    failures: list[dict] = []
    for k in range(trials):
        m = sample_point(ctx.pattern, _trial_seed(seed, k))
        sigma = invert_exact(m)
        point = ctx.cmap.apply(sigma)
        for b in gens:
            value = b.evaluate(point)
            if value != 0:
                failures.append({"trial": k, "generator": b.text(), "value": str(value)})
    return {
        "check": "forward_vanishing",
        "trials": trials,
        "generators": len(gens),
        "failures": failures,
        "passed": not failures,
    }


def roundtrip_parametrization(ctx: VerificationContext, trials: int, seed: int) -> dict:
    """Push random positive parameters through the map and pull back.

    Singular pull-backs are legitimate boundary points of the closure and
    are counted as skips, never failures.
    """
    failures: list[int] = []
    skipped = 0
    for k in range(trials):
        rng = random.Random(_trial_seed(seed, k))
        theta = {
            tok: Fraction(rng.randint(1, 100), rng.randint(1, 40))
            for tok in ctx.mmap.params
        }
        point = ctx.mmap.evaluate(theta)
        sigma = ctx.cmap.unapply(point)
        if det_exact(sigma) == 0:
            skipped += 1
            continue
        concentration = invert_exact(sigma)
        if not pattern_contains(ctx.pattern, concentration):
            failures.append(k)
    return {
        "check": "roundtrip_parametrization",
        "trials": trials,
        "skipped_singular": skipped,
        "failures": failures,
        "passed": not failures,
    }


def dimension_report(ctx: VerificationContext) -> dict:
    """Exponent-matrix rank against the occurring-parameter count."""
    rank = exponent_rank(ctx.mmap)
    occurring = len(ctx.mmap.occurring_params())
    return {
        "check": "dimension",
        "rank": rank,
        "occurring_parameters": occurring,
        "passed": rank == occurring,
    }


# -------------------------------------------------------------------- #
# full report                                                            #
# -------------------------------------------------------------------- #


@dataclass
class VerificationReport:
    tree: dict
    theorem: str
    coordinates: str
    seed: int
    trials: int
    generators: list[str]
    checks: list[dict]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "tree": self.tree,
            "theorem": self.theorem,
            "coordinates": self.coordinates,
            "seed": self.seed,
            "trials": self.trials,
            "generators": self.generators,
            "checks": self.checks,
            "passed": self.passed,
        }


def verify_tree(t: ColoredTree, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Run the full check suite on one tree.

    Raises
    ------
    NotApplicableError
        When the tree classifies as NONE.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ctx = build_context(t)
    checks = [
        kernel_membership(ctx),
        forward_vanishing(ctx, trials=trials, seed=seed),
        roundtrip_parametrization(ctx, trials=trials, seed=seed),
        dimension_report(ctx),
    ]
    return VerificationReport(
        tree=t.to_dict(),
        theorem=ctx.report.theorem,
        coordinates=ctx.kind,
        seed=seed,
        trials=trials,
        generators=[b.text() for b in ctx.generators],
        checks=checks,
        passed=all(c["passed"] for c in checks),
    )
