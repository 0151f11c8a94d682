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

plus a rank check of the path map's exponent matrix A against dim P, the
number of tokens of the pattern P in which K is drawn.  A pass certifies
rank(A) = dim P: the path map's image lies in the inverse model, as the
round trip tests, so its closure is then the whole model and kernel
membership implies forward vanishing.  All arithmetic is exact, so a pass
is an identity, not an approximation.  The two sampling checks run on
integers: both draw integer points (matrix entries and positive path-map
parameters), and matrices are inverted up to the scalar det as adjugates,
from one fraction-free symmetric sweep (:func:`linalg.det_adjugate`).
Pattern membership ignores that scalar.  Forward vanishing reads every
binomial's value at K^{-1} off integer products at the adjugate's point:
with lead degree d and trail degree e, the lower-degree side is scaled by
a power of det so both sides share the denominator det^max(d, e), and a
failing value is the difference of the two scaled products over it.
Points, matrices and parameters stay plain lists in the trials, and
forward vanishing compares all generators of one shape (d, e) at once, as
columns of products.  Each trial is a Schwartz-Zippel identity test, as
sound with integer draws as with rational ones.  Trials derive per-trial
seeds from the master seed and are independent; reports are reproducible
byte-for-byte.  The seed must be non-negative and the trial count at most
1 000 003, so no two runs share a trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
import random

from . import linalg
from .binomials import Binomial
from .classify import ClassificationReport, classify
from .ideals import combined_from_classification
from .laplacians import CoordinateMap, g_derived_laplacian_map
from .matrices import (
    MatrixPattern,
    invert_exact,  # unused; perfbench's tracer test pins this binding
    pattern_from_graph,
    sample_projective,
)
from .monomials import MonomialMap, exponent_rank, path_map
from .trees import ColoredTree

_SEED_STRIDE = 1_000_003
ROUNDTRIP_BOUND = 10**4


def _trial_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + index


@dataclass
class VerificationContext:
    """Everything the checks need for one theorem-applicable tree.

    The tree, its contraction, its derived graph and its coordinate kind
    are read from ``report`` (``tree``, ``working_tree``, ``graph`` and
    ``coordinates``); the context keeps no copies of them.
    """

    report: ClassificationReport
    pattern: MatrixPattern
    cmap: CoordinateMap
    mmap: MonomialMap
    generators: list[Binomial]


def build_context(t: ColoredTree) -> VerificationContext:
    """Classify and assemble maps and generators; raises when NONE."""
    report = classify(t)
    generators, _ = combined_from_classification(report)
    return VerificationContext(
        report=report,
        pattern=pattern_from_graph(report.graph),
        cmap=g_derived_laplacian_map(report.graph),
        mmap=path_map(report.working_tree, report.graph),
        generators=generators,
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


def require_trials(trials: int, seed: int) -> None:
    """Refuse fewer than one trial, and any run whose trials would repeat
    another run's: ``random.Random`` seeds by absolute value, so a negative
    seed repeats the trials of a positive one, and a trial index past the
    stride runs into the next seed's trials."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > _SEED_STRIDE:
        raise ValueError(f"trials must be at most {_SEED_STRIDE}")
    if seed < 0:
        raise ValueError("seed must be non-negative")


def _vanishing_columns(
    index: dict, gens: list[Binomial]
) -> list[tuple[int, int, list[int], list[tuple[int, ...]]]]:
    """Generators as factor columns, grouped by shape.

    A generator whose lead has degree d and trail degree e lists d lead
    positions and then e trail positions in the coordinate list (a variable
    repeated by its exponent).  Each group is (d, e, generator positions,
    columns): column f holds factor f of every generator of the group, so
    columns[:d] are the leads and columns[d:] the trails.  A variable
    outside ``index`` raises ``KeyError``.
    """
    groups: dict[tuple[int, int], tuple[list[int], list[list[int]]]] = {}
    for pos, b in enumerate(gens):
        lead = [index[v] for v, e in b.lead for _ in range(e)]
        trail = [index[v] for v, e in b.trail for _ in range(e)]
        positions, rows = groups.setdefault((len(lead), len(trail)), ([], []))
        positions.append(pos)
        rows.append(lead + trail)
    return [
        (d, e, positions, list(zip(*rows))) for (d, e), (positions, rows) in groups.items()
    ]


def _products(x: list, columns: list[tuple[int, ...]], count: int) -> list:
    """Per row of the columns, the product of the entries of x they name;
    1 for each of the ``count`` rows when there are no columns."""
    if not columns:
        return [1] * count
    values = map(x.__getitem__, columns[0])
    for col in columns[1:]:
        values = map(mul, values, map(x.__getitem__, col))
    return list(values)


def forward_vanishing(
    ctx: VerificationContext,
    trials: int,
    seed: int,
    generators: list[Binomial] | None = None,
) -> dict:
    """Sample K in the pattern, invert, map, and demand exact zeros.

    K has integer entries, and the point of K^{-1} is x_int / det K with
    x_int the integer point of adj(K).  A binomial whose lead has degree d
    and trail degree e therefore has the value
    (lead(x_int) det^(m-d) - trail(x_int) det^(m-e)) / det^m there, with
    m = max(d, e).  Each trial evaluates the generators a shape (d, e) at a
    time, as lead and trail products over factor columns
    (:func:`_vanishing_columns`), scales the lower-degree side and compares
    the two lists; when d = e the scale is 1.  A generator whose scaled
    products u and v differ fails with the exact value (u - v) / det^m.
    Failures are listed by trial, then in generator order.
    """
    require_trials(trials, seed)
    gens = ctx.generators if generators is None else generators
    groups = _vanishing_columns(ctx.cmap.index, gens)
    failures: list[dict] = []
    for k in range(trials):
        sample = sample_projective(ctx.pattern, _trial_seed(seed, k))
        x = ctx.cmap.coordinates(sample.adjugate)
        failing = []
        for d, e, positions, columns in groups:
            lead = _products(x, columns[:d], len(positions))
            trail = _products(x, columns[d:], len(positions))
            if d != e:
                scale = sample.det ** abs(d - e)
                if d < e:
                    lead = [u * scale for u in lead]
                else:
                    trail = [v * scale for v in trail]
            if lead != trail:
                denominator = sample.det ** max(d, e)
                failing += [
                    (p, Fraction(u - v, denominator))
                    for p, u, v in zip(positions, lead, trail)
                    if u != v
                ]
        for pos, value in sorted(failing):
            failures.append({"trial": k, "generator": gens[pos].text(), "value": str(value)})
    return {
        "check": "forward_vanishing",
        "trials": trials,
        "generators": len(gens),
        "failures": failures,
        "passed": not failures,
    }


def roundtrip_parametrization(ctx: VerificationContext, trials: int, seed: int) -> dict:
    """Push random positive parameters through the map and pull back.

    Parameters theta are drawn as integers in [1, 10^4], in the order of
    the path map's parameters, so the path-map point and its pull-back
    sigma are integer.  When det(sigma) != 0, adj(sigma) is a nonzero
    multiple of sigma^{-1}, so it lies in the pattern exactly when
    sigma^{-1} does.  Singular pull-backs are legitimate boundary points of
    the closure and are counted as skips, never failures.  Points and
    matrices stay plain lists (:meth:`MonomialMap.point`,
    :meth:`CoordinateMap.sigma_rows`, :meth:`MatrixPattern.contains`).
    """
    require_trials(trials, seed)
    failures: list[int] = []
    skipped = 0
    for k in range(trials):
        rng = random.Random(_trial_seed(seed, k))
        theta = [rng.randint(1, ROUNDTRIP_BOUND) for _ in ctx.mmap.params]
        sigma = ctx.cmap.sigma_rows(ctx.mmap.point(theta))
        det, adj = linalg.det_adjugate(sigma)
        if not det:
            skipped += 1
            continue
        if not ctx.pattern.contains(adj):
            failures.append(k)
    return {
        "check": "roundtrip_parametrization",
        "trials": trials,
        "skipped_singular": skipped,
        "failures": failures,
        "passed": not failures,
    }


def dimension_report(ctx: VerificationContext) -> dict:
    """Exponent-matrix rank against dim P, the pattern's token count.

    On every tree the package builds, dim P counts the parameters occurring
    in A.  The parameters are the colors of the working tree's non-zeroed
    nodes.  The tokens are the leaf colors and those of the non-zeroed lcas
    of leaf pairs in 1..n, and every internal node is such an lca: it has
    two children holding leaves.  Node k occurs in row (0, j) for each leaf
    j below it; the squared-center row (0, c) still carries theta_c, and the
    top also occurs in (0, j) for j under its other child.
    """
    rank = exponent_rank(ctx.mmap)
    occurring = len(ctx.pattern.tokens())
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
        """The fields in declaration order; values are shared, not copied."""
        # dataclasses.asdict deep-copied every check, failure record and
        # generator string: 0.11 s of 1.9 s under cProfile of two perfbench
        # sweep rounds.
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
    require_trials(trials, seed)
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
        coordinates=ctx.report.coordinates,
        seed=seed,
        trials=trials,
        generators=[b.text() for b in ctx.generators],
        checks=checks,
        passed=all(c["passed"] for c in checks),
    )
