"""End-to-end verification of the toric descriptions, exactly.

For a theorem-applicable tree the pipeline assembles the coordinate change,
the path map and the combined generators, then certifies the claims through
three exact checks.  The generators come as sorted integer keys
(:func:`ideals.combined_from_classification`); the context keeps the keys,
and the binomials the one decoder, :func:`ideals.binomials`, makes of them
for the checks.  The report lists the generators as the text lines that
:func:`ideals.generator_lines` renders from the keys.  The checks:

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
by fraction-free bordering; pattern membership ignores that scalar.
Both run their trials in the fewest chunks of at most :data:`TRIAL_CHUNK`,
of near-equal size: the matrices of a chunk are built in one batch
(:func:`linalg.det_adjugates`, which resolves a zero leading principal
minor inside the batch, so no matrix is built alone), which bounds the
memory a run holds, and every other step stays per trial.
Forward vanishing reads every binomial's value at K^{-1} off integer
products at the adjugate's point: with lead degree d and trail degree e,
the lower-degree side is scaled by a power of det so both sides share the
denominator det^max(d, e), and a failing value is the difference of the
two scaled products over it.
Points and parameters stay plain lists in the trials, and a matrix is
the list of its upper triangle, column by column (:func:`linalg.upper_pairs`,
the order in which it is bordered), from draw to membership test: no trial
builds n x n rows and none reorders a triangle.  Forward vanishing compares
all generators of one shape (d, e) at once, as columns of products.  Each
trial is a Schwartz-Zippel identity test, as sound with integer draws as
with rational ones.  Trial k of a run with seed s has the trial seed
s * 1 000 003 + k, and each check reads its draws for that trial from a
counter-based hash stream keyed by its own label, the trial seed and the
attempt (:func:`matrices.uniform_draws`): no generator is seeded, the
two checks' draws are independent, and each trial can be replayed on its
own.  Reports are reproducible byte-for-byte, on every Python version.
The seed must be non-negative and the trial count at most 1 000 003, so
no two runs share a trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .binomials import Binomial
from .classify import ClassificationReport, classify
from .ideals import binomials, combined_from_classification, generator_lines
from .laplacians import CoordinateMap, g_derived_laplacian_map
from .matrices import (
    MatrixPattern,
    invert_exact,  # unused; perfbench's tracer test pins this binding
    pattern_from_graph,
    sample_projectives,
    uniform_draws,
)
from .monomials import MonomialMap, exponent_rank, path_map
from .trees import ColoredTree

_SEED_STRIDE = 1_000_003
ROUNDTRIP_BOUND = 10**4
ROUNDTRIP_LABEL = "roundtrip_parametrization"
# Trials whose matrices are inverted in one batch (linalg.det_adjugates);
# every entry of a batch is held as a list this long, so it bounds memory.
TRIAL_CHUNK = 64


def _trial_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + index


def _chunks(trials: int):
    """The trial indices 0..trials - 1 as the fewest ranges of at most
    TRIAL_CHUNK, their sizes differing by at most 1 (65 trials as 33 + 32),
    so no batch is much smaller than the others."""
    count = -(-trials // TRIAL_CHUNK)
    return (range(-(-i * trials // count), -(-(i + 1) * trials // count)) for i in range(count))


@dataclass
class VerificationContext:
    """Everything the checks need for one theorem-applicable tree.

    The tree, its contraction, its derived graph and its coordinate kind
    are read from ``report`` (``tree``, ``working_tree``, ``graph`` and
    ``coordinates``); the context keeps no copies of them.  ``keys`` are
    the sorted generator keys of :func:`ideals.combined_from_classification`,
    and ``generators`` the binomials they decode to.
    """

    report: ClassificationReport
    pattern: MatrixPattern
    cmap: CoordinateMap
    mmap: MonomialMap
    keys: list[int]
    generators: list[Binomial]


def build_context(t: ColoredTree) -> VerificationContext:
    """Classify and assemble maps and generators; raises when NONE."""
    report = classify(t)
    keys, kind = combined_from_classification(report)
    return VerificationContext(
        report=report,
        pattern=pattern_from_graph(report.graph),
        cmap=g_derived_laplacian_map(report.graph),
        mmap=path_map(report.working_tree, report.graph),
        keys=keys,
        generators=binomials(keys, kind, report.graph.n),
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
    """Refuse fewer than one trial, a negative seed, and any run whose
    trials would repeat another run's: trial k of seed s draws from trial
    seed s * 1 000 003 + k, so a trial index past the stride runs into the
    next seed's trials.  Seeds are the non-negative integers, as the CLI
    documents, so each run's trial seeds are a range of its own."""
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
    for chunk in _chunks(trials):
        samples = sample_projectives(ctx.pattern, [_trial_seed(seed, k) for k in chunk])
        for k, sample in zip(chunk, samples):
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
                failures.append(
                    {"trial": k, "generator": gens[pos].text(), "value": str(value)}
                )
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
    the path map's parameters, from the stream of :data:`ROUNDTRIP_LABEL`
    and the trial seed (:func:`matrices.uniform_draws`, attempt 0), so
    they are independent of forward vanishing's draws for the same trial.
    The path-map point and its pull-back sigma are integer.  When
    det(sigma) != 0, adj(sigma) is a nonzero multiple of sigma^{-1}, so it
    lies in the pattern exactly when sigma^{-1} does.  Singular pull-backs
    are legitimate boundary points of the closure and are counted as skips,
    never failures.  Points and matrices stay plain lists, a matrix as its
    upper triangle (:meth:`MonomialMap.point`,
    :meth:`CoordinateMap.sigma_upper`, :meth:`MatrixPattern.contains`).
    """
    require_trials(trials, seed)
    failures: list[int] = []
    skipped = 0
    params = len(ctx.mmap.params)
    for chunk in _chunks(trials):
        sigmas = []
        for k in chunk:
            theta = uniform_draws(
                ROUNDTRIP_LABEL, _trial_seed(seed, k), 0, params, 1, ROUNDTRIP_BOUND
            )
            sigmas.append(ctx.cmap.sigma_upper(ctx.mmap.point(theta)))
        for k, (det, adj) in zip(chunk, linalg.det_adjugates(ctx.cmap.n, sigmas)):
            if not det:
                skipped += 1
            elif not ctx.pattern.contains(adj):
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
        generators=generator_lines(ctx.keys, ctx.report.coordinates, ctx.report.graph.n),
        checks=checks,
        passed=all(c["passed"] for c in checks),
    )
