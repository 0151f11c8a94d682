"""End-to-end verification of the toric descriptions, exactly.

For a theorem-applicable tree the pipeline assembles the coordinate change,
the path map and the combined generators, then certifies the claims through
three exact checks.  The generators come as sorted integer keys
(:func:`ideals.combined_from_classification`), and the context keeps only
the keys: the checks read each monomial's factors off its part of a key
(:func:`ideals.key_digits`), and the binomials the one decoder,
:func:`ideals.binomials`, makes of them are decoded on first use of
:attr:`VerificationContext.generators`, which no check reads.  The report
lists the generators as the text lines that :func:`ideals.generator_lines`
renders from the keys.  The checks:

* kernel membership: every generator's two monomials map to the same
  parameter exponent vector, compared as packed integers;
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
of near-equal size, and hold a chunk entry-major from the draws to the
verdicts: one list across the chunk per color token, triangle entry,
coordinate, path-map parameter and distinct monomial
(:func:`matrices.sample_projectives`, :func:`linalg.det_adjugates`,
:meth:`CoordinateMap.coordinates` and :meth:`~CoordinateMap.sigma_upper`,
:meth:`MonomialMap.point`, :meth:`MatrixPattern.contains`).  So each step
is a few passes over the chunk, not one Python step per trial, and the
chunk bounds the memory a run holds; only the draws are read trial by
trial.  The matrices of a chunk are built in one batch, which resolves a
zero leading principal minor inside the batch, so no matrix is built
alone.  A matrix is its upper triangle, column by column
(:func:`linalg.upper_pairs`, the order in which it is bordered), from
draw to membership test: no trial builds n x n rows and none reorders a
triangle.
Forward vanishing reads every binomial's value at K^{-1} off integer
products at the adjugate's point: each distinct monomial is multiplied
out once per chunk (:func:`_monomial_values`), and with lead degree d and
trail degree e the lower-degree side is scaled by a power of det so both
sides share the denominator det^max(d, e); a failing value is the
difference of the two scaled products over it.  Each
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
from functools import cached_property
from itertools import chain, count, repeat
from operator import add, eq, mul
from typing import NamedTuple

from . import linalg
from .binomials import Binomial
from .classify import ClassificationReport, classify
from .ideals import binomials, combined_from_classification, generator_lines, key_digits
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
# Generators checked together (one _Plan): their distinct monomials are held
# at every trial of a chunk at once, so this bounds that memory.
_PLAN_SLICE = 1024


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
    the sorted generator keys of :func:`ideals.combined_from_classification`;
    the checks read each generator's factors off its key.  ``generators``,
    the binomials the keys decode to, is made on first use and kept.
    """

    report: ClassificationReport
    pattern: MatrixPattern
    cmap: CoordinateMap
    mmap: MonomialMap
    keys: list[int]

    @cached_property
    def generators(self) -> list[Binomial]:
        return binomials(self.keys, self.report.coordinates, self.report.graph.n)

    @cached_property
    def _key_plans(self) -> list[_Plan]:
        """The plans (:func:`_plans`) of the generators, read off the keys:
        a monomial is named by its part of the key, and each of its two
        digits gives one factor (:func:`ideals.key_digits`)."""
        index, kind = self.cmap.index, self.cmap.kind
        m, first, second = key_digits(self.cmap.n, lambda a, b, e: (index[kind, a, b], e))
        leads, trails = zip(*map(divmod, self.keys, repeat(m * m))) if self.keys else ((), ())

        def columns(names):
            firsts, seconds = zip(*map(divmod, names, repeat(m)))
            return [list(map(first.__getitem__, firsts)), list(map(second.__getitem__, seconds))]

        return _plans(leads, trails, columns)


def build_context(t: ColoredTree) -> VerificationContext:
    """Classify and assemble maps and generator keys; raises when NONE."""
    report = classify(t)
    keys, _ = combined_from_classification(report)
    return VerificationContext(
        report=report,
        pattern=pattern_from_graph(report.graph),
        cmap=g_derived_laplacian_map(report.graph),
        mmap=path_map(report.working_tree, report.graph),
        keys=keys,
    )


# -------------------------------------------------------------------- #
# individual checks                                                      #
# -------------------------------------------------------------------- #


class _Plan(NamedTuple):
    """A slice of generators as the distinct monomials they compare.

    ``slots`` are the distinct factors (coordinate position, exponent),
    numbered from 1: slot 0 pads a monomial with fewer factors than the
    others, 1 in a product and 0 in a sum.  ``columns[f]`` lists the slot
    of factor f of each distinct monomial.  Per generator of the slice,
    ``positions`` holds its place in the full list, ``leads`` and
    ``trails`` the numbers of its two monomials and ``degrees`` their
    degrees (d, e); ``even`` tells whether d = e for every generator.
    """

    slots: list[tuple[int, int]]
    columns: list[list[int]]
    positions: range
    leads: list[int]
    trails: list[int]
    degrees: list[tuple[int, int]]
    even: bool


def _sums(values: list, columns: list[list[int]]) -> list:
    """Per monomial, the sum of ``values`` over its factors' slots."""
    total = map(values.__getitem__, columns[0])
    for col in columns[1:]:
        total = map(add, total, map(values.__getitem__, col))
    return list(total)


def _plans(leads, trails, columns) -> list[_Plan]:
    """Plans of the generators lead - trail, :data:`_PLAN_SLICE` to a
    plan.  A monomial is given by a hashable name, and ``columns(names)``
    lists, per factor column, each named monomial's factor there, as
    (coordinate position, exponent), or () for none."""
    plans = []
    for start in range(0, len(leads), _PLAN_SLICE):
        lead = leads[start : start + _PLAN_SLICE]
        trail = trails[start : start + _PLAN_SLICE]
        names = list(dict.fromkeys(chain(lead, trail)))
        found = columns(names)
        slot = dict(zip(dict.fromkeys(chain(((),), *found)), count()))
        slots = list(slot)[1:]
        slotted = [list(map(slot.__getitem__, col)) for col in found]
        degree = _sums([0] + [e for _, e in slots], slotted)
        number = dict(zip(names, count()))
        lead, trail = list(map(number.__getitem__, lead)), list(map(number.__getitem__, trail))
        d, e = list(map(degree.__getitem__, lead)), list(map(degree.__getitem__, trail))
        positions = range(start, start + len(lead))
        plans.append(_Plan(slots, slotted, positions, lead, trail, list(zip(d, e)), d == e))
    return plans


def _plans_of(ctx: VerificationContext, generators: list[Binomial] | None) -> list[_Plan]:
    """The generators' plans: read off the keys, or, for an explicit list,
    through ``ctx.cmap.index``, where a variable outside it raises
    ``KeyError``."""
    if generators is None:
        return ctx._key_plans
    index = ctx.cmap.index

    def columns(names):
        found = [[(index[v], e) for v, e in m] for m in names]
        width = max(map(len, found))
        return list(zip(*(f + [()] * (width - len(f)) for f in found)))

    leads, trails = zip(*generators) if generators else ((), ())
    return _plans(leads, trails, columns)


def _texts(ctx: VerificationContext, generators, positions: list[int]) -> list[str]:
    """The text lines of the generators at ``positions``, in that order."""
    if generators is not None:
        return [generators[p].text() for p in positions]
    keys = [ctx.keys[p] for p in positions]
    return generator_lines(keys, ctx.report.coordinates, ctx.report.graph.n) if keys else []


def kernel_membership(
    ctx: VerificationContext,
    generators: list[Binomial] | None = None,
) -> dict:
    """Every generator's two monomials map to the same parameter monomial.

    Each distinct monomial's image is the sum of its factors' packed
    path-map rows times their exponents (:meth:`MonomialMap.packed_rows`,
    at the width of the highest checked degree, so no digit carries), and
    each generator compares the images of its two monomials.
    """
    plans = _plans_of(ctx, generators)
    degree = max(map(max, chain.from_iterable(p.degrees for p in plans)), default=0)
    packed = ctx.mmap.packed_rows(degree)
    failing: list[int] = []
    for plan in plans:
        images = _sums([0] + [e * packed[p] for p, e in plan.slots], plan.columns)
        lead, trail = map(images.__getitem__, plan.leads), map(images.__getitem__, plan.trails)
        if not all(map(eq, lead, trail)):
            failing += [
                g
                for g, u, v in zip(plan.positions, plan.leads, plan.trails)
                if images[u] != images[v]
            ]
    return {
        "check": "kernel_membership",
        "generators": len(ctx.keys if generators is None else generators),
        "failing": _texts(ctx, generators, failing),
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


def _monomial_values(plan: _Plan, x: list, size: int) -> list:
    """Each distinct monomial of the plan at every point of a chunk, a
    list across the chunk per monomial, from the coordinates ``x`` held
    entry-major.  In a plan of one factor column a monomial of exponent 1
    is its coordinate's list itself; otherwise the factors are gathered,
    for every monomial and point, into one list per column, multiplied,
    and cut back into a list per monomial."""
    factors = [[1] * size]
    factors += (x[p] if e == 1 else list(map(pow, x[p], repeat(e))) for p, e in plan.slots)
    if len(plan.columns) == 1:
        return list(map(factors.__getitem__, plan.columns[0]))
    flat = chain.from_iterable(map(factors.__getitem__, plan.columns[0]))
    for col in plan.columns[1:]:
        flat = map(mul, flat, chain.from_iterable(map(factors.__getitem__, col)))
    flat = list(flat)
    return [flat[i : i + size] for i in range(0, len(flat), size)]


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
    m = max(d, e).  A chunk of trials is held entry-major from the draws
    on: the samples' adjugates and coordinates
    (:meth:`CoordinateMap.coordinates`) are one list across the chunk per
    entry, and so is each distinct monomial of the generators
    (:func:`_monomial_values`).  A generator with d = e passes when its
    two monomials' lists are equal; otherwise the lower-degree side is
    scaled first.  A generator whose scaled products u and v differ at a
    trial fails there with the exact value (u - v) / det^m.  Failures are
    listed by trial, then in generator order.
    """
    require_trials(trials, seed)
    plans = _plans_of(ctx, generators)
    failures: list[tuple] = []
    for chunk in _chunks(trials):
        samples = sample_projectives(ctx.pattern, [_trial_seed(seed, k) for k in chunk])
        det = samples.det
        x = ctx.cmap.coordinates(samples.adjugate)
        for plan in plans:
            values = _monomial_values(plan, x, len(chunk))
            lead, trail = map(values.__getitem__, plan.leads), map(values.__getitem__, plan.trails)
            if plan.even and all(map(eq, lead, trail)):
                continue
            for g, i, j, (d, e) in zip(plan.positions, plan.leads, plan.trails, plan.degrees):
                u, v = values[i], values[j]
                if d != e:
                    scale = [z ** abs(d - e) for z in det]
                    if d < e:
                        u = list(map(mul, u, scale))
                    else:
                        v = list(map(mul, v, scale))
                if u != v:
                    failures += [
                        (k, g, Fraction(a - b, z ** max(d, e)))
                        for k, a, b, z in zip(chunk, u, v, det)
                        if a != b
                    ]
    failures.sort(key=lambda f: f[:2])
    texts = _texts(ctx, generators, [g for _, g, _ in failures])
    return {
        "check": "forward_vanishing",
        "trials": trials,
        "generators": len(ctx.keys if generators is None else generators),
        "failures": [
            {"trial": k, "generator": text, "value": str(value)}
            for (k, _, value), text in zip(failures, texts)
        ],
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
    never failures.  A chunk is held entry-major from the parameters to
    the verdicts, one list across the chunk per parameter, coordinate and
    triangle entry (:meth:`MonomialMap.point`,
    :meth:`CoordinateMap.sigma_upper`, :func:`linalg.det_adjugates`,
    :meth:`MatrixPattern.contains`).
    """
    require_trials(trials, seed)
    failures: list[int] = []
    skipped = 0
    params = len(ctx.mmap.params)
    for chunk in _chunks(trials):
        draws = (
            uniform_draws(ROUNDTRIP_LABEL, _trial_seed(seed, k), 0, params, 1, ROUNDTRIP_BOUND)
            for k in chunk
        )
        theta = list(zip(*draws))  # theta[p]: parameter p at each trial of the chunk
        sigma = ctx.cmap.sigma_upper(ctx.mmap.point(theta))
        det, adj = linalg.det_adjugates(ctx.cmap.n, sigma)
        for k, x, inside in zip(chunk, det, ctx.pattern.contains(adj)):
            if not x:
                skipped += 1
            elif not inside:
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
