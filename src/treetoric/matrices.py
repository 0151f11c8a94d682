"""Symbolic symmetric-matrix patterns, exact sampling and exact inversion.

A :class:`MatrixPattern` records, for each entry of the upper triangle of
a symmetric n x n matrix, either a color token (entries sharing a token
must be equal) or ``None`` for a structural zero.  There is one
construction: a pattern reads the vertex and edge classes of a colored
graph.  The pattern of a tree is that of its derived graph, which keys
entry (i,j) by the color of lca(i,j) from the tree's leaf-pair table and
gives zeroed lcas structural zeros.

Sampling and inversion are exact; there is no floating point and hence no
tolerance anywhere.  A pattern and a symmetric matrix are their upper
triangle alone, listed column by column (the one order,
:func:`linalg.upper_pairs`), so neither can be asymmetric.  A
sample has integer entries and comes with its determinant and its
adjugate, as that triangle, so one fraction-free bordered build both
certifies it invertible and gives its inverse as adj / det.
:func:`sample_projectives` draws one sample per seed and holds them
entry-major, one list across the seeds per color token and per triangle
entry, from the draws to the adjugates; it builds each round of tries as
one batch (:func:`linalg.det_adjugates`, which resolves a zero leading
principal minor inside the batch; nothing builds a matrix alone).
Pattern membership takes a batch held the same way: each structural-zero
position of the triangle must hold 0 and each other position of a class
what the first position of that class holds.  The position pairs are read
off the pattern once, and a pair whose two lists are equal holds for the
whole batch, so only a pair that differs is compared matrix by matrix.

Every sampled integer of the package comes from :func:`uniform_draws`, a
counter-based stream (Salmon, Moraes, Dror and Shaw, "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): the draws of one (label, seed,
attempt) are a pure function of those three values, read off
``hashlib.blake2b`` digests with no generator state to seed.  blake2b is
fixed by RFC 7693, so the draws, and every report built on them, are the
same on every Python version.

:func:`invert_exact` inverts one rational matrix, given and returned as
its triangle; no sampling check calls it.  It inverts M on the integer
matrix sM, with s the lcm of M's denominators: M^{-1} = s adj(sM) /
det(sM), built as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import blake2b
from math import lcm
from operator import and_, eq
from typing import NamedTuple

from . import linalg
from .errors import SamplingError, SingularMatrixError
from .graphs import ColoredGraph

SAMPLE_BOUND = 10**6
SAMPLE_RETRIES = 64
# The stream label of sample_projectives: forward vanishing is its caller.
SAMPLE_LABEL = "forward_vanishing"


def uniform_draws(
    label: str, seed: int, attempt: int, count: int, low: int, high: int
) -> list[int]:
    """``count`` integers uniform in [low, high], drawn from the stream of
    (label, seed, attempt) by rejection, with no modulo bias.

    Block b = 0, 1, ... of the stream is the 64-byte ``blake2b`` digest
    (no key, salt or personalization) of the ASCII text
    ``f"{label} {seed} {attempt} {b}"``, read as one little-endian 512-bit
    integer and cut, lowest bits first, into 512 // w slices of w bits,
    w = max(1, bit length of high - low); the last 512 mod w bits are
    unused.  A slice s below the range size high - low + 1 is the draw
    low + s; any other slice is skipped, never reduced.  The draws are the
    first ``count`` accepted slices, so a shorter call reads a prefix of a
    longer one.  An empty range (high < low) has no draws, so any count
    above 0 raises ``ValueError``.
    """
    if high < low and count > 0:
        raise ValueError(f"no integer in [{low}, {high}] to draw")
    size = high - low + 1
    width = max(1, (size - 1).bit_length())
    mask = (1 << width) - 1
    slices = range(512 // width)
    out: list[int] = []
    block = 0
    while len(out) < count:
        message = f"{label} {seed} {attempt} {block}".encode()
        x = int.from_bytes(blake2b(message).digest(), "little")
        for _ in slices:
            s = x & mask
            if s < size:
                out.append(low + s)
                if len(out) == count:
                    break
            x >>= width
        block += 1
    return out


@dataclass(frozen=True)
class MatrixPattern:
    """Entry classes of a linear space of symmetric matrices.

    ``classes`` lists the upper triangle in the order of
    :func:`linalg.upper_pairs`, each entry a color token or ``None`` for a
    structural zero; no diagonal entry is ``None``.
    """

    size: int
    classes: tuple[str | None, ...]

    def __post_init__(self):
        n = self.size
        if len(self.classes) != n * (n + 1) // 2:
            raise ValueError("pattern must list the n(n + 1)/2 entries of a triangle")
        # entry (j, j) closes column j, at position j(j + 1)/2 + j
        if any(self.classes[j * (j + 3) // 2] is None for j in range(n)):
            raise ValueError("diagonal entries cannot be zeroed")

    def tokens(self) -> list[str]:
        """Sorted color tokens occurring in the pattern."""
        return list(self._tokens)

    @cached_property
    def _tokens(self) -> tuple[str, ...]:
        return tuple(sorted({c for c in self.classes if c is not None}))

    @cached_property
    def _membership_cells(self) -> tuple[list[int], list[int]]:
        # Positions in the upper triangle, each paired with the position it
        # must equal: a structural zero with the position just past the
        # end, which reads 0, and any other with the first of its class.
        end = len(self.classes)
        first: dict[str, int] = {}
        cells, partners = [], []
        for t, tok in enumerate(self.classes):
            partner = end if tok is None else first.setdefault(tok, t)
            if partner != t:
                cells.append(t)
                partners.append(partner)
        return cells, partners

    def contains(self, entries) -> list[bool]:
        """Whether each symmetric matrix of a batch lies in the space: 0 at
        every structural zero and one value on each class.  ``entries[t]``
        lists entry t of the upper triangle (order
        :func:`linalg.upper_pairs`) of every matrix, as lists; the result
        lists one verdict per matrix.  A position pair whose two lists are
        equal holds for the whole batch, so only the pairs that differ are
        compared matrix by matrix."""
        count = len(entries[0]) if entries else 0
        x = [*entries, [0] * count]
        verdicts = [True] * count
        for cell, partner in zip(*self._membership_cells):
            if x[cell] != x[partner]:
                verdicts = list(map(and_, verdicts, map(eq, x[cell], x[partner])))
        return verdicts


def pattern_from_graph(g: ColoredGraph) -> MatrixPattern:
    """Pattern of the colored graph's linear space.

    Diagonal entries carry vertex classes, off-diagonal entries edge classes,
    and non-edges are structural zeros.
    """
    classes = tuple(
        g.vertex_color[j + 1] if i == j else g.edge_color.get((i + 1, j + 1))
        for i, j in linalg.upper_pairs(g.n)
    )
    return MatrixPattern(size=g.n, classes=classes)


class ProjectiveSamples(NamedTuple):
    """Invertible integer matrices K that :func:`sample_projectives` draws
    from a pattern, one per seed, held entry-major, with their
    determinants and adjugates.

    K^{-1} = adjugate / det, with the adjugates held as the integer upper
    triangles, column by column, that :func:`linalg.det_adjugates`
    returns: ``adjugate[t]`` lists entry t of every sample's triangle.
    Checks run on those triangles: pattern membership ignores the nonzero
    scalar det, and a monomial of degree d in linear coordinates of K^{-1}
    is its value on the adjugate over det^d.
    """

    values: dict[str, list[int]]  # token -> its entry of each K
    det: list[int]
    adjugate: list[list[int]]  # entry t of each triangle, order linalg.upper_pairs


def sample_projectives(pattern: MatrixPattern, seeds: list[int]) -> ProjectiveSamples:
    """One deterministic invertible integer sample from the pattern for each
    seed, with its determinant and adjugate, in the order of ``seeds``,
    every token and triangle entry held as one list across the seeds.

    Try a of a seed gives the color tokens, in sorted order, the integers
    uniform in [-10^6, 10^6] that :func:`uniform_draws` reads under
    :data:`SAMPLE_LABEL`, the seed and attempt a; tries a = 0, 1, ... run
    until the exact determinant is nonzero.  Positive definiteness is not
    required.  A sample depends on its seed alone, not on the other seeds.
    Each round of tries, one per seed still without a sample, is one
    batched fraction-free bordered build on the upper triangles
    (:func:`linalg.det_adjugates`), which both decides invertibility and
    yields the adjugates; the memory it holds grows with ``len(seeds)``.
    The first round's lists are the result, and each later round writes
    its samples into their seeds' places.  With no seeds, every list is
    empty.

    Raises
    ------
    SamplingError
        When a seed fails 64 tries (the pattern forces singularity).
    """
    tokens = pattern._tokens
    if not seeds:
        return ProjectiveSamples({tok: [] for tok in tokens}, [], [[] for _ in pattern.classes])
    at = {tok: k for k, tok in enumerate(tokens)}
    shape = (len(tokens), -SAMPLE_BOUND, SAMPLE_BOUND)  # count, low, high
    pending = range(len(seeds))
    for attempt in range(SAMPLE_RETRIES):
        # draws[k]: token k's entry of each pending seed's matrix
        draws = [
            list(column)
            for column in zip(
                *(uniform_draws(SAMPLE_LABEL, seeds[i], attempt, *shape) for i in pending)
            )
        ]
        zero = [0] * len(pending)
        det, adj = linalg.det_adjugates(
            pattern.size, [zero if tok is None else draws[at[tok]] for tok in pattern.classes]
        )
        if not attempt:
            samples = ProjectiveSamples(dict(zip(tokens, draws)), det, adj)
        else:  # the new samples go to their seeds' places
            held = [*samples.values.values(), samples.det, *samples.adjugate]
            for into, new in zip(held, [*draws, det, *adj]):
                for i, x, y in zip(pending, new, det):
                    if y:
                        into[i] = x
        pending = [i for i, y in zip(pending, det) if not y]
        if not pending:
            return samples
    raise SamplingError(
        f"no invertible matrix in the pattern after {SAMPLE_RETRIES} tries"
    )


def invert_exact(n: int, upper) -> list[Fraction]:
    """Exact inverse of the symmetric n x n matrix with this upper triangle
    (order :func:`linalg.upper_pairs`), as its triangle of ``Fraction``
    entries: s adj(sm) / det(sm), with s the lcm of the denominators of
    the integer or ``Fraction`` entries, from the triangle of the integer
    matrix sm built as a batch of one (:func:`linalg.det_adjugates`).  No
    sampling check calls it.

    Raises
    ------
    ValueError
        When ``upper`` does not hold the n(n + 1)/2 entries of a triangle.
    SingularMatrixError
        When det(m) = 0.
    """
    if len(upper) != n * (n + 1) // 2:
        raise ValueError("matrix must list the n(n + 1)/2 entries of a triangle")
    if not upper:  # the 0 x 0 matrix: a batch of no entries is empty
        return []
    s = lcm(*(x.denominator for x in upper))
    (det,), adj = linalg.det_adjugates(n, [[x.numerator * (s // x.denominator)] for x in upper])
    if not det:
        raise SingularMatrixError("matrix is exactly singular")
    return [Fraction(s * x, det) for (x,) in adj]
