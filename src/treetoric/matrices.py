"""Symbolic symmetric-matrix patterns and exact symmetric matrices.

A :class:`MatrixPattern` records, for each entry of a symmetric n x n
matrix, either a color token (entries sharing a token must be equal) or
``None`` for a structural zero.  There is one construction: a pattern reads
the vertex and edge classes of a colored graph.  The pattern of a tree is
that of its derived graph, which keys entry (i,j) by the color of lca(i,j)
from the tree's leaf-pair table and gives zeroed lcas structural zeros.

A :class:`SymMatrix` is a symmetric matrix that keeps the exact entries it
is given: integers, or ``Fraction`` for exact inverses.  Sampling and
inversion are exact; there is no floating point and hence no tolerance
anywhere.  A sample has integer entries and comes with its determinant and
its adjugate, as plain integer row tuples, so one fraction-free
elimination both certifies it invertible and gives its inverse as
adj / det.  :func:`invert_exact` inverts a rational M the same
way, on the integer matrix sM with s the lcm of M's denominators:
M^{-1} = s adj(sM) / det(sM).  Symmetry is checked by comparing a matrix
with its transpose.  Pattern membership compares, in one list comparison,
each structural-zero cell with 0 and each other cell of a class with the
first cell of that class; the cell pairs are read off the pattern once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import NamedTuple

from . import linalg
from .errors import SamplingError, SingularMatrixError
from .graphs import ColoredGraph, edge

SAMPLE_BOUND = 10**6
SAMPLE_RETRIES = 64


@dataclass(frozen=True)
class MatrixPattern:
    """Entry classes of a linear space of symmetric matrices.

    ``classes[i][j]`` is a color token or ``None`` for a structural zero;
    the grid is symmetric and the diagonal is never ``None``.
    """

    size: int
    classes: tuple[tuple[str | None, ...], ...]

    def __post_init__(self):
        n = self.size
        if len(self.classes) != n or any(len(r) != n for r in self.classes):
            raise ValueError("pattern grid must be n x n")
        if any(self.classes[i][i] is None for i in range(n)):
            raise ValueError("diagonal entries cannot be zeroed")
        if tuple(zip(*self.classes)) != tuple(map(tuple, self.classes)):
            raise ValueError("pattern must be symmetric")

    def tokens(self) -> list[str]:
        """Sorted color tokens occurring in the pattern."""
        seen = {c for row in self.classes for c in row if c is not None}
        return sorted(seen)

    def rows(self, values: dict) -> list[list]:
        """Grid with each token replaced by its value and zeros kept."""
        return [
            [0 if tok is None else values[tok] for tok in row] for row in self.classes
        ]

    @cached_property
    def _membership_cells(self) -> tuple[list[int], list[int]]:
        # Row-major cells of the upper triangle, each paired with the cell
        # it must equal: a structural zero with the cell n*n past the end,
        # which reads 0, and any other cell with the first of its class.
        n = self.size
        first: dict[str, int] = {}
        cells, partners = [], []
        for i, row in enumerate(self.classes):
            for j in range(i, n):
                cell, tok = i * n + j, row[j]
                partner = n * n if tok is None else first.setdefault(tok, cell)
                if partner != cell:
                    cells.append(cell)
                    partners.append(partner)
        return cells, partners

    def contains(self, rows) -> bool:
        """Whether the symmetric matrix with these rows lies in the space:
        0 at every structural zero and one value on each class."""
        flat = [*chain.from_iterable(rows), 0]
        cells, partners = self._membership_cells
        return list(map(flat.__getitem__, cells)) == list(map(flat.__getitem__, partners))


class SymMatrix:
    """Immutable symmetric matrix with exact entries.

    The constructor keeps the entries it is given, in tuple rows, so
    integer matrices (samples, adjugates) stay integer.  Equality and
    hashing are those of the entry tuples, so an integer matrix equals, and
    hashes like, the same matrix written with ``Fraction`` entries.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]):
        entries = tuple(map(tuple, entries))
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        if tuple(zip(*entries)) != entries:
            raise ValueError("matrix must be exactly symmetric")

    def __setattr__(self, *args):
        raise AttributeError("SymMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"SymMatrix({[[str(x) for x in row] for row in self.entries]})"


def pattern_from_graph(g: ColoredGraph) -> MatrixPattern:
    """Pattern of the colored graph's linear space.

    Diagonal entries carry vertex classes, off-diagonal entries edge classes,
    and non-edges are structural zeros.
    """
    vs = g.vertices()
    classes = tuple(
        tuple(g.vertex_color[i] if i == j else g.edge_color.get(edge(i, j)) for j in vs)
        for i in vs
    )
    return MatrixPattern(size=g.n, classes=classes)


class ProjectiveSample(NamedTuple):
    """An invertible integer K that :func:`sample_projective` draws from a
    pattern, with its determinant and adjugate.

    K^{-1} = adjugate / det, with the adjugate held as the integer row
    tuples that :func:`linalg.det_adjugate` returns.  Checks run on those
    rows: pattern membership ignores the nonzero scalar det, and a
    monomial of degree d in linear coordinates of K^{-1} is its value on
    the adjugate over det^d.
    """

    values: dict[str, int]  # token -> sampled entry of K
    det: int
    adjugate: tuple[tuple[int, ...], ...]


def sample_projective(pattern: MatrixPattern, seed: int) -> ProjectiveSample:
    """Deterministic invertible integer sample from the pattern, with its
    determinant and adjugate.

    Each color token independently gets an integer uniform in
    [-10^6, 10^6]; resampled until the exact determinant is nonzero.
    Positive definiteness is not required.  Each try runs one fraction-free
    elimination on K (:func:`linalg.det_adjugate`), which both decides
    invertibility and yields the adjugate.

    Raises
    ------
    SamplingError
        After 64 failed tries (the pattern forces singularity).
    """
    rng = random.Random(seed)
    tokens = pattern.tokens()
    for _ in range(SAMPLE_RETRIES):
        values = {tok: rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for tok in tokens}
        det, adj = linalg.det_adjugate(pattern.rows(values))
        if det:
            return ProjectiveSample(values, det, adj)
    raise SamplingError(
        f"no invertible matrix in the pattern after {SAMPLE_RETRIES} tries"
    )


def pattern_contains(pattern: MatrixPattern, m: SymMatrix) -> bool:
    """Exact membership (:meth:`MatrixPattern.contains`): zeros at
    structural zeros, equal entries per class."""
    if pattern.size != m.n:
        raise ValueError("size mismatch")
    return pattern.contains(m.entries)


def invert_exact(m: SymMatrix) -> SymMatrix:
    """Exact inverse s adj(sm) / det(sm), with s the lcm of the denominators
    of m, from one fraction-free elimination on the integer matrix sm.

    Raises
    ------
    SingularMatrixError
        When det(m) = 0.
    """
    s = lcm(*(x.denominator for row in m.entries for x in row))
    det, adj = linalg.det_adjugate(
        [[x.numerator * (s // x.denominator) for x in row] for row in m.entries]
    )
    if adj is None:
        raise SingularMatrixError("matrix is exactly singular")
    return SymMatrix(tuple(tuple(Fraction(s * x, det) for x in row) for row in adj))
