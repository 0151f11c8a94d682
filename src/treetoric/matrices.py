"""Symbolic symmetric-matrix patterns and exact rational matrices.

A :class:`MatrixPattern` records, for each entry of a symmetric n x n
matrix, either a color token (entries sharing a token must be equal) or
``None`` for a structural zero.  There is one construction: a pattern reads
the vertex and edge classes of a colored graph.  The pattern of a tree is
that of its derived graph, which keys entry (i,j) by the color of lca(i,j)
from the tree's leaf-pair table and gives zeroed lcas structural zeros.

All numeric work happens on :class:`SymMatrix`, a symmetric matrix of exact
rationals (or of integers, for sampled matrices and their adjugates).
Sampling and inversion are exact; there is no floating point and hence no
tolerance anywhere.  A sample has integer entries and comes with its
determinant and adjugate, so one fraction-free elimination both certifies
it invertible and gives its inverse as adj / det.  :func:`invert_exact`
inverts a rational M the same way, on the integer matrix sM with s the lcm
of M's denominators: M^{-1} = s adj(sM) / det(sM).  Closure of a pattern's
space under the Jordan product is decided symbolically, from the pattern
alone.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import linalg
from .errors import SamplingError, SingularMatrixError
from .graphs import ColoredGraph, derive_graph, edge
from .trees import ColoredTree

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
        for i in range(n):
            if self.classes[i][i] is None:
                raise ValueError("diagonal entries cannot be zeroed")
            for j in range(n):
                if self.classes[i][j] != self.classes[j][i]:
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

    def instantiate(self, values: dict[str, Fraction]) -> "SymMatrix":
        """Matrix with each token replaced by its value and zeros kept."""
        return SymMatrix.from_rows(self.rows(values))


class SymMatrix:
    """Immutable symmetric matrix with exact entries.

    :meth:`from_rows` stores ``Fraction`` entries; the constructor keeps the
    entries it is given, so integer matrices (adjugates, integer points)
    stay integer.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("matrix must be exactly symmetric")

    def __setattr__(self, *args):
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def from_rows(cls, rows) -> "SymMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

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


def pattern_from_tree(t: ColoredTree) -> MatrixPattern:
    """Pattern of the tree's linear space: the pattern of its derived graph,
    whose construction is the one place that reads entries off the tree's
    leaf-pair lca table."""
    return pattern_from_graph(derive_graph(t))


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

    K^{-1} = adjugate / det.  Pattern membership and the vanishing of
    homogeneous polynomials ignore nonzero scalars, so checks can run on the
    integer ``adjugate`` alone.
    """

    values: dict[str, int]  # token -> sampled entry of K
    det: int
    adjugate: SymMatrix


def sample_projective(pattern: MatrixPattern, seed: int) -> ProjectiveSample:
    """Deterministic invertible integer sample from the pattern, with its
    determinant and adjugate.

    Each color token independently gets an integer uniform in
    [-10^6, 10^6]; resampled until the exact determinant is nonzero.
    Positive definiteness is not required.  Each try runs one fraction-free
    Gauss-Jordan pass on K, which both decides invertibility and yields the
    adjugate.

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
            return ProjectiveSample(values, det, SymMatrix(adj))
    raise SamplingError(
        f"no invertible matrix in the pattern after {SAMPLE_RETRIES} tries"
    )


def pattern_contains(pattern: MatrixPattern, m: SymMatrix) -> bool:
    """Exact membership: zeros at structural zeros, equal entries per class."""
    if pattern.size != m.n:
        raise ValueError("size mismatch")
    witness: dict[str, Fraction] = {}
    for i in range(m.n):
        for j in range(m.n):
            token = pattern.classes[i][j]
            value = m[i, j]
            if token is None:
                if value != 0:
                    return False
            elif token in witness:
                if witness[token] != value:
                    return False
            else:
                witness[token] = value
    return True


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


def jordan_closed(pattern: MatrixPattern) -> bool:
    """Whether the pattern's space is closed under X o Y = (XY + YX)/2.

    The product is bilinear, so by polarization the space is closed iff X^2
    lies in it for the generic X = sum_c t_c E_c.  Entry (i,j) of X^2 is
    sum_k t_c(i,k) t_c(k,j), a multiset of unordered token pairs with no
    cancellation; X^2 lies in the space iff that multiset is empty at every
    structural zero and the same on all entries of one class.
    """
    classes = pattern.classes
    support = [[k for k, tok in enumerate(row) if tok is not None] for row in classes]
    square_of: dict[str, Counter] = {}
    for i, row in enumerate(classes):
        for j in range(i, pattern.size):
            square = Counter(
                tuple(sorted((row[k], classes[k][j])))
                for k in support[i]
                if classes[k][j] is not None
            )
            token = row[j]
            if token is None:
                if square:
                    return False
            elif square_of.setdefault(token, square) != square:
                return False
    return True
