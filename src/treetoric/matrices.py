"""Symbolic symmetric-matrix patterns and exact rational matrices.

A :class:`MatrixPattern` records, for each entry of a symmetric n x n
matrix, either a color token (entries sharing a token must be equal) or
``None`` for a structural zero.  There is one construction: a pattern reads
the vertex and edge classes of a colored graph.  The pattern of a tree is
that of its derived graph, which keys entry (i,j) by the color of lca(i,j)
and gives zeroed lcas structural zeros.

All numeric work happens on :class:`SymMatrix`, a symmetric matrix of exact
rationals (or of integers, for integer-scaled points).  Sampling, inversion
and the Jordan product are exact; there is no floating point and hence no
tolerance anywhere.  A sample comes with the adjugate of its integer-scaled
copy, so one fraction-free elimination both certifies it invertible and
gives its inverse up to a known scalar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import linalg
from .errors import SamplingError, SingularMatrixError
from .graphs import ColoredGraph, derive_graph, edge
from .trees import ColoredTree

SAMPLE_NUMERATOR_BOUND = 10**6
SAMPLE_DENOMINATOR_BOUND = 10**3
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
    entries it is given, so integer matrices (adjugates, integer-scaled
    points) stay integer.
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

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

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

    def to_json(self) -> list[list[str]]:
        """Rows of "num/den" strings."""
        return [[str(x) for x in row] for row in self.entries]


def pattern_from_tree(t: ColoredTree) -> MatrixPattern:
    """Pattern of the tree's linear space: the pattern of its derived graph,
    whose construction is the one place that reads entries off lca(i,j)."""
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
    """An invertible K in a pattern, with its inverse up to a scalar.

    K_int = scale * K has integer entries, and K^{-1} = scale * adjugate / det
    with ``det`` and ``adjugate`` those of K_int.  Pattern membership and the
    vanishing of homogeneous polynomials ignore nonzero scalars, so checks
    can run on the integer ``adjugate`` alone.
    """

    values: dict[str, Fraction]  # token -> sampled entry of K
    scale: int
    det: int
    adjugate: SymMatrix


def _tries(pattern: MatrixPattern, seed: int):
    """The seeded draws of the sampler, in order; raises once they run out.

    Each try yields the token values, their scale (the lcm of their
    denominators) and the rows of K_int = scale * K.
    """
    rng = random.Random(seed)
    tokens = pattern.tokens()
    for _ in range(SAMPLE_RETRIES):
        values = {
            tok: Fraction(
                rng.randint(-SAMPLE_NUMERATOR_BOUND, SAMPLE_NUMERATOR_BOUND),
                rng.randint(1, SAMPLE_DENOMINATOR_BOUND),
            )
            for tok in tokens
        }
        scale = lcm(*(v.denominator for v in values.values()))
        yield values, scale, pattern.rows(
            {tok: v.numerator * (scale // v.denominator) for tok, v in values.items()}
        )
    raise SamplingError(
        f"no invertible matrix in the pattern after {SAMPLE_RETRIES} tries"
    )


def sample_point(pattern: MatrixPattern, seed: int) -> SymMatrix:
    """Deterministic invertible sample from the pattern.

    Each color token independently gets a rational with numerator uniform in
    [-10^6, 10^6] and denominator uniform in [1, 10^3]; resampled until the
    exact determinant is nonzero.  Positive definiteness is not required.

    Raises
    ------
    SamplingError
        After 64 failed retries (the pattern forces singularity).
    """
    for values, _, k_int in _tries(pattern, seed):
        if linalg.rank_int(k_int) == pattern.size:
            return pattern.instantiate(values)


def sample_projective(pattern: MatrixPattern, seed: int) -> ProjectiveSample:
    """The sample :func:`sample_point` draws, with the adjugate of K_int.

    Each try runs one fraction-free Gauss-Jordan pass on K_int, which both
    decides invertibility and yields the adjugate.

    Raises
    ------
    SamplingError
        As :func:`sample_point`.
    """
    for values, scale, k_int in _tries(pattern, seed):
        det, adj = linalg.det_adjugate(k_int)
        if det:
            return ProjectiveSample(values, scale, det, SymMatrix(adj))


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


def det_exact(m: SymMatrix) -> Fraction:
    return linalg.det_fraction(m.entries)


def invert_exact(m: SymMatrix) -> SymMatrix:
    """Exact inverse, as scale * adj(scale * m) / det(scale * m).

    Raises
    ------
    SingularMatrixError
        When det(m) = 0.
    """
    try:
        inv = linalg.invert_fraction(m.entries)
    except SingularMatrixError:
        raise SingularMatrixError("matrix is exactly singular") from None
    return SymMatrix.from_rows(inv)


def jordan_product(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    """Symmetrized product (XY + YX)/2, exact.

    Computed on integer-scaled copies so the inner products run on machine
    integers; a single rational division per entry restores the scale.
    """
    if x.n != y.n:
        raise ValueError("size mismatch")
    n = x.n
    a, sa = linalg.integer_rows(x.entries)
    b, sb = linalg.integer_rows(y.entries)
    denom = 2 * sa * sb
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = 0
            for k in range(n):
                acc += a[i][k] * b[k][j] + b[i][k] * a[k][j]
            val = Fraction(acc, denom)
            rows[i][j] = val
            rows[j][i] = val
    return SymMatrix.from_rows(rows)
