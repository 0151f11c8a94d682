"""Exact linear algebra over the rationals.

Everything funnels through fraction-free Bareiss elimination on integer
matrices: rational input rows are scaled to integers first (a row scaling,
which preserves solution sets and rank and multiplies determinants by a
known factor).  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import SingularMatrixError


def _scaled_int_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Copy rows as integers, scaling each row by the lcm of denominators."""
    out = []
    scales = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        out.append([int(f * scale) for f in fracs])
        scales.append(scale)
    return out, scales


def bareiss_echelon(rows: list[list[int]], pivot_limit: int | None = None):
    """Fraction-free forward elimination, in place.

    Pivots are searched in the first ``pivot_limit`` columns only (the whole
    width by default), so augmented systems can be eliminated against their
    left block.  Returns (pivot_columns, sign) where sign tracks row swaps.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    limit = n_cols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(limit):
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p = rows[r][c]
        for i in range(r + 1, n_rows):
            factor = rows[i][c]
            if factor:
                for j in range(c + 1, n_cols):
                    rows[i][j] = (p * rows[i][j] - factor * rows[r][j]) // prev
                rows[i][c] = 0
            elif p != prev:
                # Zero multiplier still needs the Bareiss rescale p/prev.
                for j in range(c + 1, n_cols):
                    if rows[i][j]:
                        rows[i][j] = p * rows[i][j] // prev
        prev = p
        pivots.append(c)
        r += 1
    return pivots, sign


def rank_int(rows) -> int:
    """Exact rank of an integer matrix."""
    work = [list(map(int, row)) for row in rows]
    if not work:
        return 0
    pivots, _ = bareiss_echelon(work)
    return len(pivots)


def det_fraction(rows) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    work, scales = _scaled_int_rows(rows)
    pivots, sign = bareiss_echelon(work)
    if len(pivots) < n:
        return Fraction(0)
    det_scaled = sign * work[n - 1][n - 1]
    denom = 1
    for s in scales:
        denom *= s
    return Fraction(det_scaled, denom)


def solve_fraction(a_rows, b_rows) -> list[list[Fraction]]:
    """Solve A X = B exactly for invertible square A; returns X (n x k)."""
    n = len(a_rows)
    k = len(b_rows[0]) if n else 0
    aug = [list(a_rows[i]) + list(b_rows[i]) for i in range(n)]
    work, _ = _scaled_int_rows(aug)
    pivots, _ = bareiss_echelon(work, pivot_limit=n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    x = [[Fraction(0)] * k for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for col in range(k):
            acc = Fraction(work[r][n + col])
            for j in range(r + 1, n):
                if work[r][j]:
                    acc -= work[r][j] * x[j][col]
            x[r][col] = acc / work[r][r]
    return x


def invert_fraction(a_rows) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix."""
    n = len(a_rows)
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return solve_fraction(a_rows, identity)
