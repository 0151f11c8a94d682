"""Exact linear algebra on integer matrices.

Fraction-free kernels (Bareiss, Math. Comp. 1968): forward elimination for
rank, and det(A) with adj(A) together from one sweep of the upper triangle
of a symmetric A (every matrix the package inverts is).  A symmetric
matrix is given and returned as that triangle alone, listed row by row
(:func:`upper_pairs`), so it cannot be asymmetric.  No floating point
anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


def bareiss_echelon(rows: list[list[int]]) -> list[int]:
    """Fraction-free forward elimination, in place; returns the pivot columns."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, n_rows):
            factor = rows[i][c]
            # A zero multiplier under p == prev leaves row i as it is.  Without
            # this skip exponent_rank ran 1.35x (sweep) and 1.85x (generate)
            # as long on two rounds of each perfbench mix (Python 3.11, Xeon).
            if factor or p != prev:
                for j in range(c + 1, n_cols):
                    rows[i][j] = (p * rows[i][j] - factor * rows[r][j]) // prev
                rows[i][c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return pivots


def upper_pairs(n: int) -> list[tuple[int, int]]:
    """(i, j) with 0 <= i <= j < n, row by row: the order in which the package
    lists the upper triangle of a symmetric n x n matrix."""
    return [(i, j) for i in range(n) for j in range(i, n)]


class _Triangle(NamedTuple):
    """Positions in an upper triangle listed in the order of :func:`upper_pairs`."""

    rows: tuple[int, ...]  # i of each stored entry
    cols: tuple[int, ...]  # j of each stored entry
    column: tuple[tuple[int, ...], ...]  # column[k][i]: where entry (i, k) is stored
    diagonal: tuple[int, ...]  # where entry (k, k) is stored


@lru_cache(maxsize=None)
def _triangle(n: int) -> _Triangle:
    pairs = upper_pairs(n)
    at = {pair: t for t, pair in enumerate(pairs)}
    column = tuple(tuple(at[min(i, k), max(i, k)] for i in range(n)) for k in range(n))
    return _Triangle(
        rows=tuple(i for i, _ in pairs),
        cols=tuple(j for _, j in pairs),
        column=column,
        diagonal=tuple(column[k][k] for k in range(n)),
    )


def _add_index(v: list[int], layout: _Triangle, a: int, b: int) -> None:
    """Add index a into index b of the symmetric matrix stored in ``v``, in
    place: the congruence E V E^T with E = I + e_b e_a^T, so
    v_rb += v_ra for r != b and v_bb += 2 v_ab + v_aa."""
    into, added = layout.column[b], layout.column[a]
    v[into[b]] += 2 * v[into[a]] + v[added[a]]
    for r, (t, s) in enumerate(zip(into, added)):
        if r != b:
            v[t] += v[s]


def det_adjugate(n: int, upper) -> tuple[int, list[int] | None]:
    """det(A) and adj(A) of the symmetric integer n x n matrix A whose upper
    triangle is ``upper``, in the order of :func:`upper_pairs`, from one
    fraction-free symmetric sweep (Goodnight, Amer. Statist. 1979).

    The adjugate comes as its upper triangle in the same order; a singular
    matrix gives ``(0, None)``.  ``upper`` is not changed.

    The sweep operator on index k maps a symmetric W to W' with
    w'_kk = -1/w_kk, w'_ik = w_ik/w_kk and w'_ij = w_ij - w_ik w_kj/w_kk;
    sweeping every index turns A into -A^{-1}.  Here V holds -det(A_SS)
    times A swept on the set S, which is integer: V starts as -A, and
    sweeping k with q = v_kk sets ``v_ij = (v_ik v_kj - q v_ij) // prev``
    for i, j != k, an exact division by the previous pivot (1 at first),
    keeps row and column k, and sets ``v_kk = prev``.  The pivot -q is the
    principal minor det(A_SS) of the indices swept so far, k among them,
    so after all n sweeps V = adj(A) and det(A) is the last pivot.

    Each sweep takes the first unswept index with a nonzero diagonal.  The
    unswept block of V is -det(A_SS) times the Schur complement of A_SS,
    so an unswept block that is all zero proves A singular.  When every
    unswept diagonal is 0 but some unswept v_ij is not (a stall), index j
    is added into index i (:func:`_add_index`), which makes v_ii = 2 v_ij.
    That is V for the unimodular congruence E A E^T, E = I + e_i e_j^T,
    which leaves A_SS, every pivot so far and det(A) as they are, and the
    sweep goes on from index i.  Each stall is followed by a sweep, so
    there are at most n - 1.  The last sweep leaves adj(E A E^T), and
    adj(A) = E^T adj(E A E^T) E: each congruence is undone, last first,
    by adding index i into index j.
    """
    layout = _triangle(n)
    v = [-x for x in upper]
    unswept = list(range(n))
    stalls = []
    prev = 1
    while unswept:
        for k in unswept:
            if v[layout.diagonal[k]]:
                break
        else:
            stall = next(
                ((i, j) for i in unswept for j in unswept if v[layout.column[i][j]]), None
            )
            if stall is None:
                return 0, None
            k, j = stall
            _add_index(v, layout, j, k)
            stalls.append(stall)
        unswept.remove(k)
        kept = layout.column[k]
        col = list(map(v.__getitem__, kept))
        q = col[k]
        v = [
            (a * b - q * x) // prev
            for x, a, b in zip(
                v, map(col.__getitem__, layout.rows), map(col.__getitem__, layout.cols)
            )
        ]
        for t, x in zip(kept, col):
            v[t] = x
        v[kept[k]] = prev
        prev = -q
    for i, j in reversed(stalls):
        _add_index(v, layout, i, j)
    return prev, v
