"""Exact linear algebra on integer matrices.

Fraction-free kernels (Bareiss, Math. Comp. 1968): forward elimination for
rank, and det(A) with adj(A) together, from a sweep of the upper triangle
when A is symmetric (every matrix the package inverts is) and from one
Gauss-Jordan pass on ``[A | I]`` otherwise.  No floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
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


def det_adjugate(int_rows) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """det(A) and adj(A) of a square integer matrix, from one elimination.

    A symmetric matrix is swept on its upper triangle (:func:`_sweep`); any
    other matrix, and a symmetric one on which the sweep stalls, takes one
    row-swapping Gauss-Jordan pass (:func:`_gauss_jordan`).  Both give the
    same unique pair.  The adjugate comes as a tuple of row tuples; a
    singular matrix gives ``(0, None)``.
    """
    work = [list(map(int, row)) for row in int_rows]
    if tuple(map(tuple, work)) == tuple(zip(*work)):
        swept = _sweep(work)
        if swept is not None:
            return swept
    return _gauss_jordan(work)


class _Triangle(NamedTuple):
    """The upper triangle of an n x n matrix, stored row by row in a list."""

    cells: tuple[int, ...]  # row-major index i*n + j of each stored entry (i <= j)
    rows: tuple[int, ...]  # i of each stored entry
    cols: tuple[int, ...]  # j of each stored entry
    column: tuple[tuple[int, ...], ...]  # column[k][i]: where entry (i, k) is stored
    diagonal: tuple[int, ...]  # where entry (k, k) is stored
    full: tuple[int, ...]  # where entry (i, j) is stored, row-major over all (i, j)


@lru_cache(maxsize=None)
def _triangle(n: int) -> _Triangle:
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    at = {pair: t for t, pair in enumerate(pairs)}
    column = tuple(tuple(at[min(i, k), max(i, k)] for i in range(n)) for k in range(n))
    return _Triangle(
        cells=tuple(i * n + j for i, j in pairs),
        rows=tuple(i for i, _ in pairs),
        cols=tuple(j for _, j in pairs),
        column=column,
        diagonal=tuple(column[k][k] for k in range(n)),
        full=tuple(at[min(i, j), max(i, j)] for i in range(n) for j in range(n)),
    )


def _sweep(rows: list[list[int]]) -> tuple[int, tuple[tuple[int, ...], ...] | None] | None:
    """Fraction-free symmetric sweep (Goodnight, Amer. Statist. 1979) on the
    upper triangle of a symmetric A: ``(det, adj)``, or ``None`` on a stall.

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
    so an unswept block that is all zero proves A singular, and a zero
    unswept diagonal with a nonzero entry off it is a stall.
    """
    n = len(rows)
    layout = _triangle(n)
    neg = [-x for x in chain.from_iterable(rows)]
    v = list(map(neg.__getitem__, layout.cells))
    unswept = list(range(n))
    prev = 1
    while unswept:
        for k in unswept:
            if v[layout.diagonal[k]]:
                break
        else:
            if any(v[layout.column[i][j]] for i in unswept for j in unswept):
                return None
            return 0, None
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
    adj = list(map(v.__getitem__, layout.full))
    return prev, tuple(tuple(adj[i * n : i * n + n]) for i in range(n))


def _gauss_jordan(work: list[list[int]]) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """Fraction-free Gauss-Jordan on ``[A | I]``, in place: ``(det, adj)``.

    At step k every row i != k becomes ``(p_k row_i - a_ik row_k) // p_{k-1}``,
    an exact division, with p_k the k-th pivot (p_{-1} = 1) and rows swapped
    in for zero pivots.  The pass ends at ``[d I | d A^{-1}]`` with
    d = +-det(A), the sign set by the swaps.  A singular matrix stops the
    pass at the first column without a pivot.

    Only n of the 2n columns are stored.  Before step k the right block is
    p_{k-1} times a permutation in every column it has not yet mixed, so
    stored column k trades the left column it eliminates for the right
    column with p_{k-1} in row k; ``label`` records which one that is.
    """
    n = len(work)
    label = list(range(n))
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            label[k], label[piv] = label[piv], label[k]
            sign = -sign
        pivot_row = work[k]
        p = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            a = work[i][k]
            work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], pivot_row)]
            work[i][k] = -a
        pivot_row[k] = prev
        prev = p
    adj = [[0] * n for _ in range(n)]
    for out, row in zip(adj, work):
        for j, x in zip(label, row):
            out[j] = sign * x
    return sign * prev, tuple(map(tuple, adj))

