"""Exact linear algebra on integer matrices.

Two fraction-free kernels (Bareiss, Math. Comp. 1968): forward elimination
for rank, and one Gauss-Jordan pass on ``[A | I]`` that yields det(A) and
adj(A) together.  No floating point anywhere.
"""

from __future__ import annotations


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
            if factor or p != prev:  # otherwise the update leaves row i as it is
                for j in range(c + 1, n_cols):
                    rows[i][j] = (p * rows[i][j] - factor * rows[r][j]) // prev
                rows[i][c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return pivots


def det_adjugate(int_rows) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """det(A) and adj(A) of a square integer matrix, from one elimination.

    Fraction-free Gauss-Jordan on ``[A | I]``: at step k every row i != k
    becomes ``(p_k row_i - a_ik row_k) // p_{k-1}``, an exact division, with
    p_k the k-th pivot (p_{-1} = 1) and rows swapped in for zero pivots.  The
    pass ends at ``[d I | d A^{-1}]`` with d = +-det(A), the sign set by the
    swaps.  The adjugate comes as a tuple of row tuples.  A singular matrix
    stops the pass at the first column without a pivot and returns
    ``(0, None)``.

    Only n of the 2n columns are stored.  Before step k the right block is
    p_{k-1} times a permutation in every column it has not yet mixed, so
    stored column k trades the left column it eliminates for the right
    column with p_{k-1} in row k; ``label`` records which one that is.
    """
    n = len(int_rows)
    work = [list(map(int, row)) for row in int_rows]
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
            row = work[i]
            a = row[k]
            if a:
                row = [(p * x - a * y) // prev for x, y in zip(row, pivot_row)]
                row[k] = -a
            else:
                row = [p * x // prev for x in row]
            work[i] = row
        pivot_row[k] = prev
        prev = p
    adj = [[0] * n for _ in range(n)]
    for out, row in zip(adj, work):
        for j, x in zip(label, row):
            out[j] = sign * x
    return sign * prev, tuple(map(tuple, adj))

