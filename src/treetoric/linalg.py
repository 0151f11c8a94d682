"""Exact linear algebra on integer matrices.

Fraction-free kernels (Bareiss, Math. Comp. 1968): forward elimination for
rank, and det(A) with adj(A) together of a symmetric A (every matrix the
package inverts is), bordered on one index at a time with
(n - 1)n(n + 1)/6 exact divisions, 84 at n = 8.  A symmetric
matrix is given and returned as that triangle alone, listed row by row
(:func:`upper_pairs`), so it cannot be asymmetric.  A batch of such
matrices is bordered together in index order, each entry held as one
list across the batch (:func:`det_adjugates`); a matrix meeting a zero
leading principal minor is handed to the one-matrix build
(:func:`det_adjugate`).  No floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, floordiv, mul, neg, sub
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


@lru_cache(maxsize=None)
def _columns(n: int) -> tuple[tuple[int, ...], ...]:
    """columns[k][i]: where entry (i, k) is stored in an upper triangle
    listed in the order of :func:`upper_pairs`."""
    at = {pair: t for t, pair in enumerate(upper_pairs(n))}
    return tuple(tuple(at[min(i, k), max(i, k)] for i in range(n)) for k in range(n))


def _at(r: int, c: int) -> int:
    """Where entry (r, c) of a symmetric matrix is stored when its triangle
    is held column by column: column c holds entries (0, c) to (c, c)."""
    r, c = min(r, c), max(r, c)
    return c * (c + 1) // 2 + r


class _Bordered(NamedTuple):
    """Positions in the column-by-column triangle of an n x n symmetric
    matrix.  Its first m columns are the triangle of the leading m x m
    block, so each of these serves every m <= n, cut to length."""

    lines: tuple[tuple[int, ...], ...]  # lines[r][c]: where entry (r, c) is stored
    rows: tuple[int, ...]  # r of each stored entry
    cols: tuple[int, ...]  # c of each stored entry


@lru_cache(maxsize=None)
def _bordered(n: int) -> _Bordered:
    stored = [(r, c) for c in range(n) for r in range(c + 1)]
    return _Bordered(
        lines=tuple(tuple(_at(r, c) for c in range(n)) for r in range(n)),
        rows=tuple(r for r, _ in stored),
        cols=tuple(c for _, c in stored),
    )


@lru_cache(maxsize=256)
def _unbordering(order: tuple[int, ...]) -> tuple[int, ...]:
    """Where each entry of the upper triangle, in the order of
    :func:`upper_pairs`, is stored in the column-by-column triangle over
    the indices listed in ``order``."""
    rank = {k: r for r, k in enumerate(order)}
    return tuple(_at(rank[i], rank[j]) for i, j in upper_pairs(len(order)))


def _add_index(v: list[int], columns, a: int, b: int) -> None:
    """Add index a into index b of the symmetric matrix stored in ``v`` (an
    upper triangle with the positions ``columns`` of :func:`_columns`), in
    place: the congruence E V E^T with E = I + e_b e_a^T, so
    v_rb += v_ra for r != b and v_bb += 2 v_ab + v_aa."""
    into, added = columns[b], columns[a]
    v[into[b]] += 2 * v[into[a]] + v[added[a]]
    for r, (t, s) in enumerate(zip(into, added)):
        if r != b:
            v[t] += v[s]


def _stall(a, columns, order, rest, adj, lines, det) -> tuple[int, int] | None:
    """The first unbordered pair (i, j) at which D times the Schur
    complement of A_SS, a_ij D - b_i.u_j, is nonzero; None when there is
    none."""
    terms = {}
    for k in rest:
        b = [a[columns[k][i]] for i in order]
        terms[k] = b, [sum(map(mul, b, map(adj.__getitem__, line))) for line in lines]
    return next(
        (
            (i, j)
            for i in rest
            for j in rest
            if a[columns[i][j]] * det != sum(map(mul, terms[i][0], terms[j][1]))
        ),
        None,
    )


def det_adjugate(n: int, upper) -> tuple[int, list[int] | None]:
    """det(A) and adj(A) of the symmetric integer n x n matrix A whose upper
    triangle is ``upper``, in the order of :func:`upper_pairs`, built by
    bordering (Faddeev and Faddeeva, 1963) made fraction-free as in Bareiss
    (Math. Comp. 1968).

    The adjugate comes as its upper triangle in the same order; a singular
    matrix gives ``(0, None)``.  ``upper`` is not changed.

    The indices are bordered on one at a time.  With S the indices bordered
    so far, D = det(A_SS) (1 for S empty) and the integer adj(A_SS) in
    hand, bordering k takes b = A[S, k] and u = adj(A_SS) b.  The bordered
    block has determinant d = a_kk D - b.u, and its adjugate keeps
    (d x + u_r u_c) / D in place of each entry x = adj(A_SS)_rc, an exact
    division, gains the column (-u, D) for k, and d becomes the new D.
    With |S| = m that is m(m + 1)/2 divisions, (n - 1)n(n + 1)/6 in all.
    The adjugate is held as a triangle column by column in the bordered
    order, so bordering appends a column; only the result is put back into
    the order of :func:`upper_pairs`.

    Each step borders the first unbordered index k with d != 0.  d / D is
    the diagonal entry of the Schur complement of A_SS, so a Schur
    complement with every entry zero proves A singular.  When every
    diagonal entry is 0 but some a_ij D - b_i.u_j is not (a stall), index
    j is added into index i (:func:`_add_index`) on a copy of A.  That is
    the unimodular congruence E A E^T, E = I + e_i e_j^T, which leaves A_SS
    and det(A) as they are and makes i the one index with d != 0, twice
    that entry.  Each stall is followed by a bordering, so there are at
    most n - 1.  The result is adj(E A E^T), and
    adj(A) = E^T adj(E A E^T) E: each congruence is undone, last first, by
    adding index i into index j.
    """
    columns = _columns(n)
    lines, rows, cols = _bordered(n)
    a = upper
    if n and a[0]:
        # a nonzero a_00 is bordered first, and leaves the 1 x 1 adjugate 1
        det, adj, order, rest = a[0], [1], [0], list(range(1, n))
    else:
        det, adj, order, rest = 1, [], [], list(range(n))
    stalls = []
    while rest:
        # lines, rows and cols cover all n indices: each dot product stops at
        # the end of b (|S| entries), and the update at the end of adj
        held = lines[: len(order)]
        for k in rest:
            col = columns[k]
            b = [a[col[i]] for i in order]
            u = [sum(map(mul, b, map(adj.__getitem__, line))) for line in held]
            d = a[col[k]] * det - sum(map(mul, b, u))
            if d:
                break
        else:
            stall = _stall(a, columns, order, rest, adj, held, det)
            if stall is None:
                return 0, None
            if not stalls:
                a = list(a)
            _add_index(a, columns, stall[1], stall[0])
            stalls.append(stall)
            continue
        adj = [
            (d * x + p * q) // det
            for x, p, q in zip(adj, map(u.__getitem__, rows), map(u.__getitem__, cols))
        ]
        adj += [-x for x in u]
        adj.append(det)
        det = d
        order.append(k)
        rest.remove(k)
    adj = list(map(adj.__getitem__, _unbordering(tuple(order))))
    for i, j in reversed(stalls):
        _add_index(adj, columns, i, j)
    return det, adj


def det_adjugates(n: int, uppers: list) -> list[tuple[int, list[int] | None]]:
    """:func:`det_adjugate` of each symmetric integer n x n matrix whose
    upper triangle is listed in ``uppers``, in the same order.

    The matrices are bordered together on the indices 0, 1, ..., n - 1 in
    turn, with each entry held as one list across the matrices, so each
    step of the bordering is a few ``map`` passes over the batch instead of
    one Python step per matrix.  A matrix meeting a zero leading principal
    minor (a singular one, a zero a_00, or one that would stall) leaves the
    batch at that step and is built alone by :func:`det_adjugate`.  det and
    adj are invariants of the matrix, so every result equals
    :func:`det_adjugate`'s.  ``uppers`` is not changed.  Each entry list is
    as long as the batch, so the caller bounds memory by the batch size.
    """
    if not n or not uppers:
        return [(1, []) for _ in uppers]
    columns = _columns(n)
    lines, rows, cols = _bordered(n)
    results: list = [None] * len(uppers)
    alive = list(range(len(uppers)))
    a = list(zip(*uppers))  # a[t]: entry t of each triangle
    det, adj = [1] * len(uppers), []
    for k in range(n):
        col = columns[k]
        b = [a[col[i]] for i in range(k)]
        u = []
        for line in lines[:k]:
            terms = map(mul, b[0], adj[line[0]])
            for bc, t in zip(b[1:], line[1:k]):
                terms = map(add, terms, map(mul, bc, adj[t]))
            u.append(list(terms))
        d = map(mul, a[col[k]], det)
        for br, ur in zip(b, u):
            d = map(sub, d, map(mul, br, ur))
        d = list(d)
        if not all(d):
            for i, x in zip(alive, d):
                if not x:
                    results[i] = det_adjugate(n, uppers[i])
            # the rest stay: cut every list held across the batch to them
            keep = [j for j, x in enumerate(d) if x]
            (alive, det, d), a, adj, u = (
                [list(map(row.__getitem__, keep)) for row in held]
                for held in ([alive, det, d], a, adj, u)
            )
        adj = [
            list(map(floordiv, map(add, map(mul, d, x), map(mul, u[r], u[c])), det))
            for x, r, c in zip(adj, rows, cols)
        ]
        adj += [list(map(neg, ur)) for ur in u]
        adj.append(det)
        det = d
    adjugates = zip(*map(adj.__getitem__, _unbordering(tuple(range(n)))))
    for i, x, y in zip(alive, det, adjugates):
        results[i] = (x, list(y))
    return results
