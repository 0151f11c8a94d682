"""Exact linear algebra on integer matrices.

Fraction-free kernels (Bareiss, Math. Comp. 1968): forward elimination for
rank, and det(A) with adj(A) together of a symmetric A (every matrix the
package inverts is), bordered on one index at a time with
(n - 1)n(n + 1)/6 exact divisions, 84 at n = 8.  A symmetric matrix is
given and returned as its upper triangle alone, so it cannot be
asymmetric, listed column by column (:func:`upper_pairs`): the order in
which bordering reads the matrix and builds the adjugate, so neither is
reordered.  Matrices are bordered in batches, in index order, and a batch
is taken and returned entry-major, each triangle entry held as one list
across the batch (:func:`det_adjugates`, the one det and adjugate
routine; a single matrix is a batch of one); a matrix meeting a zero
leading principal minor is resolved inside the batch by a unimodular
congruence.  No floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, floordiv, mul, neg, sub


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
    """(i, j) with 0 <= i <= j < n, column by column: the order in which the
    package lists the upper triangle of a symmetric n x n matrix.  Column j
    holds (0, j) to (j, j), so the triangle of the leading m x m block is
    the first m(m + 1)/2 pairs, for every m <= n."""
    return [(i, j) for j in range(n) for i in range(j + 1)]


@lru_cache(maxsize=None)
def _lines(n: int) -> tuple[tuple[int, ...], ...]:
    """lines[r][c]: where entry (r, c) of a symmetric n x n matrix is stored
    in its triangle (order :func:`upper_pairs`).  Line k is row and column
    k, its first k positions column k above the diagonal; cut to length,
    the first m lines serve the leading m x m block."""
    at = {pair: t for t, pair in enumerate(upper_pairs(n))}
    return tuple(tuple(at[min(r, c), max(r, c)] for c in range(n)) for r in range(n))


def _add_index(v: list[int], lines, a: int, b: int, c: int) -> None:
    """Add c times index a into index b of the symmetric matrix stored in
    ``v`` (an upper triangle with the positions ``lines`` of
    :func:`_lines`), in place: the congruence E V E^T with
    E = I + c e_b e_a^T, so v_rb += c v_ra for r != b and
    v_bb += 2c v_ab + c^2 v_aa."""
    into, added = lines[b], lines[a]
    v[into[b]] += 2 * c * v[into[a]] + c * c * v[added[a]]
    for r, (t, s) in enumerate(zip(into, added)):
        if r != b:
            v[t] += c * v[s]


def _pivots(a, adj, det, col, held):
    """b = A[S, k], u = adj(A_SS) b and the pivots d = a_kk D - b.u of
    bordering k = |S| on S = 0..k - 1, each as lists across the batch;
    ``col`` is line k and ``held`` the first k lines of :func:`_lines`."""
    b = [a[t] for t in col[: len(held)]]
    u = []
    for line in held:
        # each line covers all n indices: the dot product stops at the end of b
        terms = map(mul, b[0], adj[line[0]])
        for bc, t in zip(b[1:], line[1:]):
            terms = map(add, terms, map(mul, bc, adj[t]))
        u.append(list(terms))
    d = map(mul, a[col[len(held)]], det)
    for br, ur in zip(b, u):
        d = map(sub, d, map(mul, br, ur))
    return u, list(d)


def _resolve(v: list[int], adj: list[int], det: int, k: int, lines, held):
    """Resolve the zero leading principal minor on 0..k of the symmetric
    matrix A stored in ``v`` as :func:`det_adjugates` describes: add c
    times the first index j > k with s_kj != 0 into index k, in place, and
    return (j, c); None when there is no such j, and so A is singular.
    ``det`` and ``adj`` are those of the leading block on 0..k - 1."""
    b_k = [v[t] for t in lines[k][:k]]
    u_k = [sum(map(mul, b_k, map(adj.__getitem__, line))) for line in held]
    for j in range(k + 1, len(lines)):
        b_j = [v[t] for t in lines[j][:k]]
        s_kj = v[lines[j][k]] * det - sum(map(mul, b_j, u_k))
        if s_kj:
            u_j = [sum(map(mul, b_j, map(adj.__getitem__, line))) for line in held]
            s_jj = v[lines[j][j]] * det - sum(map(mul, b_j, u_j))
            c = 1 if 2 * s_kj + s_jj else -1
            _add_index(v, lines, j, k, c)
            return j, c
    return None


def det_adjugates(n: int, a) -> tuple[list[int], list[list[int]]]:
    """det(A) and adj(A) of a batch of symmetric integer n x n matrices A,
    held entry-major: ``a[t]`` lists entry t of the upper triangle (order
    :func:`upper_pairs`) of every matrix of the batch, so the batch size
    is the length of an entry list.  Built by bordering (Faddeev and
    Faddeeva, 1963) made fraction-free as in Bareiss (Math. Comp. 1968).

    Returns ``(det, adj)``, entry-major in the same order: ``det`` lists
    each matrix's determinant and ``adj[t]`` entry t of each adjugate's
    upper triangle; a singular matrix leaves the build early and has det 0
    and every adjugate entry 0 here.  ``a`` and its lists are not changed;
    with no entry list (n = 0) or empty ones the batch is empty.  Each
    step of the bordering is a few ``map`` passes over the batch instead
    of one Python step per matrix, and the caller bounds memory by the
    batch size.

    The indices 0, 1, ..., n - 1 are bordered on in turn.  With S the
    indices bordered so far, D = det(A_SS) (1 for S empty) and the integer
    adj(A_SS) in hand, bordering k takes b = A[S, k] and u = adj(A_SS) b.
    The bordered block has determinant d = a_kk D - b.u, and its adjugate
    keeps (d x + u_r u_c) / D in place of each entry x = adj(A_SS)_rc, an
    exact division, gains the column (-u, D) for k, and d becomes the new
    D.  With |S| = m that is m(m + 1)/2 divisions, (n - 1)n(n + 1)/6 in
    all.  In the order of :func:`upper_pairs` the triangle of A_SS is a
    prefix of that of A, so bordering appends column k to the adjugate
    and the input is read and the result returned as they are listed.

    d / D is entry (k, k) of the Schur complement of A_SS.  A matrix with
    d = 0 is resolved in the batch (:func:`_resolve`): with
    D s_ij = a_ij D - b_i.u_j, adding c times index j > k into index k,
    the unimodular congruence E A E^T with E = I + c e_k e_j^T, leaves
    A_SS and det(A) as they are and makes the pivot
    D(2c s_kj + c^2 s_jj).  The first j with s_kj != 0 and c = 1, or
    c = -1 when 2 s_kj + s_jj = 0, make it nonzero; when there is no such
    j, row k of the Schur complement is zero, A is singular and it leaves
    the batch at step k.  The result is then adj(E A E^T), and
    adj(A) = E^T adj(E A E^T) E: each congruence is undone, last first, by
    adding c times index k into index j.
    """
    if not a or not a[0]:
        return [], []
    lines = _lines(n)
    rows, cols = zip(*upper_pairs(n))  # r and c of each stored entry
    count = len(a[0])
    alive = list(range(count))
    moves: dict[int, list] = {}  # congruences (j, k, c) of each matrix, in order
    det, adj = [1] * count, []
    for k in range(n):
        held = lines[:k]
        u, d = _pivots(a, adj, det, lines[k], held)
        if not all(d):
            a = [list(x) for x in a]  # resolving writes into the entries: not the caller's
            for m in [m for m, x in enumerate(d) if not x]:
                v = [x[m] for x in a]
                move = _resolve(v, [x[m] for x in adj], det[m], k, lines, held)
                if move:
                    moves.setdefault(alive[m], []).append((move[0], k, move[1]))
                    for x, y in zip(a, v):
                        x[m] = y
            u, d = _pivots(a, adj, det, lines[k], held)
            # the singular matrices leave: cut every list held across the batch
            keep = [m for m, x in enumerate(d) if x]
            (alive, det, d), a, adj, u = (
                [list(map(row.__getitem__, keep)) for row in lists]
                for lists in ([alive, det, d], a, adj, u)
            )
        adj = [
            list(map(floordiv, map(add, map(mul, d, x), map(mul, u[r], u[c])), det))
            for x, r, c in zip(adj, rows, cols)
        ]
        adj += [list(map(neg, ur)) for ur in u]
        adj.append(det)
        det = d
    for m, i in enumerate(alive):
        if i in moves:
            y = [x[m] for x in adj]
            for j, k, c in reversed(moves[i]):
                _add_index(y, lines, k, j, c)
            for x, z in zip(adj, y):
                x[m] = z
    if len(alive) < count:  # the singular matrices left: 0 in their places
        det, *adj = (_spread(x, alive, count) for x in (det, *adj))
    return det, adj


def _spread(values: list, alive: list[int], count: int) -> list:
    """``values`` of the matrices ``alive`` of a batch of ``count``, in
    their places, with 0 in every other."""
    full = [0] * count
    for i, x in zip(alive, values):
        full[i] = x
    return full
