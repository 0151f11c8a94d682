"""Independent oracles for the tests: slow, obviously-correct second
implementations that the package's own algorithms must agree with."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from treetoric.errors import SingularMatrixError
from treetoric.graphs import ColoredGraph, connected_components
from treetoric.trees import ColoredTree


def adjugate_inverse(rows) -> list[list[Fraction]]:
    """Inverse via cofactor expansion: adj(M)^T row formula.

    O(n!) determinant recursion; an independent oracle for the
    elimination-based inverse.
    """
    n = len(rows)
    d = det_cofactor(rows)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            inv[i][j] = (-1) ** (i + j) * det_cofactor(minor) / d
    return inv


def det_cofactor(rows) -> Fraction:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def _distances(g: ColoredGraph) -> dict[int, dict[int, int]]:
    dist: dict[int, dict[int, int]] = {}
    for source in g.vertices():
        d = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.neighbors(v):
                    if u not in d:
                        d[u] = d[v] + 1
                        nxt.append(u)
            frontier = nxt
        dist[source] = d
    return dist


def four_point_check(g: ColoredGraph) -> bool:
    """Distance characterization of block graphs.

    For every vertex quadruple (within a connected component) the larger two
    of d(u,v)+d(w,x), d(u,w)+d(v,x), d(u,x)+d(v,w) must agree.  Independent
    of ``is_block_graph``; the two must coincide.
    """
    dist = _distances(g)
    for comp in connected_components(g):
        for u, v, w, x in combinations(sorted(comp), 4):
            sums = sorted(
                (
                    dist[u][v] + dist[w][x],
                    dist[u][w] + dist[v][x],
                    dist[u][x] + dist[v][w],
                )
            )
            if sums[1] != sums[2]:
                return False
    return True


def vertex_regular_via_parents(t: ColoredTree) -> bool:
    """Parent criterion: same-colored leaves share a parent.

    Equivalent to vertex-regularity of the derived graph when no node is
    zeroed and internal colors are distinct.
    """
    by_color: dict[str, set[int]] = {}
    for i in t.leaves():
        by_color.setdefault(t.color[i], set()).add(t.parent[i])
    return all(len(parents) == 1 for parents in by_color.values())
