"""Linear coordinate changes between matrix entries and edge weights.

One map, :func:`g_derived_laplacian_map`, serves both coordinate kinds.
Weight the complete graph on {0,..,n} by the linear forms of Gamma(G),
delete row and column 0 of its Laplacian, and read entry (i,j) as sigma_ij.
The weights' signs follow edge membership, and the 0-row corrections
follow the full-degree rule of :func:`gamma_graph`.  On a complete G they
reduce to unit weights, which give the reduced Laplacian map (x = p):
p_ij = -sigma_ij off the root and p_0i = sum_j sigma_ij.  Any other G gives
the G-derived map (x = q).

Every off-diagonal entry is a single term -/+ x_ij, and the diagonal entry
sigma_ii is x_0i plus terms in x_ab with a, b >= 1.  The system is therefore
unitriangular and inverts in closed form by substitution.  Both directions
are stored as sparse integer linear forms keyed by index pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .binomials import Var, coord_var, var_name
from .graphs import ColoredGraph, edge
from .matrices import SymMatrix

LinForm = dict[tuple[int, int], int]  # index pair -> coefficient


def sigma_index_pairs(n: int) -> list[tuple[int, int]]:
    """(i,j) with 1 <= i <= j <= n, lexicographic."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def pq_index_pairs(n: int) -> list[tuple[int, int]]:
    """(i,j) with 0 <= i < j <= n, lexicographic."""
    return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]


def form_text(form: LinForm) -> str:
    """Human-readable linear form in q-variables, e.g. ``q03 - q13 - q23``."""
    if not form:
        return "0"
    parts = []
    for (i, j), coeff in sorted(form.items()):
        name = var_name(coord_var("q", i, j))
        mag = abs(coeff)
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts)


def _add(acc: LinForm, form: LinForm, sign: int = 1) -> None:
    for key, coeff in form.items():
        new = acc.get(key, 0) + sign * coeff
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def gamma_graph(g: ColoredGraph) -> dict[tuple[int, int], LinForm]:
    """Symbolic edge weights of the weighted complete graph Gamma(G).

    On vertices {0,..,n}: edges inside G keep weight q_ij, non-edges get
    -q_ij, and the root edge {0,i} gets q_0i minus the sum of q_ij over the
    vertices j that differ from i in having full degree n-1 (non-full j when
    i is full, full j otherwise).  Empty sums are zero.
    """
    full = {v: g.degree(v) == g.n - 1 for v in g.vertices()}
    weights: dict[tuple[int, int], LinForm] = {
        (i, j): {(i, j): 1 if (i, j) in g.edges else -1}
        for i, j in combinations(g.vertices(), 2)
    }
    for i in g.vertices():
        differing = {edge(i, j): -1 for j in g.vertices() if full[j] != full[i]}
        weights[(0, i)] = {(0, i): 1, **differing}
    return weights


def gamma_laplacian(g: ColoredGraph) -> list[list[LinForm]]:
    """Graph Laplacian of Gamma(G) as an (n+1) x (n+1) grid of linear forms."""
    n = g.n
    grid: list[list[LinForm]] = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    for (i, j), w in gamma_graph(g).items():
        for a, b in ((i, j), (j, i)):
            _add(grid[a][b], w, sign=-1)
            _add(grid[a][a], w)
    return grid


def _dot(form: LinForm, values: Mapping[tuple[int, int], Fraction]) -> Fraction:
    # Integer values give an integer: the checks feed integer points.
    acc = 0
    for key, coeff in form.items():
        acc += values[key] * coeff
    return acc


@dataclass(frozen=True)
class CoordinateMap:
    """Invertible linear map between sigma-coordinates and p/q-coordinates.

    ``forward`` holds one linear form in sigma-index pairs per coordinate
    pair (order :func:`pq_index_pairs`); ``backward`` holds one linear form
    in coordinate pairs per sigma pair (order :func:`sigma_index_pairs`) and
    is the exact inverse of ``forward``.
    """

    n: int
    kind: str
    forward: dict[tuple[int, int], LinForm]
    backward: dict[tuple[int, int], LinForm]

    def apply(self, m: SymMatrix) -> dict[Var, Fraction]:
        """Coordinate vector of a symmetric matrix, keyed by variable."""
        if m.n != self.n:
            raise ValueError("dimension mismatch")
        sigma = {(i, j): m[i - 1, j - 1] for i, j in self.backward}
        return {
            coord_var(self.kind, i, j): _dot(form, sigma)
            for (i, j), form in self.forward.items()
        }

    def unapply(self, point: Mapping[Var, Fraction]) -> SymMatrix:
        """Symmetric matrix whose coordinate vector is the given point.

        Entries keep the type of the point's values: an integer point gives
        an integer matrix.
        """
        coords = {(i, j): point[coord_var(self.kind, i, j)] for i, j in self.forward}
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, j), form in self.backward.items():
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = _dot(form, coords)
        return SymMatrix(tuple(map(tuple, rows)))


def g_derived_laplacian_map(g: ColoredGraph) -> CoordinateMap:
    """Coordinate change read off the reduced Laplacian of Gamma(G).

    ``backward`` is the reduced grid itself.  Each off-diagonal entry is
    sigma_ij = c_ij x_ij with c_ij = +-1, so x_ij = c_ij sigma_ij; the
    diagonal entry sigma_jj = x_0j + sum d_ab x_ab (a, b >= 1) then gives
    x_0j = sigma_jj - sum d_ab c_ab sigma_ab by substitution.

    The kind is p on a complete graph and q otherwise.  On a complete graph
    Gamma(G) has unit weights, so the map is the reduced Laplacian map.  On
    a derived graph the kind equals :func:`classify.coordinate_kind`: every
    zeroed node has at least two children, and two leaves under different
    children meet there and are not adjacent, so a derived graph is
    complete exactly when its tree has no zeroed node.
    """
    n = g.n
    grid = gamma_laplacian(g)
    backward = {(i, j): grid[i][j] for i, j in sigma_index_pairs(n)}
    sign = {(i, j): grid[i][j][(i, j)] for i, j in pq_index_pairs(n) if i}
    forward = {
        (i, j): {(i, j): sign[(i, j)]}
        if i
        else {(j, j): 1, **{p: -c * sign[p] for p, c in grid[j][j].items() if p[0]}}
        for i, j in pq_index_pairs(n)
    }
    kind = "p" if g.is_complete() else "q"
    return CoordinateMap(n=n, kind=kind, forward=forward, backward=backward)
