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
are stored as sparse integer linear forms keyed by index pair, and applied
to batches held entry-major, one list across the batch per entry: the
entries of upper triangles (order :func:`sigma_index_pairs`) one way, the
coordinates the other.  Evaluation copies the first term of every form,
signed, and adds the other terms only for the forms that have them, x_0j
and sigma_jj, each a few ``map`` passes over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat
from operator import add, mul, neg
from typing import Mapping, NamedTuple

from . import linalg
from .binomials import Var, coord_var, var_name
from .graphs import ColoredGraph, edge
from .matrices import SymMatrix

LinForm = dict[tuple[int, int], int]  # index pair -> coefficient


def sigma_index_pairs(n: int) -> list[tuple[int, int]]:
    """(i,j) with 1 <= i <= j <= n, column by column: :func:`linalg.upper_pairs`
    shifted by one, so a list in this order is a matrix's upper triangle."""
    return [(i + 1, j + 1) for i, j in linalg.upper_pairs(n)]


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


class _Split(NamedTuple):
    """Linear forms over the entries of a list, split for evaluation: the
    first term of every form, and the further terms of the few forms that
    have more than one (x_0j in sigma, sigma_jj in x)."""

    firsts: tuple[int, ...]  # per form: where its first term reads the list
    coeffs: tuple[int, ...]  # per form: the coefficient of its first term
    more: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]  # form, positions, coefficients


def _split(forms, pairs, into) -> _Split:
    """The forms listed in the order of ``pairs``, each reading a list in
    the order of ``into``.  An empty form is the first term 0 times the
    first entry."""
    pos = {pair: k for k, pair in enumerate(into)}
    terms = [
        [(pos[p], c) for p, c in form.items()] or [(0, 0)]
        for form in map(forms.__getitem__, pairs)
    ]
    return _Split(
        firsts=tuple(form[0][0] for form in terms),
        coeffs=tuple(form[0][1] for form in terms),
        more=tuple(
            (f, tuple(p for p, _ in form[1:]), tuple(c for _, c in form[1:]))
            for f, form in enumerate(terms)
            if len(form) > 1
        ),
    )


def _scaled(values, c: int):
    """The entries of ``values`` times c, lazily; ``values`` itself for c = 1."""
    if c == 1:
        return values
    return map(neg, values) if c == -1 else map(mul, values, repeat(c))


def _evaluate(split: _Split, values) -> list:
    """Every form of the split at a batch of lists held entry-major:
    ``values[p]`` lists entry p of every list, and entry f of the result
    lists form f's value at each.  One signed copy of the first terms,
    then sums for the longer forms; an entry with coefficient 1 and no
    further term is the input's list itself."""
    out = [
        values[p] if c == 1 else list(_scaled(values[p], c))
        for p, c in zip(split.firsts, split.coeffs)
    ]
    for f, positions, coeffs in split.more:
        total = out[f]
        for p, c in zip(positions, coeffs):
            total = map(add, total, _scaled(values[p], c))
        out[f] = list(total)
    return out


@dataclass(frozen=True)
class CoordinateMap:
    """Invertible linear map between sigma-coordinates and p/q-coordinates.

    ``forward`` holds one linear form in sigma-index pairs per coordinate
    pair (order :func:`pq_index_pairs`); ``backward`` holds one linear form
    in coordinate pairs per sigma pair (order :func:`sigma_index_pairs`) and
    is the exact inverse of ``forward``.

    The batch kernels :meth:`coordinates` and :meth:`sigma_upper` do the
    work on upper triangles held entry-major; :meth:`apply` and
    :meth:`unapply` take and give one :class:`SymMatrix`, as a batch of
    one, and key the coordinates by variable.  Integer input gives integer
    output.
    """

    n: int
    kind: str
    forward: dict[tuple[int, int], LinForm]
    backward: dict[tuple[int, int], LinForm]

    @cached_property
    def index(self) -> dict[Var, int]:
        """Each coordinate variable's position in a coordinate list, the
        order of :func:`pq_index_pairs`."""
        return {
            coord_var(self.kind, i, j): k for k, (i, j) in enumerate(pq_index_pairs(self.n))
        }

    @cached_property
    def _forward_terms(self) -> _Split:
        return _split(self.forward, pq_index_pairs(self.n), sigma_index_pairs(self.n))

    @cached_property
    def _backward_terms(self) -> _Split:
        return _split(self.backward, sigma_index_pairs(self.n), pq_index_pairs(self.n))

    def coordinates(self, entries) -> list:
        """Coordinate entries of a batch of symmetric matrices:
        ``entries[t]`` lists entry t of each matrix's upper triangle, and
        entry k of the result lists coordinate k of each matrix."""
        return _evaluate(self._forward_terms, entries)

    def sigma_upper(self, values) -> list:
        """Upper-triangle entries of the symmetric matrices of a batch of
        coordinate lists: ``values[k]`` lists coordinate k of each, and
        entry t of the result lists triangle entry t of each matrix."""
        return _evaluate(self._backward_terms, values)

    def apply(self, m: SymMatrix) -> dict[Var, Fraction]:
        """Coordinate vector of a symmetric matrix, keyed by variable: a
        batch of one through :meth:`coordinates`."""
        if m.n != self.n:
            raise ValueError("dimension mismatch")
        coordinates = self.coordinates([[x] for x in m.upper()])
        return {v: x for v, (x,) in zip(self.index, coordinates)}

    def unapply(self, point: Mapping[Var, Fraction]) -> SymMatrix:
        """Symmetric matrix whose coordinate vector is the given point: a
        batch of one through :meth:`sigma_upper`.

        Entries keep the type of the point's values: an integer point gives
        an integer matrix.
        """
        upper = self.sigma_upper([[point[v]] for v in self.index])
        return SymMatrix.from_upper(self.n, [x for (x,) in upper])


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
