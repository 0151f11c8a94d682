"""Monomial parametrizations built from paths between leaves.

The path map sends the coordinate x_ij (0 <= i < j <= n) to the product of
the parameters of the non-zeroed nodes met along the tree path i <-> j,
where each path edge (l,k) contributes the parameter of its lower node k
and parameters are indexed by color tokens; i and j each climb to the
lca(i,j) of the tree's leaf-pair table.  With zeroed nodes present the
coordinate x_0c of the unique leaf c under the top internal node is instead
sent to the square of c's parameter.

One construction therefore covers the uncolored map (all tokens distinct),
the leaf-colored map (tokens merge), and both zeroed variants (the squared
center rule switches on exactly when the zeroed set is nonempty).

Everything is an exponent matrix; kernel membership of a binomial reduces
to equality of two integer vectors, each packed into one integer
(:meth:`MonomialMap.packed_rows`) at a digit width that no sum of rows up
to the checked degree can carry out of.  Parametrized points are computed
for a batch at once, held entry-major (:meth:`MonomialMap.point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Mapping

from . import linalg
from .binomials import Binomial, Var, coord_var, var_name
from .classify import coordinate_kind
from .errors import GraphError
from .graphs import ColoredGraph, star_decomposition
from .laplacians import pq_index_pairs
from .trees import ColoredTree


@dataclass(frozen=True)
class MonomialMap:
    """Exponent matrix of a monomial map: coordinates x parameters."""

    kind: str
    n: int
    params: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def coords(self) -> list[Var]:
        return [coord_var(self.kind, i, j) for i, j in pq_index_pairs(self.n)]

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        """Row position of each coordinate's index pair."""
        return {pair: k for k, pair in enumerate(pq_index_pairs(self.n))}

    @cached_property
    def _terms(self) -> list[list[tuple[int, int]]]:
        """Each row's (parameter position, exponent) pairs."""
        return [[(k, e) for k, e in enumerate(row) if e] for row in self.rows]

    @cached_property
    def _factors(self) -> tuple[tuple[int, ...], ...]:
        """Each row's parameter positions, each repeated by its exponent."""
        return tuple(tuple(k for k, e in terms for _ in range(e)) for terms in self._terms)

    def _position(self, v: Var) -> int:
        kind, i, j = v
        if kind != self.kind:
            raise KeyError(f"variable {var_name(v)} has kind {kind!r}, map is {self.kind!r}")
        try:
            return self._index[(i, j)]
        except KeyError:
            raise KeyError(f"variable {var_name(v)} outside coordinate range") from None

    @cached_property
    def _top(self) -> int:
        """The largest exponent in the matrix."""
        return max((max(row) for row in self.rows if row), default=0)

    def _width(self, degree: int) -> int:
        return max(1, (degree * self._top).bit_length())

    def _pack(self, position: int, width: int) -> int:
        return sum(e << (width * k) for k, e in self._terms[position])

    def packed_rows(self, degree: int) -> list[int]:
        """Each row as one integer, its exponent of parameter k in bits
        w k to w (k + 1) - 1, with w the bit length of ``degree`` times the
        largest exponent of the matrix.  A monomial of degree at most
        ``degree`` maps to the sum of its variables' packed rows, counted
        by exponent, and no digit of that sum can reach 2^w: two such
        monomials have the same image exactly when the sums are equal."""
        width = self._width(degree)
        return [self._pack(k, width) for k in range(len(self.rows))]

    def in_kernel(self, b: Binomial) -> bool:
        """True iff both monomials map to the same parameter monomial: the
        packed images of :meth:`packed_rows` are equal, at the width of
        the binomial's degree."""
        width = self._width(max(sum(e for _, e in m) for m in b))
        lead, trail = (
            sum(e * self._pack(self._position(v), width) for v, e in m) for m in b
        )
        return lead == trail

    def point(self, theta) -> list:
        """Coordinate entries (order :meth:`coords`) of the parametrized
        points of a batch held entry-major: ``theta[k]`` lists parameter
        k's value (``params`` order) at each point, and entry r of the
        result lists coordinate r at each point.

        Integer parameters give integer points.
        """
        out = []
        for factors in self._factors:
            values = theta[factors[0]]
            for k in factors[1:]:
                values = map(mul, values, theta[k])
            out.append(list(values))
        return out

    def evaluate(self, theta: Mapping[str, Fraction]) -> dict[Var, Fraction]:
        """:meth:`point` at parameter values keyed by token, keyed by
        variable: a batch of one."""
        point = self.point([[theta[tok]] for tok in self.params])
        return {v: x for v, (x,) in zip(self.coords(), point)}


def exponent_rank(m: MonomialMap) -> int:
    """Exact integer rank of the exponent matrix."""
    return len(linalg.bareiss_echelon([list(row) for row in m.rows]))


def path_map(t: ColoredTree, g: ColoredGraph) -> MonomialMap:
    """Path map of a colored tree with zeroed nodes.

    Coordinates are of the tree's kind (:func:`classify.coordinate_kind`):
    p-variables, or q-variables with the squared-center override when
    zeroed nodes are present.  ``g`` is the tree's derived graph
    (:func:`graphs.derive_graph`, or the ``graph`` of its classification
    report); only zeroed trees read it, and the squared center leaf is the
    center of its star decomposition.

    Raises
    ------
    GraphError
        With zeroed nodes, when the derived graph is not a star block
        graph (:func:`graphs.star_decomposition` gives ``None``), so the
        center coordinate would be ill-defined.
    """
    n = t.n_leaves
    tokens = sorted(
        {t.color[i] for i in t.nodes() if i not in t.zeroed}
    )
    pos = {tok: k for k, tok in enumerate(tokens)}

    center = None
    if t.zeroed:
        star = star_decomposition(g)
        if star is None:
            raise GraphError("derived graph is not a star; no center coordinate")
        center = star[0]

    rows = []
    for i, j in pq_index_pairs(n):
        row = [0] * len(tokens)
        if t.zeroed and (i, j) == (0, center):
            row[pos[t.color[center]]] = 2
        else:
            # the nodes below the lca on the path are the lower ends of its edges
            m = t.leaf_lca[i, j]
            for node in (i, j):
                while node != m:
                    if node not in t.zeroed:
                        row[pos[t.color[node]]] += 1
                    node = t.parent[node]
        rows.append(tuple(row))
    return MonomialMap(
        kind=coordinate_kind(t), n=n, params=tuple(tokens), rows=tuple(rows)
    )
