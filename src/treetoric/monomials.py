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
to equality of two integer vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Mapping

from . import linalg
from .binomials import Binomial, Monomial, Var, coord_var, var_name
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

    def image_exponents(self, m: Monomial) -> tuple[int, ...]:
        """Total parameter exponent vector of the image of a monomial."""
        total = [0] * len(self.params)
        for v, e in m:
            # Rows are mostly zero: sum over the sparse pairs only.
            for k, r in self._terms[self._position(v)]:
                total[k] += e * r
        return tuple(total)

    def in_kernel(self, b: Binomial) -> bool:
        """True iff both monomials map to the same parameter monomial."""
        return self.image_exponents(b.lead) == self.image_exponents(b.trail)

    def point(self, theta) -> list:
        """Coordinate list (order :meth:`coords`) of the parametrized point
        at parameter values listed in ``params`` order.

        Integer parameters give an integer point.
        """
        value = theta.__getitem__
        return [prod(map(value, factors)) for factors in self._factors]

    def evaluate(self, theta: Mapping[str, Fraction]) -> dict[Var, Fraction]:
        """:meth:`point` at parameter values keyed by token, keyed by variable."""
        return dict(zip(self.coords(), self.point([theta[tok] for tok in self.params])))


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
