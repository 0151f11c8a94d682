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
    def _row_by_pair(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return dict(zip(pq_index_pairs(self.n), self.rows))

    @cached_property
    def _terms(self) -> list[tuple[Var, list[tuple[str, int]]]]:
        """Each coordinate with the (parameter, exponent) pairs of its row."""
        return [
            (v, [(tok, e) for tok, e in zip(self.params, row) if e])
            for v, row in zip(self.coords(), self.rows)
        ]

    def row_of(self, v: Var) -> tuple[int, ...]:
        kind, i, j = v
        if kind != self.kind:
            raise KeyError(f"variable {var_name(v)} has kind {kind!r}, map is {self.kind!r}")
        try:
            return self._row_by_pair[(i, j)]
        except KeyError:
            raise KeyError(f"variable {var_name(v)} outside coordinate range") from None

    def image_exponents(self, m: Monomial) -> tuple[int, ...]:
        """Total parameter exponent vector of the image of a monomial."""
        total = [0] * len(self.params)
        for v, e in m:
            row = self.row_of(v)
            # Rows are mostly zero.  Summing over every entry with zip made
            # in_kernel take 1.4x (sweep) and 1.2x (generate) as long on two
            # rounds of each perfbench mix (Python 3.11, Xeon).
            for k, r in enumerate(row):
                if r:
                    total[k] += e * r
        return tuple(total)

    def in_kernel(self, b: Binomial) -> bool:
        """True iff both monomials map to the same parameter monomial."""
        return self.image_exponents(b.lead) == self.image_exponents(b.trail)

    def evaluate(self, theta: Mapping[str, Fraction]) -> dict[Var, Fraction]:
        """Point of the parametrized variety at the given parameter values.

        Integer parameters give an integer point.
        """
        missing = [p for p in self.params if p not in theta]
        if missing:
            raise KeyError(f"no value for parameters {missing}")
        values = {}
        for v, terms in self._terms:
            acc = 1
            for tok, e in terms:
                acc *= theta[tok] ** e
            values[v] = acc
        return values


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
