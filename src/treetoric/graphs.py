"""Colored graphs derived from trees, and their structural predicates.

The graph derived from a tree lives on the non-root leaves: an edge {i,j}
exists iff lca(i,j) is not zeroed, vertex colors copy leaf colors, and edge
colors are the color tokens of the lca internal nodes, all read off the
tree's leaf-pair lca table.  Classification of these graphs (vertex-regular,
block, star) decides which toric description applies downstream.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import GraphError
from .trees import ColoredTree


def edge(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (i, j) if i < j else (j, i)


class ColoredGraph:
    """Simple graph on vertices 1..n with vertex and edge color classes.

    ``edge_color`` is the graph's one edge store: it maps each edge, given
    as a pair (i, j) with 1 <= i < j <= n, to its color token, and ``edges``
    is its key set.  The constructor copies both color maps and validates
    them without rewriting any key, so a reversed pair is rejected rather
    than swapped.

    A graph is never changed after construction, so it stores what is
    derived from it: its adjacency, and on first use its star structure.
    """

    def __init__(self, n, vertex_color, edge_color):
        self.n = n
        self.vertex_color = dict(vertex_color)
        self.edge_color = dict(edge_color)
        self._validate()
        adj: dict[int, list[int]] = {v: [] for v in self.vertices()}
        for i, j in sorted(self.edges):  # lists each vertex's neighbors in order
            adj[i].append(j)
            adj[j].append(i)
        self._adj = {v: tuple(us) for v, us in adj.items()}

    @property
    def edges(self):
        """The edges, as a read-only view of the keys of ``edge_color``."""
        return self.edge_color.keys()

    def vertices(self) -> list[int]:
        return list(range(1, self.n + 1))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in increasing order."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def incident_edge_colors(self, v: int) -> list[str]:
        """Multiset (sorted) of colors on edges incident to v."""
        return sorted(
            self.edge_color[edge(v, u)] for u in self._adj[v]
        )

    def vertex_color_classes(self) -> dict[str, list[int]]:
        classes: dict[str, list[int]] = {}
        for v in self.vertices():
            classes.setdefault(self.vertex_color[v], []).append(v)
        return classes

    def edge_color_classes(self) -> dict[str, list[tuple[int, int]]]:
        classes: dict[str, list[tuple[int, int]]] = {}
        for e in sorted(self.edges):
            classes.setdefault(self.edge_color[e], []).append(e)
        return classes

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in sorted(self.edges)],
            "vertex_classes": {
                c: vs for c, vs in sorted(self.vertex_color_classes().items())
            },
            "edge_classes": {
                c: [list(e) for e in es]
                for c, es in sorted(self.edge_color_classes().items())
            },
        }

    def __repr__(self) -> str:
        return f"ColoredGraph(n={self.n}, edges={sorted(self.edges)})"

    @cached_property
    def _star(self) -> tuple[int, list[tuple[int, ...]]] | None:
        """The result of :func:`star_decomposition`, computed once."""
        return _star_structure(self)

    def _validate(self) -> None:
        n = self.n
        for e in self.edge_color:
            if not (
                isinstance(e, tuple)
                and len(e) == 2
                and type(e[0]) is int  # not bool
                and type(e[1]) is int
                and 1 <= e[0] < e[1] <= n
            ):
                raise GraphError(f"invalid edge {e!r}: need 1 <= i < j <= {n}")
        if set(self.vertex_color) != set(self.vertices()):
            raise GraphError("every vertex needs a color")
        shared = set(self.vertex_color.values()) & set(self.edge_color.values())
        if shared:
            raise GraphError(f"vertices and edges share color tokens: {sorted(shared)}")


# -------------------------------------------------------------------- #
# construction from trees                                                #
# -------------------------------------------------------------------- #


def derive_graph(t: ColoredTree) -> ColoredGraph:
    """Graph on the non-root leaves with edges keyed by non-zeroed lcas,
    read off the tree's leaf-pair table :attr:`trees.ColoredTree.leaf_lca`."""
    edges = {p: t.color[m] for p, m in t.leaf_lca.items() if p[0] and m not in t.zeroed}
    return ColoredGraph(t.n_leaves, {i: t.color[i] for i in t.leaves()}, edges)


# -------------------------------------------------------------------- #
# predicates                                                             #
# -------------------------------------------------------------------- #


def is_vertex_regular(g: ColoredGraph) -> bool:
    """Same-colored vertices see the same multiset of incident edge colors."""
    return all(
        len({tuple(g.incident_edge_colors(v)) for v in verts}) == 1
        for verts in g.vertex_color_classes().values()
        if len(verts) > 1
    )


def _star_structure(g: ColoredGraph) -> tuple[int, list[tuple[int, ...]]] | None:
    """Center and cliques of g when g is a star block graph, else ``None``.

    A complete graph is one clique, centred at vertex 1.  Any other graph
    is a star block graph iff it has exactly one vertex c adjacent to all
    others and g - c is a disjoint union of cliques.  That holds iff the
    sets N[v] - c, over the closed neighbourhoods N[v] of the vertices
    v != c, partition V - c; they cover it, so iff the distinct ones have
    sizes summing to n - 1.  If g - c is a union of cliques, each N[v] is
    v's clique plus c, so the sets partition.  Conversely, if they
    partition, u in N[v] forces N[u] = N[v], so adjacency in g - c is
    transitive and its components are cliques.
    Called once per graph, through :func:`star_decomposition`.
    """
    if g.is_complete():
        return 1, [tuple(g.vertices())]
    full = [v for v in g.vertices() if g.degree(v) == g.n - 1]
    if len(full) != 1:
        return None
    c = full[0]
    cliques = {tuple(sorted((v, *g.neighbors(v)))) for v in g.vertices() if v != c}
    if sum(len(q) - 1 for q in cliques) != g.n - 1:
        return None
    return c, sorted(cliques)


def star_decomposition(
    g: ColoredGraph,
) -> tuple[int, list[tuple[int, ...]]] | None:
    """Central vertex and cliques of a star block graph, or ``None``.

    A star graph is a union of cliques pairwise intersecting in one common
    vertex.  Returns ``None`` for every other graph, including disconnected
    ones and block graphs with several cut vertices.  On a complete graph
    any vertex qualifies; the smallest id is returned.  On the derived
    graph of a zeroed tree, which is never complete, the center is the
    tree's center leaf (:meth:`trees.ColoredTree.center_leaf`).  The
    result is computed on first use and stored with the graph.
    """
    return g._star


def one_clique_separated_quadruples(
    g: ColoredGraph,
) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Pairs of vertex pairs separated by the center of a star graph.

    A pairing ((i,j),(k,l)) is collected when the center c places
    {i,j}\\{c} and {k,l}\\{c} in different components of g - c; c itself may
    occur in either pair.  These index the 2x2 minors generating the block
    graph's vanishing ideal.

    Each vertex v != c is labelled with the index of its clique.  As g - c
    is a disjoint union of cliques, two of its vertices share a component
    iff they are equal or adjacent, so two pairs are separated exactly when
    the label sets of their non-center members are disjoint.

    Raises
    ------
    GraphError
        If the graph is not a star block graph.
    """
    star = star_decomposition(g)
    if star is None:
        raise GraphError("separation analysis needs a star block graph")
    c, cliques = star
    part = {v: a for a, clique in enumerate(cliques) for v in clique if v != c}
    parts = [(p, {part[u] for u in p if u != c}) for p in combinations(g.vertices(), 2)]
    return {(p, q) for (p, s), (q, t) in combinations(parts, 2) if s.isdisjoint(t)}

