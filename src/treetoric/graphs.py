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
                and isinstance(e[0], int)
                and isinstance(e[1], int)
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
    for verts in g.vertex_color_classes().values():
        if len(verts) < 2:
            continue
        reference = g.incident_edge_colors(verts[0])
        for v in verts[1:]:
            if g.incident_edge_colors(v) != reference:
                return False
    return True


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

    The components of g - c are the star's cliques minus c.  The vertex
    pairs are grouped by the components they meet, and every two groups
    meeting disjoint components contribute their whole product, so a
    single clique separates nothing.

    Raises
    ------
    GraphError
        If the graph is not a star block graph.
    """
    star = star_decomposition(g)
    if star is None:
        raise GraphError("separation analysis needs a star block graph")
    c, cliques = star
    comps = [[v for v in clique if v != c] for clique in cliques]
    # every vertex pair, keyed by the components of g - c it meets
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for a, comp in enumerate(comps):
        groups[(a,)] = [edge(c, v) for v in comp] + list(combinations(comp, 2))
        for b in range(a + 1, len(comps)):
            groups[(a, b)] = [edge(u, v) for u in comp for v in comps[b]]
    result: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for (s1, rows), (s2, cols) in combinations(groups.items(), 2):
        if set(s1).isdisjoint(s2):
            result.update((min(p, q), max(p, q)) for p in rows for q in cols)
    return result


def completion(g: ColoredGraph) -> ColoredGraph:
    """Vertex-regular completion: complete graph carrying only the vertex
    symmetries of g.

    Edge classes are the finest partition of all pairs closed under
    "same-colored vertices i,j force {i,k} ~ {j,k} for every k", computed by
    union-find over the rule instances; untouched pairs stay singletons.
    Each class is named after its least pair (i,j) as ``E{i}_{j}``, with
    the prefix lengthened to ``EE``, ``EEE``, ... until no vertex token
    starts with it, so edge and vertex tokens never meet.
    """
    verts = g.vertices()
    all_pairs = list(combinations(verts, 2))
    parent: dict[tuple[int, int], tuple[int, int]] = {e: e for e in all_pairs}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for verts_same in g.vertex_color_classes().values():
        for i, j in combinations(verts_same, 2):
            for k in verts:
                if k not in (i, j):
                    union(edge(i, k), edge(j, k))

    prefix = "E"
    while any(c.startswith(prefix) for c in g.vertex_color.values()):
        prefix += "E"
    edge_color = {e: f"{prefix}{find(e)[0]}_{find(e)[1]}" for e in all_pairs}
    return ColoredGraph(n=g.n, vertex_color=g.vertex_color, edge_color=edge_color)
