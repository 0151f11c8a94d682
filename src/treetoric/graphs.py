"""Colored graphs derived from trees, and their structural predicates.

The graph derived from a tree lives on the non-root leaves: an edge {i,j}
exists iff lca(i,j) is not zeroed, vertex colors copy leaf colors, and edge
colors are the color tokens of the lca internal nodes.  Classification of
these graphs (vertex-regular, block, star) decides which toric description
applies downstream.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations

from .errors import GraphError
from .trees import ColoredTree


def edge(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (i, j) if i < j else (j, i)


class ColoredGraph:
    """Simple graph on vertices 1..n with vertex and edge color classes.

    A graph is never changed after construction, so it stores what is
    derived from it: its adjacency, and on first use its block structure.
    """

    def __init__(self, n, edges, vertex_color, edge_color):
        self.n = int(n)
        self.edges = frozenset(edge(*e) for e in edges)
        self.vertex_color = {int(v): str(c) for v, c in vertex_color.items()}
        self.edge_color = {edge(*e): str(c) for e, c in edge_color.items()}
        self._validate()
        adj: dict[int, list[int]] = {v: [] for v in self.vertices()}
        for i, j in sorted(self.edges):  # lists each vertex's neighbors in order
            adj[i].append(j)
            adj[j].append(i)
        self._adj = {v: tuple(us) for v, us in adj.items()}

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
    def _blocks(self) -> tuple[list[set[int]], bool]:
        """Biconnected components, and whether every one is a clique."""
        blocks = biconnected_components(self)
        return blocks, all(
            edge(u, v) in self.edges for b in blocks for u, v in combinations(b, 2)
        )

    def _validate(self) -> None:
        verts = set(self.vertices())
        for i, j in self.edges:
            if i == j or i not in verts or j not in verts:
                raise GraphError(f"invalid edge ({i},{j})")
        if set(self.vertex_color) != verts:
            raise GraphError("every vertex needs a color")
        if set(self.edge_color) != set(self.edges):
            raise GraphError("every edge needs a color, and only edges")
        shared = set(self.vertex_color.values()) & set(self.edge_color.values())
        if shared:
            raise GraphError(f"vertices and edges share color tokens: {sorted(shared)}")


# -------------------------------------------------------------------- #
# construction from trees                                                #
# -------------------------------------------------------------------- #


def derive_graph(t: ColoredTree) -> ColoredGraph:
    """Graph on the non-root leaves with edges keyed by non-zeroed lcas."""
    n = t.n_leaves
    edges = {}
    for i, j in combinations(range(1, n + 1), 2):
        anc = t.lca(i, j)
        if anc not in t.zeroed:
            edges[(i, j)] = t.color[anc]
    return ColoredGraph(
        n=n,
        edges=edges.keys(),
        vertex_color={i: t.color[i] for i in t.leaves()},
        edge_color=edges,
    )


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


def connected_components(g: ColoredGraph, removed: int | None = None) -> list[set[int]]:
    """Connected components, optionally with one vertex deleted."""
    remaining = [v for v in g.vertices() if v != removed]
    seen: set[int] = set()
    comps = []
    for start in remaining:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u != removed and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def is_connected(g: ColoredGraph) -> bool:
    """True when g has at most one component, read off its blocks.

    Spanning trees of the blocks make up a spanning forest of g, which has
    n - (number of components) edges: g is connected iff they add to
    max(n - 1, 0).
    """
    return sum(len(b) - 1 for b in g._blocks[0]) == max(g.n - 1, 0)


def biconnected_components(g: ColoredGraph) -> list[set[int]]:
    """Vertex sets of the biconnected components (Hopcroft-Tarjan).

    The depth-first search keeps its own stack of (vertex, parent,
    neighbor iterator) frames, so path-like graphs of any size stay within
    the interpreter's recursion limit.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    edge_stack: list[tuple[int, int]] = []
    comps: list[set[int]] = []

    for start in g.vertices():
        if start in index:
            continue
        index[start] = low[start] = len(index)
        frames = [(start, None, iter(g.neighbors(start)))]
        while frames:
            v, parent, nbrs = frames[-1]
            for u in nbrs:
                if u == parent:
                    continue
                if u not in index:
                    edge_stack.append((v, u))
                    index[u] = low[u] = len(index)
                    frames.append((u, v, iter(g.neighbors(u))))
                    break
                if index[u] < index[v]:
                    edge_stack.append((v, u))
                    low[v] = min(low[v], index[u])
            else:
                # v is finished: fold its low point into the parent's
                frames.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= index[parent]:
                    comp: set[int] = set()
                    while True:
                        e = edge_stack.pop()
                        comp.update(e)
                        if e == (parent, v):
                            break
                    comps.append(comp)
    return comps


def is_block_graph(g: ColoredGraph) -> bool:
    """Every biconnected component is a clique (per connected component)."""
    return g._blocks[1]


def _require_connected_block_graph(g: ColoredGraph, analysis: str) -> list[set[int]]:
    """The blocks of g; raises unless g is a connected block graph."""
    if not is_connected(g):
        raise GraphError(f"{analysis} needs a connected graph")
    if not is_block_graph(g):
        raise GraphError("not a block graph")
    return g._blocks[0]


def star_decomposition(
    g: ColoredGraph,
) -> tuple[int, list[tuple[int, ...]]] | None:
    """Central vertex and cliques of a star block graph.

    A star graph is a union of cliques pairwise intersecting in one common
    vertex.  Returns ``None`` when the block graph is not a star.  On a
    complete graph any vertex qualifies; the smallest id is returned.  On
    the derived graph of a zeroed tree, which is never complete, the center
    is the tree's center leaf (:meth:`trees.ColoredTree.center_leaf`).
    The cliques are the graph's stored blocks.

    Raises
    ------
    GraphError
        If the graph is disconnected or not a block graph.
    """
    blocks = _require_connected_block_graph(g, "star decomposition")
    if g.n == 1:
        return 1, [(1,)]
    cliques = sorted(tuple(sorted(c)) for c in blocks)
    common = set(cliques[0])
    for c in cliques[1:]:
        common &= set(c)
    if not common:
        return None
    return min(common), cliques


def one_clique_separated_quadruples(
    g: ColoredGraph,
) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Pairs of vertex pairs separated by a single cut vertex.

    A pairing ((i,j),(k,l)) is collected when some cut vertex c places
    {i,j}\\{c} and {k,l}\\{c} in different components of g - c; c itself may
    occur in either pair.  These index the 2x2 minors generating the block
    graph's vanishing ideal.

    The graph's stored blocks give connectivity, the block test and the
    cut vertices (the vertices in two or more blocks).  For each cut vertex
    c, the vertex pairs are grouped by the components of g - c they meet,
    and every two groups meeting disjoint components contribute their whole
    product.

    Raises
    ------
    GraphError
        If the graph is disconnected or not a block graph.
    """
    blocks = _require_connected_block_graph(g, "separation analysis")
    in_blocks = Counter(v for b in blocks for v in b)
    result: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for c in g.vertices():
        if in_blocks[c] < 2:
            continue
        comps = [sorted(comp) for comp in connected_components(g, removed=c)]
        # every vertex pair, keyed by the components of g - c it meets
        groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for a, comp in enumerate(comps):
            groups[(a,)] = [edge(c, v) for v in comp] + list(combinations(comp, 2))
            for b in range(a + 1, len(comps)):
                groups[(a, b)] = [edge(u, v) for u in comp for v in comps[b]]
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
    all_pairs = [edge(i, j) for i, j in combinations(verts, 2)]
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
    return ColoredGraph(
        n=g.n,
        edges=all_pairs,
        vertex_color=g.vertex_color,
        edge_color=edge_color,
    )
