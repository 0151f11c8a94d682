"""Classify trees by which toric description of the inverse model applies.

Three theorem regimes are recognized on the derived graph:

* ``THM_COLORED_COMPLETE`` - no zeroed nodes, vertex-regular complete graph;
  coordinates are the reduced graph Laplacian (p-variables).
* ``THM_BLOCK_UNCOLORED`` - zeroed nodes, all colors distinct, block graph;
  coordinates are the G-derived Laplacian (q-variables).
* ``THM_MAIN`` - zeroed nodes, vertex-regular block graph; G-derived
  Laplacian coordinates.

Adjacent internal nodes sharing a color are first contracted to a single
node (this leaves the matrix space and the derived graph unchanged);
non-adjacent internal color merges fall outside every known toric regime,
as do non-vertex-regular complete graphs, and are flagged as conjecturally
non-toric.  ``NONE``-classified trees get reasons, never generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TreeError
from .graphs import (
    ColoredGraph,
    derive_graph,
    is_vertex_regular,
    star_decomposition,
)
from .trees import ColoredTree

THM_COLORED_COMPLETE = "THM_COLORED_COMPLETE"
THM_BLOCK_UNCOLORED = "THM_BLOCK_UNCOLORED"
THM_MAIN = "THM_MAIN"
NONE = "NONE"

WARN_NON_ADJACENT_MERGE = "non_adjacent_internal_color_merge"
WARN_NON_VERTEX_REGULAR = "non_vertex_regular_complete"


def coordinate_kind(t: ColoredTree) -> str:
    """Coordinate kind of a tree: q (G-derived Laplacian) with zeroed nodes, else p."""
    return "q" if t.zeroed else "p"


def contract_internal_colors(t: ColoredTree) -> ColoredTree:
    """Quotient tree with one internal node per internal color class.

    Each class keeps the id of its topmost member, so figures relabel
    predictably; leaves, leaf colors and zeroed nodes are untouched.  The
    matrix space and the derived graph of the result equal the input's.
    A class is adjacent iff it has a single top: each connected piece of a
    set of tree nodes has exactly one member whose parent lies outside it.

    Raises
    ------
    TreeError
        When some internal color class is not adjacent (not connected under
        parent edges); no single quotient node can represent it.
    """
    classes = t.internal_color_classes()
    if all(len(m) == 1 for m in classes.values()):
        return t
    rep: dict[int, int] = {}
    for members in classes.values():
        inside = set(members)
        tops = [m for m in members if t.parent[m] not in inside]
        if len(tops) != 1:
            raise TreeError(
                f"non-adjacent same-colored internal nodes: {sorted(members)}"
            )
        for m in members:
            rep[m] = tops[0]
    parent = {
        v: rep.get(t.parent[v], t.parent[v]) for v in t.nodes() if rep.get(v, v) == v
    }
    color = {i: c for i, c in t.color.items() if i in parent}
    return ColoredTree(
        n_leaves=t.n_leaves, parent=parent, color=color, zeroed=t.zeroed
    )


@dataclass
class ClassificationReport:
    """Derived-graph properties and the applicable theorem tag."""

    theorem: str
    coordinates: str
    complete: bool
    vertex_regular: bool
    block: bool
    star_center: int | None
    star_cliques: list[tuple[int, ...]] | None
    contracted: bool
    warnings: list[str] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)
    tree: ColoredTree | None = None
    working_tree: ColoredTree | None = None
    graph: ColoredGraph | None = None

    @property
    def applicable(self) -> bool:
        return self.theorem != NONE

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "coordinates": self.coordinates,
            "graph": self.graph.to_dict() if self.graph else None,
            "predicates": {
                # every derived graph is connected (lemma in classify)
                "connected": True,
                "complete": self.complete,
                "vertex_regular": self.vertex_regular,
                "block": self.block,
            },
            "star_center": self.star_center,
            "star_cliques": (
                [list(c) for c in self.star_cliques] if self.star_cliques else None
            ),
            "contracted_internal_colors": self.contracted,
            "warnings": sorted(self.warnings),
            "reasons": self.reasons,
            "tree": self.tree.to_dict() if self.tree else None,
        }


def classify(t: ColoredTree) -> ClassificationReport:
    """Classify a tree and select the coordinate system.

    Coordinates (:func:`coordinate_kind`): reduced Laplacian (p) when no
    node is zeroed, G-derived Laplacian (q) otherwise.  Adjacent internal
    color merges are contracted before classification, by one pass over
    the color classes whose single-top test also detects a non-adjacent merge.

    Every derived graph G is connected, and when the tree has a zeroed node
    G is a block graph only if it is a star centred at the tree's center
    leaf; without zeroed nodes G is complete, a star of one clique.  Every
    star is a block graph, so on every derived graph "is a block graph"
    equals "``star_decomposition(G)`` is not ``None``", and ``block`` is read
    off :func:`graphs.star_decomposition` alone.  Block graphs are exactly
    the chordal graphs without an induced diamond (K4 minus an edge)
    (Bandelt-Mulder, JCTB 1986).  Proof:

    1. The top node is never zeroed and, unless it is the only leaf
       (n = 1), has at least two children, so leaves under different
       children of the top are adjacent.  Therefore G is connected.
    2. A zeroed node makes two leaves a, a' under one child of the top
       non-adjacent.  Any two leaves b, b' under other children of the top
       are adjacent to both, so {a, b, a', b'} induces a C4 or a diamond.
       Therefore the top of a zeroed tree with block G has exactly two
       children, one of them a leaf c.
    3. c is adjacent to every other vertex, so an induced path u-v-w in
       G - c would form a diamond with c.  Therefore G - c is a disjoint
       union of cliques, and G is a star centred at c.
    """
    warnings: list[str] = []
    reasons: list[str] = []
    working: ColoredTree | None = None

    try:
        working = contract_internal_colors(t)
    except TreeError:
        warnings.append(WARN_NON_ADJACENT_MERGE)
        reasons.append(
            "non-adjacent internal nodes share a color: conjecturally non-toric"
        )

    ref = working if working is not None else t
    g = derive_graph(ref)
    complete = g.is_complete()
    vertex_regular = is_vertex_regular(g)
    star = star_decomposition(g)
    block = star is not None
    star_center, star_cliques = (star if star else (None, None))
    if complete and ref.center_leaf() is not None:
        star_center = ref.center_leaf()

    theorem = NONE
    if working is None:
        pass
    elif not working.zeroed:
        if vertex_regular:
            theorem = THM_COLORED_COMPLETE
        else:
            warnings.append(WARN_NON_VERTEX_REGULAR)
            reasons.append(
                "complete derived graph is not vertex-regular: "
                "conjecturally non-toric"
            )
    elif not block:
        reasons.append("derived graph is not a block graph")
    elif len(set(working.leaf_colors().values())) == t.n_leaves:
        theorem = THM_BLOCK_UNCOLORED
    elif vertex_regular:
        theorem = THM_MAIN
    else:
        reasons.append("block derived graph is not vertex-regular")

    return ClassificationReport(
        theorem=theorem,
        coordinates=coordinate_kind(t),
        complete=complete,
        vertex_regular=vertex_regular,
        block=block,
        star_center=star_center,
        star_cliques=star_cliques,
        contracted=working is not None and working is not t,
        warnings=warnings,
        reasons=reasons,
        tree=t,
        working_tree=working,
        graph=g,
    )
