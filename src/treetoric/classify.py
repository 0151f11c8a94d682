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
    is_block_graph,
    is_connected,
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


def _merged_class_is_adjacent(t: ColoredTree, members: list[int]) -> bool:
    """True when the class induces a connected set of parent edges."""
    if len(members) == 1:
        return True
    members_set = set(members)
    seen = {members[0]}
    stack = [members[0]]
    while stack:
        node = stack.pop()
        nbrs = [t.parent[node]] if t.parent[node] in members_set else []
        nbrs += [c for c in t.children[node] if c in members_set]
        for nb in nbrs:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == members_set


def has_non_adjacent_internal_merge(t: ColoredTree) -> bool:
    return any(
        not _merged_class_is_adjacent(t, members)
        for members in t.internal_color_classes().values()
    )


def contract_internal_colors(t: ColoredTree) -> ColoredTree:
    """Quotient tree with one internal node per internal color class.

    Each class keeps the id of its topmost member, so figures relabel
    predictably; leaves, leaf colors and zeroed nodes are untouched.  The
    matrix space and the derived graph of the result equal the input's.

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
        if not _merged_class_is_adjacent(t, members):
            raise TreeError(
                f"non-adjacent same-colored internal nodes: {sorted(members)}"
            )
        members_set = set(members)
        top = next(m for m in members if t.parent[m] not in members_set)
        for m in members:
            rep[m] = top
    for z in t.zeroed:
        rep[z] = z

    def image(node: int) -> int:
        return rep.get(node, node)

    parent: dict[int, int] = {}
    for node in t.nodes():
        img = image(node)
        par = t.parent[node]
        while par != 0 and image(par) == img:
            par = t.parent[par]
        parent[img] = image(par) if par != 0 else 0
    color = {i: t.color[i] for i in t.leaves()}
    for i in set(parent) - set(t.leaves()):
        if i not in t.zeroed:
            color[i] = t.color[i]
    return ColoredTree(
        n_leaves=t.n_leaves, parent=parent, color=color, zeroed=t.zeroed
    )


@dataclass
class ClassificationReport:
    """Derived-graph properties and the applicable theorem tag."""

    theorem: str
    coordinates: str
    connected: bool
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
                "connected": self.connected,
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
    color merges are contracted before classification, by one walk over
    the color classes that also detects a non-adjacent merge.  The
    connectivity, block and star predicates all read the derived graph's
    one stored block decomposition.
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
    connected = is_connected(g)
    complete = g.is_complete()
    vertex_regular = is_vertex_regular(g)
    block = is_block_graph(g)
    star = star_decomposition(g) if connected and block else None
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
    else:
        if not connected:
            reasons.append("derived graph is disconnected")
        elif not block:
            reasons.append("derived graph is not a block graph")
        elif star is None:
            reasons.append("block derived graph is not a star graph")
        else:
            distinct_leaves = len(set(working.leaf_colors().values())) == t.n_leaves
            if distinct_leaves:
                theorem = THM_BLOCK_UNCOLORED
            elif vertex_regular:
                theorem = THM_MAIN
            else:
                reasons.append("block derived graph is not vertex-regular")

    return ClassificationReport(
        theorem=theorem,
        coordinates=coordinate_kind(t),
        connected=connected,
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
