"""Rooted trees with colored and zeroed nodes.

The root is the distinguished leaf 0, the non-root leaves are 1..n, and
internal nodes carry ids above n.  Every non-root node has a parent; the
single child of 0 is the "top" internal node.  Non-root nodes carry a color
token unless they are zeroed; leaves and internal nodes never share colors.
Zeroed nodes are internal nodes whose matrix parameter is pinned to zero.
Where every two leaves meet is one table, :attr:`ColoredTree.leaf_lca`.

Trees are immutable after construction and safe to share across threads; a
racing first read of the cached lca table only computes it twice.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Mapping

from .errors import TreeError


class ColoredTree:
    """A validated rooted tree with colored and zeroed nodes.

    Attributes
    ----------
    n_leaves : int
        Number of non-root leaves (labeled 1..n).
    parent : dict[int, int]
        Parent id for every non-root node; exactly one node has parent 0.
    color : dict[int, str]
        Color token for every non-root, non-zeroed node.
    zeroed : frozenset[int]
        Zeroed internal nodes.  The top internal node is never zeroed.
    """

    def __init__(
        self,
        n_leaves: int,
        parent: Mapping[int, int],
        color: Mapping[int, str],
        zeroed: Iterable[int] = (),
    ):
        self.n_leaves = int(n_leaves)
        self.parent = {int(k): int(v) for k, v in parent.items()}
        self.color = {int(k): str(v) for k, v in color.items()}
        self.zeroed = frozenset(int(z) for z in zeroed)
        order = self._validate()

        # Depth from the root leaf 0 (0 itself has depth 0), parents first.
        self._depth = {0: 0}
        for node in order:
            self._depth[node] = self._depth[self.parent[node]] + 1

    # ---------------------------------------------------------------- #
    # node sets                                                          #
    # ---------------------------------------------------------------- #

    def leaves(self) -> list[int]:
        return list(range(1, self.n_leaves + 1))

    def internal_nodes(self) -> list[int]:
        return sorted(i for i in self.parent if i > self.n_leaves)

    def nodes(self) -> list[int]:
        """All non-root nodes, leaves first."""
        return self.leaves() + self.internal_nodes()

    def top_node(self) -> int:
        """The unique child of the root leaf 0."""
        return self.children[0][0]

    def center_leaf(self) -> int | None:
        """The unique leaf whose parent is the top internal node, if any.

        Well-defined for every tree whose derived graph is a non-complete
        block graph; ``None`` when no or several such leaves exist.
        """
        cands = [i for i in self.children[self.top_node()] if i <= self.n_leaves]
        return cands[0] if len(cands) == 1 else None

    def depth(self, i: int) -> int:
        if i not in self._depth:
            raise TreeError(f"unknown node id: {i}")
        return self._depth[i]

    @cached_property
    def leaf_lca(self) -> dict[tuple[int, int], int]:
        """Where every two of the leaves 0..n meet: ``{(i, j): lca(i, j)}``
        for 0 <= i < j <= n, computed by :func:`_leaf_lca` on first read."""
        return _leaf_lca(self)

    # ---------------------------------------------------------------- #
    # colors                                                             #
    # ---------------------------------------------------------------- #

    def leaf_colors(self) -> dict[int, str]:
        return {i: self.color[i] for i in self.leaves()}

    def internal_color_classes(self) -> dict[str, list[int]]:
        """Non-zeroed internal nodes grouped by color token."""
        classes: dict[str, list[int]] = {}
        for i in self.internal_nodes():
            if i not in self.zeroed:
                classes.setdefault(self.color[i], []).append(i)
        return classes

    # ---------------------------------------------------------------- #
    # serialization                                                      #
    # ---------------------------------------------------------------- #

    def to_dict(self) -> dict:
        return {
            "n_leaves": self.n_leaves,
            "parents": {str(k): v for k, v in sorted(self.parent.items())},
            "colors": {str(k): v for k, v in sorted(self.color.items())},
            "zeroed": sorted(self.zeroed),
        }

    def __repr__(self) -> str:
        return (
            f"ColoredTree(n_leaves={self.n_leaves}, "
            f"internal={self.internal_nodes()}, zeroed={sorted(self.zeroed)})"
        )

    # ---------------------------------------------------------------- #
    # validation                                                         #
    # ---------------------------------------------------------------- #

    def _validate(self) -> list[int]:
        """Check every invariant, build ``children``, and return the non-root
        nodes top-down (parents before children)."""
        n = self.n_leaves
        if n < 1:
            raise TreeError("n_leaves must be at least 1")
        ids = set(self.parent)
        # Compare sizes first: the leaf range must not be built from an
        # unchecked n_leaves.
        if n > len(ids) or set(range(1, n + 1)) - ids:
            raise TreeError("every leaf 1..n needs a parent entry")
        if any(i <= 0 for i in ids):
            raise TreeError("node ids must be positive")
        if sum(1 for p in self.parent.values() if p == 0) != 1:
            raise TreeError("exactly one node must have parent 0")

        # Children lists, then one walk from the root 0 over them: it reaches
        # every node exactly when every parent chain ends at 0 inside the id
        # set.  Parents outside the id set get no list, so the walk stays
        # within it.
        self.children: dict[int, list[int]] = {
            i: [] for i in [*range(1, n + 1), *sorted(i for i in ids if i > n)]
        }
        self.children[0] = []
        for child, par in sorted(self.parent.items()):
            if par in self.children:
                self.children[par].append(child)
        order = [0]
        for node in order:
            order.extend(self.children[node])
        if len(order) <= len(ids):
            reached = set(order)
            node = next(i for i in ids if i not in reached)
            seen = set()
            while node in self.parent:
                if node in seen:
                    raise TreeError("parent map contains a cycle")
                seen.add(node)
                node = self.parent[node]
            raise TreeError(f"parent chain leaves the node set at {node}")

        internal = {i for i in ids if i > n}
        leaves = set(range(1, n + 1))
        bad_parents = set(self.parent.values()) & leaves
        if bad_parents:
            raise TreeError(f"leaves cannot be parents: {sorted(bad_parents)}")

        for i in internal:
            if len(self.children[i]) < 2:
                raise TreeError(f"internal node {i} has fewer than 2 children")

        if not self.zeroed <= internal:
            raise TreeError("zeroed nodes must be internal nodes")
        if self.children[0][0] in self.zeroed:
            raise TreeError("zeroed top node")

        expect_colored = (leaves | internal) - self.zeroed
        missing = expect_colored - set(self.color)
        if missing:
            raise TreeError(f"missing colors for nodes {sorted(missing)}")
        extra = set(self.color) - expect_colored
        if extra & self.zeroed:
            raise TreeError(f"zeroed nodes cannot carry colors: {sorted(extra)}")
        if extra:
            raise TreeError(f"colors given for unknown nodes {sorted(extra)}")

        leaf_colors = {self.color[i] for i in leaves}
        internal_colors = {self.color[i] for i in internal - self.zeroed}
        shared = leaf_colors & internal_colors
        if shared:
            raise TreeError(f"leaves and internal nodes share colors: {sorted(shared)}")
        return order[1:]


def _leaf_lca(t: ColoredTree) -> dict[tuple[int, int], int]:
    """The lca of every two of the leaves 0..n, keyed (i, j) with i < j.

    The internal nodes are walked deepest first, and each one is the lca of
    every two leaves that sit under different children of it.  Leaf 0 is
    the root, so it meets every other leaf at 0.
    """
    table = {(0, j): 0 for j in t.leaves()}
    under = {i: [i] for i in t.leaves()}
    for node in sorted(t.internal_nodes(), key=t.depth, reverse=True):
        met: list[int] = []
        for child in t.children[node]:
            below = under.pop(child)
            table.update(
                {(i, j) if i < j else (j, i): node for i in met for j in below}
            )
            met += below
        under[node] = met
    return table


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TreeError(f"{what} must be a JSON integer, got {type(value).__name__}")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TreeError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` hook: a repeated key is an input error, not an overwrite."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, _ in pairs if sum(j == k for j, _ in pairs) > 1)
        raise TreeError(f"repeated key {key!r}")
    return doc


def parse_tree(text: str) -> ColoredTree:
    """Parse and validate a JSON tree document.

    Schema::

        {"n_leaves": int,
         "parents": {"<id>": int, ...},
         "colors": {"<id>": "token", ...},
         "zeroed": [int, ...]}

    Values must have exactly these JSON types (booleans are not integers),
    no object may repeat a key, and each node id key must be a plain decimal
    integer, so no two keys name the same node.  Beyond the :class:`ColoredTree`
    invariants, documents must label internal nodes contiguously as n+1..m.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise TreeError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise TreeError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise TreeError("tree document must be a JSON object")
    for key in ("n_leaves", "parents"):
        if key not in doc:
            raise TreeError(f"missing required key {key!r}")
    n_leaves = _json_int(doc["n_leaves"], "n_leaves")
    parents = _json_object(doc["parents"], "parents")
    colors = _json_object(doc.get("colors", {}), "colors")
    zeroed = doc.get("zeroed", [])
    if not isinstance(zeroed, list):
        raise TreeError(f"zeroed must be a JSON list, got {type(zeroed).__name__}")
    for value in parents.values():
        _json_int(value, "each parent id")
    for z in zeroed:
        _json_int(z, "each zeroed id")
    if not all(isinstance(c, str) for c in colors.values()):
        raise TreeError("each color must be a JSON string")
    try:
        for key in (*parents, *colors):
            if key != str(int(key)):  # "03", "+3", " 3" or "0_3" would alias 3
                raise TreeError(f"node id {key!r} is not written as a plain integer")
        tree = ColoredTree(
            n_leaves=n_leaves, parent=parents, color=colors, zeroed=zeroed
        )
    except TreeError:
        raise
    except ValueError as exc:  # a node id key that is not an integer
        raise TreeError(f"malformed tree document: {exc}") from exc
    internal = tree.internal_nodes()
    n = tree.n_leaves
    if internal != list(range(n + 1, n + 1 + len(internal))):
        raise TreeError("internal nodes must be labeled contiguously n+1..m")
    return tree


def load_tree(path) -> ColoredTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())
