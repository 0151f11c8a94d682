"""Deterministic random colored-zeroed trees for the tests and the sweep script.

The generator mixes coloring and zeroing modes so the sweep exercises every
classification outcome:

* leaf colors: all distinct / shared among siblings (vertex-regular cases) /
  shared arbitrarily (mostly non-vertex-regular);
* internal colors: all distinct / one adjacent parent-child merge /
  one non-adjacent merge;
* zeroing: none / an ancestor-closed set below the top node on a topology
  with a single leaf under the top (produces star block graphs) / an
  arbitrary subset (mostly non-block).

It imports no test framework, so scripts can use it too.
"""

from __future__ import annotations

import random

from treetoric.trees import ColoredTree


def _random_topology(rng: random.Random, n: int) -> dict[int, int]:
    """Parent map of a random rooted tree with internal degrees >= 2."""
    active = list(range(1, n + 1))
    next_id = n + 1
    parent: dict[int, int] = {}
    while len(active) > 1:
        k = 2 if rng.random() < 0.7 else rng.randint(2, len(active))
        rng.shuffle(active)
        group, active = active[:k], active[k:]
        for node in group:
            parent[node] = next_id
        active.append(next_id)
        next_id += 1
    parent[active[0]] = 0
    return parent


def _block_friendly_topology(rng: random.Random, n: int) -> dict[int, int]:
    """Topology whose top node has exactly one leaf child and one internal
    child, so ancestor-closed zeroing below the top yields star block graphs."""
    if n < 3:
        return _random_topology(rng, n)
    inner = _random_topology(rng, n - 1)  # leaves 1..n-1, internals from n

    def remap(v: int) -> int:
        return v + 1 if v >= n else v  # internal ids shift past the new leaf n

    parent = {remap(c): remap(p) if p != 0 else 0 for c, p in inner.items()}
    top_old = next(i for i, p in parent.items() if p == 0)
    new_top = max(parent) + 1
    parent[top_old] = new_top
    parent[n] = new_top  # leaf n sits directly under the new top
    parent[new_top] = 0
    return parent


def random_tree(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 8,
    leaf_mode: str | None = None,
    internal_mode: str | None = None,
    zero_mode: str | None = None,
) -> ColoredTree:
    leaf_mode = leaf_mode or rng.choice(["distinct", "siblings", "random"])
    internal_mode = internal_mode or rng.choice(
        ["distinct", "distinct", "distinct", "adjacent", "nonadjacent"]
    )
    zero_mode = zero_mode or rng.choice(["none", "chain", "chain", "random"])

    n = rng.randint(n_min, n_max)
    if zero_mode == "chain":
        parent = _block_friendly_topology(rng, n)
    else:
        parent = _random_topology(rng, n)

    nodes = sorted(parent)
    internal = [i for i in nodes if i > n]
    top = next(i for i, p in parent.items() if p == 0)

    zeroed: set[int] = set()
    if zero_mode == "random" and len(internal) > 1:
        pool = [i for i in internal if i != top]
        zeroed = {i for i in pool if rng.random() < 0.4}
    elif zero_mode == "chain" and len(internal) > 1:
        children: dict[int, list[int]] = {}
        for c, p in parent.items():
            children.setdefault(p, []).append(c)
        entry = [c for c in children[top] if c in set(internal)]
        if entry:
            frontier = [entry[0]]
            while frontier:
                node = frontier.pop()
                zeroed.add(node)
                for c in children.get(node, []):
                    if c in set(internal) and rng.random() < 0.5:
                        frontier.append(c)

    color: dict[int, str] = {}
    if leaf_mode == "distinct":
        for i in range(1, n + 1):
            color[i] = f"L{i}"
    elif leaf_mode == "siblings":
        for i in range(1, n + 1):
            color[i] = f"P{parent[i]}" if rng.random() < 0.5 else f"L{i}"
    else:
        tokens = [f"L{k}" for k in range(1, max(2, n // 2) + 1)]
        for i in range(1, n + 1):
            color[i] = rng.choice(tokens)

    for i in internal:
        if i not in zeroed:
            color[i] = f"I{i}"
    live = [i for i in internal if i not in zeroed]
    if internal_mode == "adjacent":
        cands = [
            (i, parent[i]) for i in live if parent[i] in live and parent[i] != 0
        ]
        if cands:
            child, par = rng.choice(cands)
            color[child] = color[par]
    elif internal_mode == "nonadjacent":
        cands = [
            (i, j)
            for i in live
            for j in live
            if i < j and parent[i] != j and parent[j] != i
        ]
        if cands:
            i, j = rng.choice(cands)
            color[j] = color[i]

    return ColoredTree(n_leaves=n, parent=parent, color=color, zeroed=zeroed)
