"""Seeded corpora of tree documents for the benchmark workloads.

The generators live here, not in the program or its tests, so that the
inputs stay fixed while the program changes.  Each corpus is a list of JSON
tree documents; the program only ever sees these documents.

A tree is drawn from four factors: the leaf count n, a leaf-coloring mode,
an internal-coloring mode and a zeroing mode.  The corpus comes in rounds,
as many as a run asks for: each round holds one tree for every combination
of n, leaf mode and zeroing mode, in an order shuffled by the seed, and the
internal mode runs through its values in shuffled cycles.  Within a round the topology shapes are
spread evenly too (see ``_topology``).  Per-tree cost depends mostly on
these, so a run of whole rounds has nearly the same cost profile under
every seed, and seeds change only the details of each tree.

Modes (the mix of the acceptance sweep):

* leaf colors: ``distinct``; ``siblings`` (a leaf takes its parent's token
  with probability 1/2, which keeps complete graphs vertex-regular);
  ``random`` (tokens shared arbitrarily, mostly not vertex-regular);
* internal colors: ``distinct``; ``adjacent`` (one parent-child pair
  shares a token); ``nonadjacent`` (two unrelated nodes share one);
* zeroing: ``none``; ``chain`` (an ancestor-closed set below the top, on a
  topology with one leaf under the top, giving star block graphs);
  ``random`` (an arbitrary subset, mostly not block).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

SHAPE_DRAWS = 4


@dataclass(frozen=True)
class Mix:
    """The factor values one workload draws its trees from.

    A value listed twice is drawn twice as often.
    """

    n_values: tuple[int, ...]
    leaf_modes: tuple[str, ...]
    internal_modes: tuple[str, ...]
    zero_modes: tuple[str, ...]

    def cells(self) -> list[tuple[int, str, str]]:
        """The (n, leaf mode, zeroing mode) combinations of one round."""
        return list(itertools.product(self.n_values, self.leaf_modes, self.zero_modes))


SWEEP_MIX = Mix(
    n_values=tuple(range(2, 9)),
    leaf_modes=("distinct", "siblings", "random"),
    internal_modes=("distinct", "distinct", "distinct", "adjacent", "nonadjacent"),
    zero_modes=("none", "chain", "chain", "random"),
)

GENERATE_MIX = Mix(
    n_values=tuple(range(6, 15)),
    leaf_modes=SWEEP_MIX.leaf_modes,
    internal_modes=SWEEP_MIX.internal_modes,
    zero_modes=SWEEP_MIX.zero_modes,
)


def _cycled(rng: random.Random, values: tuple, count: int) -> list:
    """``count`` draws: whole shuffled copies of ``values``, then a cut."""
    out: list = []
    while len(out) < count:
        cycle = list(values)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]


def _random_topology(rng: random.Random, n: int) -> dict[int, int]:
    """Parent map of a random rooted tree with internal degrees >= 2.

    Internal ids are assigned in creation order, so they run n+1..m.
    """
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


def _one_leaf_under_top(rng: random.Random, n: int) -> dict[int, int]:
    """Topology whose top node has leaf n and one internal node as children."""
    if n < 3:
        return _random_topology(rng, n)
    inner = _random_topology(rng, n - 1)

    def shift(v: int) -> int:
        return v + 1 if v >= n else v

    parent = {shift(c): shift(p) if p else 0 for c, p in inner.items()}
    old_top = next(i for i, p in parent.items() if p == 0)
    new_top = max(parent) + 1
    parent[old_top] = new_top
    parent[n] = new_top
    parent[new_top] = 0
    return parent


def _topology(rng: random.Random, n: int, zero_mode: str, rank: int) -> dict[int, int]:
    """The ``rank``-th of ``SHAPE_DRAWS`` random topologies by node count.

    Fewer internal nodes mean larger multifurcations and more unresolved
    quartets, hence more generators and a slower tree.  A rank that cycles
    evenly keeps the distribution of a single draw while spreading slow and
    fast shapes evenly over the rounds.
    """
    draw = _one_leaf_under_top if zero_mode == "chain" else _random_topology
    candidates = sorted((draw(rng, n) for _ in range(SHAPE_DRAWS)), key=len)
    return candidates[rank]


def tree_document(
    rng: random.Random,
    n: int,
    leaf_mode: str,
    internal_mode: str,
    zero_mode: str,
    rank: int,
) -> dict:
    """One random tree document with the given factor and shape rank."""
    parent = _topology(rng, n, zero_mode, rank)
    internal = sorted(i for i in parent if i > n)
    top = next(i for i, p in parent.items() if p == 0)
    children: dict[int, list[int]] = {}
    for c, p in sorted(parent.items()):
        children.setdefault(p, []).append(c)

    zeroed: set[int] = set()
    if zero_mode == "random":
        zeroed = {i for i in internal if i != top and rng.random() < 0.4}
    elif zero_mode == "chain":
        entry = [c for c in children[top] if c > n]
        frontier = entry[:1]
        while frontier:
            node = frontier.pop()
            zeroed.add(node)
            frontier.extend(
                c for c in children.get(node, []) if c > n and rng.random() < 0.5
            )

    color: dict[int, str] = {}
    if leaf_mode == "distinct":
        for i in range(1, n + 1):
            color[i] = f"L{i}"
    elif leaf_mode == "siblings":
        for i in range(1, n + 1):
            color[i] = f"P{parent[i]}" if rng.random() < 0.5 else f"L{i}"
    elif leaf_mode == "random":
        tokens = [f"L{k}" for k in range(1, max(2, n // 2) + 1)]
        for i in range(1, n + 1):
            color[i] = rng.choice(tokens)
    else:
        raise ValueError(f"unknown leaf mode {leaf_mode!r}")

    live = [i for i in internal if i not in zeroed]
    for i in live:
        color[i] = f"I{i}"
    if internal_mode == "adjacent":
        pairs = [(i, parent[i]) for i in live if parent[i] in live]
        if pairs:
            child, par = rng.choice(pairs)
            color[child] = color[par]
    elif internal_mode == "nonadjacent":
        pairs = [
            (i, j)
            for i in live
            for j in live
            if i < j and parent[i] != j and parent[j] != i
        ]
        if pairs:
            i, j = rng.choice(pairs)
            color[j] = color[i]
    elif internal_mode != "distinct":
        raise ValueError(f"unknown internal mode {internal_mode!r}")

    return {
        "n_leaves": n,
        "parents": {str(k): v for k, v in sorted(parent.items())},
        "colors": {str(k): v for k, v in sorted(color.items())},
        "zeroed": sorted(zeroed),
    }


def rounds(mix: Mix, seed: int) -> Iterator[list[str]]:
    """Endless rounds of JSON tree documents; the same seed gives the same rounds."""
    rng = random.Random(seed)
    cells = mix.cells()
    order = list(range(len(cells)))
    for r in itertools.count():
        internal = _cycled(rng, mix.internal_modes, len(cells))
        rng.shuffle(order)
        docs = []
        for c, internal_mode in zip(order, internal):
            n, leaf_mode, zero_mode = cells[c]
            rank = (c + r) % SHAPE_DRAWS
            doc = tree_document(rng, n, leaf_mode, internal_mode, zero_mode, rank)
            docs.append(json.dumps(doc, sort_keys=True))
        yield docs


def fingerprint(docs: list[str]) -> str:
    """Short hash of a corpus, to show that two runs used the same inputs."""
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(doc.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def n_histogram(docs: list[str]) -> dict[int, int]:
    counts = Counter(json.loads(doc)["n_leaves"] for doc in docs)
    return dict(sorted(counts.items()))
