"""Derived graphs, structural predicates, completions and separations."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric.classify import contract_internal_colors
from treetoric.errors import GraphError, TreeError
from treetoric.graphs import (
    ColoredGraph,
    derive_graph,
    edge,
    is_vertex_regular,
    one_clique_separated_quadruples,
    star_decomposition,
)
from treetoric.trees import parse_tree

from conftest import fixture_tree, random_tree
from oracles import (
    completion,
    connected_components,
    four_point_check,
    has_non_adjacent_internal_merge,
    star_decomposition_oracle,
    vertex_regular_via_parents,
)


def make_graph(n, edges):
    """Uncolored helper: distinct vertex colors, distinct edge colors."""
    edges = [edge(*e) for e in edges]
    return ColoredGraph(
        n=n,
        vertex_color={v: f"v{v}" for v in range(1, n + 1)},
        edge_color={e: f"e{e[0]}_{e[1]}" for e in edges},
    )


def complete_graph(n):
    return make_graph(n, combinations(range(1, n + 1), 2))


def random_graph(rng, n_max=9):
    n = rng.randint(1, n_max)
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
    return make_graph(n, edges)


# ------------------------------------------------------------------ #
# oracles                                                              #
# ------------------------------------------------------------------ #


def completion_closure_oracle(g):
    """Naive fixed-point closure over edge-class pairs."""
    classes = {frozenset({e}) for e in (edge(*p) for p in combinations(g.vertices(), 2))}

    def class_of(classes, e):
        return next(c for c in classes if e in c)

    changed = True
    while changed:
        changed = False
        for verts in g.vertex_color_classes().values():
            for i, j in combinations(verts, 2):
                for k in g.vertices():
                    if k in (i, j):
                        continue
                    a = class_of(classes, edge(i, k))
                    b = class_of(classes, edge(j, k))
                    if a != b:
                        classes = (classes - {a, b}) | {a | b}
                        changed = True
    return classes


def minor_quadruples_oracle(g):
    """All separated pairings via exhaustive bipartition enumeration."""
    out = set()
    for c in g.vertices():
        comps = connected_components(g, removed=c)
        if len(comps) < 2:
            continue
        for split in range(1, 2 ** len(comps) - 1):
            side_a = set()
            side_b = set()
            for idx, comp in enumerate(comps):
                (side_a if split & (1 << idx) else side_b).update(comp)
            rows = sorted(side_a | {c})
            cols = sorted(side_b | {c})
            for p1 in combinations(rows, 2):
                for p2 in combinations(cols, 2):
                    if set(p1) & set(p2) - {c}:
                        continue
                    out.add((min(p1, p2), max(p1, p2)))
    return out


# ------------------------------------------------------------------ #
# derivation                                                           #
# ------------------------------------------------------------------ #


class TestDeriveGraph:
    def test_colored_star(self):
        g = derive_graph(fixture_tree("colored_star"))
        assert sorted(g.edges) == [(1, 2), (1, 4), (2, 4), (3, 4)]
        assert g.edge_color[(1, 2)] == "red"
        assert g.edge_color[(1, 4)] == g.edge_color[(2, 4)] == g.edge_color[(3, 4)] == "blue"
        assert g.vertex_color[1] == g.vertex_color[2]

    def test_no_zeroing_gives_complete_graph(self):
        g = derive_graph(fixture_tree("uncolored_binary"))
        assert g.is_complete()
        assert len(set(g.vertex_color.values())) == 4
        assert len(set(g.edge_color.values())) == 3  # one per internal node

    def test_block_g2_star(self):
        g = derive_graph(fixture_tree("zeroed_block_g2"))
        assert sorted(g.edges) == [(1, 2), (1, 4), (2, 4), (3, 4)]

    def test_derived_graph_always_connected(self):
        # the lemma in classify's docstring, on raw and contracted trees:
        # every derived graph is connected, and a zeroed tree's block
        # derived graph is a star centred at the tree's center leaf
        rng = random.Random(7)
        stars = 0
        for _ in range(100):
            t = random_tree(rng)
            trees = [t]
            if not has_non_adjacent_internal_merge(t):
                trees.append(contract_internal_colors(t))
            for tree in trees:
                g = derive_graph(tree)
                assert len(connected_components(g)) == 1, tree.to_dict()
                if tree.zeroed and four_point_check(g):
                    star = star_decomposition(g)
                    assert star is not None, tree.to_dict()
                    assert star[0] == tree.center_leaf(), tree.to_dict()
                    stars += 1
        assert stars >= 30  # the sweep actually exercised the star case


class TestVertexRegular:
    def test_g1_regular(self):
        assert is_vertex_regular(derive_graph(fixture_tree("leafcolor_g1")))

    def test_g3_not_regular(self):
        assert not is_vertex_regular(derive_graph(fixture_tree("leafcolor_g3")))

    def test_distinct_colors_vacuous(self):
        assert is_vertex_regular(derive_graph(fixture_tree("uncolored_binary")))

    def test_via_parents_examples(self):
        assert vertex_regular_via_parents(fixture_tree("leafcolor_g1"))
        # same color on leaves under different parents
        t = fixture_tree("leafcolor_g3")
        assert not vertex_regular_via_parents(t)

    def test_parent_criterion_equals_graph_predicate(self):
        # Z = empty, distinct internal colors: the two independent
        # implementations must agree (200 random trees).
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            t = random_tree(
                rng, zero_mode="none", internal_mode="distinct"
            )
            assert is_vertex_regular(derive_graph(t)) == vertex_regular_via_parents(t)
            checked += 1


class TestBlock:
    def test_g2_block_both_ways(self):
        g = derive_graph(fixture_tree("zeroed_block_g2"))
        assert star_decomposition(g) is not None and four_point_check(g)

    def test_g3_not_block_both_ways(self):
        g = derive_graph(fixture_tree("zeroed_block_g3"))
        assert star_decomposition(g) is None and not four_point_check(g)

    def test_complete_graphs(self):
        for n in range(1, 6):
            assert star_decomposition(complete_graph(n)) == (1, [tuple(range(1, n + 1))])

    def test_long_path_beyond_recursion_limit(self):
        # large graphs: a 1200-vertex path is a block graph but not a star,
        # and a star with 1200 leaves is found at its center
        n = 1200
        assert star_decomposition(make_graph(n, [(i, i + 1) for i in range(1, n)])) is None
        g = make_graph(n + 1, [edge(v, 600) for v in range(1, n + 2) if v != 600])
        center, cliques = star_decomposition(g)
        assert center == 600 and len(cliques) == n

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6))
    def test_two_characterizations_agree(self, seed):
        # a block graph with a vertex adjacent to all others is a star:
        # every block contains that vertex
        g = random_graph(random.Random(seed))
        star = star_decomposition(g)
        universal = any(g.degree(v) == g.n - 1 for v in g.vertices())
        assert (star is not None) == (four_point_check(g) and universal)
        assert star is None or g.degree(star[0]) == g.n - 1


class TestStarDecomposition:
    def test_colored_star(self):
        g = derive_graph(fixture_tree("colored_star"))
        assert star_decomposition(g) == (4, [(1, 2, 4), (3, 4)])

    def test_complete_graph_tiebreak(self):
        center, cliques = star_decomposition(complete_graph(4))
        assert center == 1
        assert cliques == [(1, 2, 3, 4)]

    def test_path_graph(self):
        g = make_graph(3, [(1, 3), (2, 3)])
        assert star_decomposition(g) == (3, [(1, 3), (2, 3)])

    def test_long_path_is_not_a_star(self):
        g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
        assert star_decomposition(g) is None

    def test_requires_block(self):
        cycle = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert star_decomposition(cycle) is None

    def test_derived_block_graphs_are_stars(self):
        # structural consequence: zeroed tree with block derived graph
        # always decomposes as a star
        rng = random.Random(99)
        hits = 0
        for _ in range(300):
            t = random_tree(rng)
            g = derive_graph(t)
            if t.zeroed and four_point_check(g):
                assert star_decomposition(g) is not None
                hits += 1
        assert hits >= 30  # the sweep actually exercised the case

    def test_center_is_center_leaf_of_zeroed_trees(self):
        # the star center is the leaf right under the top node, on raw and
        # on contracted trees alike
        rng = random.Random(2026)
        hits = {"raw": 0, "contracted": 0}
        for _ in range(400):
            t = random_tree(rng, zero_mode=rng.choice(["chain", "random"]))
            if not t.zeroed:
                continue
            trees = {"raw": t}
            if not has_non_adjacent_internal_merge(t):
                trees["contracted"] = contract_internal_colors(t)
            for kind, tree in trees.items():
                star = star_decomposition(derive_graph(tree))
                if star is not None:
                    assert star[0] == tree.center_leaf(), tree.to_dict()
                    hits[kind] += 1
        assert min(hits.values()) >= 30, hits

    def test_every_small_graph_matches_component_oracle(self):
        # every labeled graph on 1-6 vertices: closed neighbourhoods against
        # the components of g - c, and on each star the separations by part
        # label against the bipartition enumeration
        graphs = stars = 0
        for n in range(1, 7):
            pairs = list(combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                g = make_graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
                star = star_decomposition(g)
                assert star == star_decomposition_oracle(g), sorted(g.edges)
                if star is not None:
                    got = one_clique_separated_quadruples(g)
                    assert got == minor_quadruples_oracle(g), sorted(g.edges)
                graphs += 1
                stars += star is not None
        assert (graphs, stars) == (33867, 401)


class TestContraction:
    @pytest.mark.parametrize("seed", [7, 11, 20240810])
    def test_matches_union_find_oracle(self, seed):
        # contraction raises exactly on non-adjacent internal color classes,
        # and a tree that contracts keeps its derived graph's colors
        rng = random.Random(seed)
        raised = contracted = 0
        for _ in range(600):
            t = random_tree(rng)
            try:
                c = contract_internal_colors(t)
            except TreeError:
                assert has_non_adjacent_internal_merge(t), t.to_dict()
                raised += 1
                continue
            assert not has_non_adjacent_internal_merge(t), t.to_dict()
            if c is not t:
                g, h = derive_graph(t), derive_graph(c)
                assert h.edge_color == g.edge_color, t.to_dict()
                assert h.vertex_color == g.vertex_color, t.to_dict()
                contracted += 1
        assert raised >= 30 and contracted >= 30, (raised, contracted)


class TestCompletion:
    def test_merges_rule_instances(self):
        g = derive_graph(fixture_tree("leafcolor_g1"))  # vertices 1,2 share
        comp = completion(g)
        assert comp.is_complete()
        assert comp.edge_color[(1, 3)] == comp.edge_color[(2, 3)]
        assert comp.edge_color[(1, 4)] == comp.edge_color[(2, 4)]
        assert comp.edge_color[(1, 2)] != comp.edge_color[(1, 3)]

    def test_distinct_colors_all_singletons(self):
        g = derive_graph(fixture_tree("uncolored_binary"))
        comp = completion(g)
        assert len(set(comp.edge_color.values())) == len(comp.edges)

    def test_three_way_merge(self):
        g = ColoredGraph(
            n=3,
            vertex_color={1: "a", 2: "a", 3: "a"},
            edge_color={(1, 2): "x", (1, 3): "y", (2, 3): "z"},
        )
        comp = completion(g)
        assert len(set(comp.edge_color.values())) == 1

    def test_edge_tokens_avoid_vertex_tokens(self):
        # leaf colors of the edge-token form E{i}_{j}, EE{i}_{j}, ...
        def classes(comp):
            out = {}
            for e, c in comp.edge_color.items():
                out.setdefault(c, set()).add(e)
            return set(map(frozenset, out.values()))

        doc = (
            '{"n_leaves":3,"parents":{"1":4,"2":4,"3":5,"4":5,"5":0},'
            '"colors":{"1":"%s","2":"%s","3":"c","4":"x","5":"y"}}'
        )
        plain = completion(derive_graph(parse_tree(doc % ("a", "b"))))
        for first, second in [("E1_3", "b"), ("E1_2", "EE1_3"), ("E", "b")]:
            comp = completion(derive_graph(parse_tree(doc % (first, second))))
            assert not set(comp.edge_color.values()) & set(comp.vertex_color.values())
            assert classes(comp) == classes(plain)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_fixed_point_oracle(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, leaf_mode="random")
        g = derive_graph(t)
        comp = completion(g)
        got = {}
        for e, c in comp.edge_color.items():
            got.setdefault(c, set()).add(e)
        assert set(map(frozenset, got.values())) == completion_closure_oracle(g)

    def test_every_small_coloring_matches_oracle(self):
        # the completion ignores edges, so edgeless graphs cover every input
        tokens = ("a", "b", "E1_2", "EE")
        for n in range(1, 7):
            for colors in product(tokens, repeat=n):
                g = ColoredGraph(n, dict(enumerate(colors, start=1)), {})
                comp = completion(g)
                got = {}
                for e, c in comp.edge_color.items():
                    got.setdefault(c, set()).add(e)
                assert set(map(frozenset, got.values())) == completion_closure_oracle(g)
                prefix = "E" * (1 + max(len(c) - len(c.lstrip("E")) for c in colors))
                for token, es in got.items():
                    assert token == "%s%d_%d" % (prefix, *min(es)), colors
                assert not set(got) & set(colors)


class TestSeparatedQuadruples:
    def test_complete_graph_empty(self):
        assert one_clique_separated_quadruples(complete_graph(4)) == set()

    def test_star_with_diagonal_cases(self):
        g = make_graph(4, [(1, 2), (1, 4), (2, 4), (3, 4)])
        quads = one_clique_separated_quadruples(g)
        assert ((1, 2), (3, 4)) in quads
        assert ((1, 4), (3, 4)) in quads  # diagonal: 4 in both pairs
        assert ((2, 4), (3, 4)) in quads
        assert ((1, 2), (1, 3)) not in quads

    def test_path_graph(self):
        g = make_graph(3, [(1, 3), (2, 3)])
        assert one_clique_separated_quadruples(g) == {((1, 3), (2, 3))}

    def test_matches_bipartition_oracle(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            t = random_tree(rng, zero_mode="chain", leaf_mode="distinct")
            g = derive_graph(t)
            if star_decomposition(g) is None:
                continue
            assert one_clique_separated_quadruples(g) == minor_quadruples_oracle(g)
            checked += 1

    def test_requires_block(self):
        cycle = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(GraphError):
            one_clique_separated_quadruples(cycle)

    def test_requires_connected(self):
        with pytest.raises(GraphError, match="star"):
            one_clique_separated_quadruples(make_graph(4, [(1, 2), (3, 4)]))
        with pytest.raises(GraphError, match="star"):
            one_clique_separated_quadruples(make_graph(3, [(1, 2)]))  # isolated 3
        assert one_clique_separated_quadruples(make_graph(1, [])) == set()

    def test_glued_cliques_match_bipartition_oracle(self):
        # block graphs: each new clique shares one vertex, its anchor, with
        # the graph built so far.  The anchors of the second and later
        # cliques are the cut vertices; one at most makes a star, whose
        # separations match the oracle, and two or more must raise
        rng = random.Random(12)
        for _ in range(80):
            n, edges, cuts = 1, [], set()
            for k in range(rng.randint(1, 5)):
                anchor = rng.randint(1, n)
                size = rng.randint(1, 3)
                clique = [anchor] + list(range(n + 1, n + 1 + size))
                edges += combinations(clique, 2)
                n += size
                if k:
                    cuts.add(anchor)
            g = make_graph(n, edges)
            if len(cuts) <= 1:
                assert one_clique_separated_quadruples(g) == minor_quadruples_oracle(g)
            else:
                with pytest.raises(GraphError):
                    one_clique_separated_quadruples(g)

    def test_random_graphs_raise_or_match_oracle(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_graph(rng, n_max=7)
            if star_decomposition(g) is not None:
                assert one_clique_separated_quadruples(g) == minor_quadruples_oracle(g)
            else:
                with pytest.raises(GraphError):
                    one_clique_separated_quadruples(g)


class TestValidation:
    @pytest.mark.parametrize("key", [(2, 1), (1, 1), (0, 1), (1, 4)])
    def test_non_canonical_edge_keys_rejected(self, key):
        # keys are validated, not rewritten: (2, 1) is not swapped to (1, 2)
        with pytest.raises(GraphError, match="invalid edge"):
            ColoredGraph(
                n=3,
                vertex_color={1: "a", 2: "b", 3: "c"},
                edge_color={key: "x"},
            )

    def test_boolean_endpoints_rejected(self):
        # True == 1, but an edge key names integer vertices
        with pytest.raises(GraphError, match="invalid edge"):
            ColoredGraph(2, {1: "a", 2: "b"}, {(True, 2): "x"})

    def test_shared_vertex_edge_tokens_rejected(self):
        with pytest.raises(GraphError, match="share color tokens"):
            ColoredGraph(
                n=2,
                vertex_color={1: "a", 2: "b"},
                edge_color={(1, 2): "a"},
            )
