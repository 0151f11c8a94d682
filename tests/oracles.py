"""Independent oracles for the tests: slow, obviously-correct second
implementations that the package's own algorithms must agree with, and
constructions only the tests use (the vertex-regular completion)."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from treetoric.binomials import Binomial, Monomial, coord_var, monomial, var_name
from treetoric.classify import ClassificationReport
from treetoric.errors import SamplingError, SingularMatrixError
from treetoric.graphs import ColoredGraph, derive_graph, one_clique_separated_quadruples
from treetoric.ideals import cherry_binomials
from treetoric.matrices import (
    SAMPLE_BOUND,
    SAMPLE_RETRIES,
    MatrixPattern,
    SymMatrix,
    pattern_contains,
    pattern_from_graph,
)
from treetoric.pipeline import ROUNDTRIP_BOUND, VerificationContext, _trial_seed
from treetoric.trees import ColoredTree


def adjugate(rows) -> list[list[Fraction]]:
    """Adjugate by cofactors: adj(M)[i][j] = (-1)^(i+j) det(M without row j, col i).

    O(n!) determinant recursion; defined for singular matrices too.
    """
    n = len(rows)
    adj = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            adj[i][j] = (-1) ** (i + j) * det_cofactor(minor)
    return adj


def adjugate_inverse(rows) -> list[list[Fraction]]:
    """Inverse via cofactor expansion, adj(M) / det(M).

    An independent oracle for the elimination-based inverse.
    """
    d = det_cofactor(rows)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    return [[x / d for x in row] for row in adjugate(rows)]


def det_cofactor(rows) -> Fraction:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def minor_by_make(kind: str, i: int, j: int, k: int, l: int) -> Binomial:
    """x_ik x_jl - x_il x_jk from variable lists, via ``monomial`` (which
    sorts and merges repeats) and ``Binomial.make`` (which orders the two)."""
    return Binomial.make(
        monomial([coord_var(kind, i, k), coord_var(kind, j, l)]),
        monomial([coord_var(kind, i, l), coord_var(kind, j, k)]),
    )


def generators_doc(gens: list[Binomial], kind: str) -> dict:
    """The generators document as a dict, the form it had before
    ``ideals.generators_json`` rendered it directly: each generator's
    monomials as lists of ``(name, exponent)`` pairs."""
    return {
        "coordinates": kind,
        "count": len(gens),
        "generators": [
            {
                "plus": [(var_name(v), e) for v, e in b.lead],
                "minus": [(var_name(v), e) for v, e in b.trail],
            }
            for b in gens
        ],
    }


# -------------------------------------------------------------------- #
# the sigma-variable construction, the reference for the p/q families    #
# -------------------------------------------------------------------- #


def embed(b: Binomial, kind: str) -> Binomial:
    """sigma_ij -> x_ij, sigma_ii -> x_0i for x = p or q.

    Renames every variable, re-sorts each monomial and re-orders the two
    with ``Binomial.make``.  The renaming is injective on sigma-variables
    over the 1-based vertices, so the binomial cannot degenerate.
    """

    def rename(m: Monomial) -> Monomial:
        out = []
        for v, e in m:
            s, i, j = v
            if s != "s":
                raise ValueError(f"variable {var_name(v)} is not a sigma-variable")
            out.append((coord_var(kind, 0 if i == j else i, j), e))
        return tuple(sorted(out))

    return Binomial.make(rename(b.lead), rename(b.trail))


def sigma_block_minors(g: ColoredGraph) -> set[Binomial]:
    """sigma_ik sigma_jl - sigma_il sigma_jk for every separated pairing."""
    return {
        minor_by_make("s", i, j, k, l)
        for (i, j), (k, l) in one_clique_separated_quadruples(g)
    }


def sigma_completion_linears(g: ColoredGraph) -> set[Binomial]:
    """sigma_ik - sigma_jk and sigma_ii - sigma_jj for same-colored i, j."""
    out: set[Binomial] = set()
    for verts in g.vertex_color_classes().values():
        for i, j in combinations(verts, 2):
            for k in g.vertices():
                if k not in (i, j):
                    out.add(Binomial.make(
                        monomial([coord_var("s", i, k)]),
                        monomial([coord_var("s", j, k)]),
                    ))
            out.add(Binomial.make(
                monomial([coord_var("s", i, i)]),
                monomial([coord_var("s", j, j)]),
            ))
    return out


def combined_via_sigma(report: ClassificationReport) -> list[Binomial]:
    """The generators as first built: the block minors and completion
    linears in sigma-variables, each embedded into the report's coordinate
    kind, united with the cherry quadrics and sorted."""
    kind = report.coordinates
    sigma = sigma_block_minors(report.graph) | sigma_completion_linears(report.graph)
    return sorted(set(cherry_binomials(report.working_tree)) | {embed(b, kind) for b in sigma})


def connected_components(g: ColoredGraph, removed: int | None = None) -> list[set[int]]:
    """Connected components by depth-first search, optionally with one
    vertex deleted."""
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


def star_decomposition_oracle(
    g: ColoredGraph,
) -> tuple[int, list[tuple[int, ...]]] | None:
    """Star test by components: one vertex c adjacent to all others, and
    every component of g - c a clique, which it is iff each of its vertices
    has degree (in g) equal to its size.  A complete graph is one clique
    centred at vertex 1.  The reference for ``graphs.star_decomposition``,
    which reads the same answer off closed neighbourhoods."""
    if g.is_complete():
        return 1, [tuple(g.vertices())]
    full = [v for v in g.vertices() if g.degree(v) == g.n - 1]
    if len(full) != 1:
        return None
    c = full[0]
    cliques = []
    for comp in connected_components(g, removed=c):
        if any(g.degree(v) != len(comp) for v in comp):
            return None
        cliques.append(tuple(sorted(comp | {c})))
    return c, sorted(cliques)


def _distances(g: ColoredGraph) -> dict[int, dict[int, int]]:
    dist: dict[int, dict[int, int]] = {}
    for source in g.vertices():
        d = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.neighbors(v):
                    if u not in d:
                        d[u] = d[v] + 1
                        nxt.append(u)
            frontier = nxt
        dist[source] = d
    return dist


def four_point_check(g: ColoredGraph) -> bool:
    """Distance characterization of block graphs.

    For every vertex quadruple (within a connected component) the larger two
    of d(u,v)+d(w,x), d(u,w)+d(v,x), d(u,x)+d(v,w) must agree.  Independent
    of ``graphs.star_decomposition``, which must agree with it on every
    derived graph.
    """
    dist = _distances(g)
    for comp in connected_components(g):
        for u, v, w, x in combinations(sorted(comp), 4):
            sums = sorted(
                (
                    dist[u][v] + dist[w][x],
                    dist[u][w] + dist[v][x],
                    dist[u][x] + dist[v][w],
                )
            )
            if sums[1] != sums[2]:
                return False
    return True


# -------------------------------------------------------------------- #
# tree walks, the reference for the leaf-pair lca table and path map     #
# -------------------------------------------------------------------- #


def gamma_weights_oracle(g: ColoredGraph) -> dict[tuple[int, int], dict]:
    """Gamma(G)'s edge weights by the two-list rule: the root edge {0,i}
    subtracts q_ij over the non-full-degree j when deg(i) = n-1, and over
    the full-degree j != i otherwise."""
    n = g.n
    full = [j for j in g.vertices() if g.degree(j) == n - 1]
    not_full = [j for j in g.vertices() if g.degree(j) < n - 1]
    weights: dict[tuple[int, int], dict] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            weights[(i, j)] = {(i, j): 1 if (i, j) in g.edges else -1}
    for i in g.vertices():
        form = {(0, i): 1}
        for j in not_full if i in full else full:
            if j != i:
                key = (min(i, j), max(i, j))
                form[key] = form.get(key, 0) - 1
        weights[(0, i)] = form
    return weights


def ancestors(t: ColoredTree, i: int) -> list[int]:
    """Path from i up to the root 0, inclusive on both ends."""
    out = [i]
    while out[-1] != 0:
        out.append(t.parent[out[-1]])
    return out


def lca_oracle(t: ColoredTree, i: int, j: int) -> int:
    """Deepest element of the intersection of the two ancestor sets."""
    anc_i = ancestors(t, i)
    anc_j = set(ancestors(t, j))
    return next(a for a in anc_i if a in anc_j)


def bfs_path_oracle(t: ColoredTree, i: int, j: int) -> list[int]:
    """Vertex sequence of the i-j path by BFS on the undirected tree."""
    adj: dict[int, list[int]] = {0: []}
    for c, p in t.parent.items():
        adj.setdefault(c, []).append(p)
        adj.setdefault(p, []).append(c)
    prev = {i: None}
    frontier = [i]
    while j not in prev:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in prev:
                    prev[u] = v
                    nxt.append(u)
        frontier = nxt
    path = [j]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def depth_oracle(t: ColoredTree, i: int) -> int:
    """Edges from i up to the root 0."""
    return len(ancestors(t, i)) - 1


def path_row_oracle(t: ColoredTree, params: tuple[str, ...], i: int, j: int) -> tuple:
    """Path-map row of x_ij: color counts over the BFS path's vertices,
    leaving out their lca and the zeroed nodes."""
    top = lca_oracle(t, i, j)
    counts = Counter(
        t.color[v] for v in bfs_path_oracle(t, i, j) if v != top and v not in t.zeroed
    )
    return tuple(counts[p] for p in params)


def pattern_from_tree(t: ColoredTree) -> MatrixPattern:
    """The tree's pattern as the package builds it: the pattern of its
    derived graph, which reads entries off the tree's leaf-pair lca table."""
    return pattern_from_graph(derive_graph(t))


def pattern_from_lca(t: ColoredTree) -> MatrixPattern:
    """The tree's pattern read straight off the tree, as L_T is defined:
    entry (i,j) keyed by the color of lca(i,j), zero when that lca is zeroed."""
    n = t.n_leaves
    grid = [[None] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            anc = lca_oracle(t, i, j)
            token = None if anc in t.zeroed else t.color[anc]
            grid[i - 1][j - 1] = token
            grid[j - 1][i - 1] = token
    return MatrixPattern(size=n, classes=tuple(tuple(r) for r in grid))


def jordan_closed(pattern: MatrixPattern) -> bool:
    """Whether the pattern's space is closed under X o Y = (XY + YX)/2.

    The product is bilinear, so by polarization the space is closed iff X^2
    lies in it for the generic X = sum_c t_c E_c.  Entry (i,j) of X^2 is
    sum_k t_c(i,k) t_c(k,j), a multiset of unordered token pairs with no
    cancellation; X^2 lies in the space iff that multiset is empty at every
    structural zero and the same on all entries of one class.
    """
    classes = pattern.classes
    support = [[k for k, tok in enumerate(row) if tok is not None] for row in classes]
    square_of: dict[str, Counter] = {}
    for i, row in enumerate(classes):
        for j in range(i, pattern.size):
            square = Counter(
                tuple(sorted((row[k], classes[k][j])))
                for k in support[i]
                if classes[k][j] is not None
            )
            token = row[j]
            if token is None:
                if square:
                    return False
            elif square_of.setdefault(token, square) != square:
                return False
    return True


def jordan_closed_by_basis(pattern: MatrixPattern) -> bool:
    """Jordan closure from the class indicator matrices E_c.

    The product is bilinear and the E_c span the space, so the space is
    closed iff E_a E_b + E_b E_a lies in it for every pair of classes a <= b.
    Independent of :func:`jordan_closed`; the two must coincide.
    """
    n = pattern.size
    tokens = pattern.tokens()
    # positions[c][i]: the columns k with class c in row i
    positions = {c: [[] for _ in range(n)] for c in tokens}
    for i, row in enumerate(pattern.classes):
        for k, c in enumerate(row):
            if c is not None:
                positions[c][i].append(k)
    for ia, a in enumerate(tokens):
        for b in tokens[ia:]:
            # E_b E_a is the transpose of P = E_a E_b: accumulate P + P^T
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for k in positions[a][i]:
                    for j in positions[b][k]:
                        rows[i][j] += 1
                        rows[j][i] += 1
            if not pattern_contains(pattern, SymMatrix(tuple(map(tuple, rows)))):
                return False
    return True


def has_non_adjacent_internal_merge(t: ColoredTree) -> bool:
    """Some non-zeroed internal color class is not connected under parent
    edges: union-find over the parent edges inside each class, and a class
    is non-adjacent iff its members have more than one root.  The case in
    which ``contract_internal_colors`` raises ``TreeError``."""
    color = {v: t.color[v] for v in t.parent if v > t.n_leaves and v not in t.zeroed}
    root = {v: v for v in color}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for v in color:
        if color.get(t.parent[v]) == color[v]:
            root[find(v)] = find(t.parent[v])
    return len({(color[v], find(v)) for v in color}) > len(set(color.values()))


def vertex_regular_via_parents(t: ColoredTree) -> bool:
    """Parent criterion: same-colored leaves share a parent.

    Equivalent to vertex-regularity of the derived graph when no node is
    zeroed and internal colors are distinct.
    """
    by_color: dict[str, set[int]] = {}
    for i in t.leaves():
        by_color.setdefault(t.color[i], set()).add(t.parent[i])
    return all(len(parents) == 1 for parents in by_color.values())


# -------------------------------------------------------------------- #
# the Fraction verification checks, the reference for the integer ones   #
# -------------------------------------------------------------------- #


def fraction_inverse(rows) -> list[list[Fraction]] | None:
    """Inverse by textbook Gauss-Jordan over ``Fraction``; None if singular."""
    n = len(rows)
    work = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return None
        work[c], work[piv] = work[piv], work[c]
        p = work[c][c]
        work[c] = [x / p for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return [row[n:] for row in work]


def sample_point_reference(pattern: MatrixPattern, seed: int) -> SymMatrix:
    """The point K of ``matrices.sample_projective``: its seeded draws,
    redrawn until a ``Fraction`` elimination finds the matrix invertible."""
    rng = random.Random(seed)
    tokens = pattern.tokens()
    for _ in range(SAMPLE_RETRIES):
        values = {tok: rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for tok in tokens}
        m = SymMatrix(pattern.rows(values))
        if fraction_inverse(m.entries) is not None:
            return m
    raise SamplingError("no invertible sample")


def forward_vanishing_reference(
    ctx: VerificationContext, trials: int, seed: int, generators=None
) -> dict:
    """``pipeline.forward_vanishing`` at the exact rational point of K^{-1}."""
    gens = ctx.generators if generators is None else generators
    failures: list[dict] = []
    for k in range(trials):
        m = sample_point_reference(ctx.pattern, _trial_seed(seed, k))
        sigma = SymMatrix(fraction_inverse(m.entries))
        point = ctx.cmap.apply(sigma)
        for b in gens:
            value = b.evaluate(point)
            if value != 0:
                failures.append({"trial": k, "generator": b.text(), "value": str(value)})
    return {
        "check": "forward_vanishing",
        "trials": trials,
        "generators": len(gens),
        "failures": failures,
        "passed": not failures,
    }


def roundtrip_reference(ctx: VerificationContext, trials: int, seed: int) -> dict:
    """``pipeline.roundtrip_parametrization`` on the rational path-map point."""
    failures: list[int] = []
    skipped = 0
    for k in range(trials):
        rng = random.Random(_trial_seed(seed, k))
        theta = {
            tok: Fraction(rng.randint(1, ROUNDTRIP_BOUND)) for tok in ctx.mmap.params
        }
        sigma = ctx.cmap.unapply(ctx.mmap.evaluate(theta))
        inverse = fraction_inverse(sigma.entries)
        if inverse is None:
            skipped += 1
            continue
        if not pattern_contains(ctx.pattern, SymMatrix(inverse)):
            failures.append(k)
    return {
        "check": "roundtrip_parametrization",
        "trials": trials,
        "skipped_singular": skipped,
        "failures": failures,
        "passed": not failures,
    }


def completion(g: ColoredGraph) -> ColoredGraph:
    """Vertex-regular completion: complete graph carrying only the vertex
    symmetries of g.

    Edge classes are the finest partition of all pairs closed under
    "same-colored vertices i,j force {i,k} ~ {j,k} for every k".  That is
    the partition by the color pair {color i, color j}: the rule keeps the
    pair, and connects all edges carrying it.  Between two color classes
    it moves one end at a time; inside one class of m >= 3 vertices it
    links the pairs as in the Johnson graph J(m,2), which is connected.
    Each class is named after its least pair (i,j) as ``E{i}_{j}``, with
    the prefix lengthened to ``EE``, ``EEE``, ... until no vertex token
    starts with it, so edge and vertex tokens never meet.
    """
    prefix = "E"
    while any(c.startswith(prefix) for c in g.vertex_color.values()):
        prefix += "E"
    color = g.vertex_color
    least: dict[frozenset[str], tuple[int, int]] = {}
    edge_color = {}
    for i, j in combinations(g.vertices(), 2):  # lexicographic: least pair first
        a, b = least.setdefault(frozenset((color[i], color[j])), (i, j))
        edge_color[(i, j)] = f"{prefix}{a}_{b}"
    return ColoredGraph(n=g.n, vertex_color=color, edge_color=edge_color)
