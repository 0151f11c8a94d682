"""Independent oracles for the tests: slow, obviously-correct second
implementations that the package's own algorithms must agree with, and
constructions only the tests use (the vertex-regular completion)."""

from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from treetoric import linalg
from treetoric.binomials import Binomial, Monomial, coord_var, monomial, var_name
from treetoric.classify import ClassificationReport, coordinate_kind
from treetoric.errors import SamplingError, SingularMatrixError
from treetoric.graphs import ColoredGraph, derive_graph, one_clique_separated_quadruples
from treetoric.ideals import (
    _Builder,
    block_minor_binomials,
    completion_binomials,
)
from treetoric.laplacians import pq_index_pairs
from treetoric.matrices import (
    SAMPLE_BOUND,
    SAMPLE_RETRIES,
    MatrixPattern,
    SymMatrix,
    pattern_from_graph,
)
from treetoric.monomials import MonomialMap
from treetoric.pipeline import ROUNDTRIP_BOUND, VerificationContext, _trial_seed
from treetoric.trees import ColoredTree


def upper_of(rows) -> list:
    """The upper triangle of a square matrix's rows, column by column
    (column j from row 0 down to the diagonal): the format in which the
    package's sampling checks hold a symmetric matrix."""
    n = len(rows)
    return [rows[i][j] for j in range(n) for i in range(j + 1)]


def rows_of(n: int, upper) -> list[list]:
    """The rows of the symmetric n x n matrix with this upper triangle."""
    entries = iter(upper)
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1):
            rows[i][j] = rows[j][i] = next(entries)
    return rows


def batch_of_one(kernel, values: list) -> list:
    """An entry-major batch kernel (``kernel(entries)[k]`` lists result k
    of every item) on the one list ``values``: a batch of one."""
    return [x for (x,) in kernel([[v] for v in values])]


def contains_one(pattern: MatrixPattern, upper) -> bool:
    """``pattern.contains`` on one upper triangle, a batch of one."""
    (verdict,) = pattern.contains([[x] for x in upper])
    return verdict


def det_adjugate_list(n: int, uppers: list) -> list[tuple[int, list | None]]:
    """``linalg.det_adjugates`` on triangles listed matrix by matrix, its
    result as (det, adjugate triangle) per matrix, in order, with
    (0, None) for a singular one.  A batch of 0 x 0 matrices has no entry
    list to carry its size, and ``det_adjugates`` reads it as empty; each
    0 x 0 matrix has det 1 and the empty adjugate."""
    det, adj = linalg.det_adjugates(n, [list(entry) for entry in zip(*uppers)])
    if not n:
        assert (det, adj) == ([], [])
        return [(1, []) for _ in uppers]
    return [(x, list(y)) if x else (0, None) for x, y in zip(det, zip(*adj))]


class Sample(NamedTuple):
    """One seed's sample from ``matrices.sample_projectives``."""

    values: dict
    det: int
    adjugate: list


def by_seed(samples) -> list[Sample]:
    """The entry-major ``matrices.ProjectiveSamples``, seed by seed."""
    values = zip(*samples.values.values()) if samples.values else repeat(())
    return [
        Sample(dict(zip(samples.values, v)), det, list(adj))
        for v, det, adj in zip(values, samples.det, zip(*samples.adjugate))
    ]


def pattern_upper(pattern: MatrixPattern, values: dict) -> list:
    """The pattern's upper triangle (order ``linalg.upper_pairs``) with each
    token replaced by its value and zeros kept."""
    return [0 if tok is None else values[tok] for tok in pattern.classes]


def image_exponents(mm: MonomialMap, m: Monomial) -> tuple[int, ...]:
    """The parameter exponent vector of the image of a monomial, summed row
    by row from the exponent matrix: the reference for the packed images of
    ``MonomialMap.in_kernel``."""
    pairs = pq_index_pairs(mm.n)
    total = [0] * len(mm.params)
    for (kind, i, j), e in m:
        assert kind == mm.kind
        total = [t + e * r for t, r in zip(total, mm.rows[pairs.index((i, j))])]
    return tuple(total)


def pattern_of(grid) -> MatrixPattern:
    """The pattern whose symmetric n x n grid of classes is ``grid``."""
    classes = upper_of(grid)
    assert rows_of(len(grid), classes) == [list(row) for row in grid], grid
    return MatrixPattern(size=len(grid), classes=tuple(classes))


def pattern_rows(pattern: MatrixPattern, values: dict) -> list[list]:
    """The pattern's grid with each token replaced by its value and zeros kept."""
    return [
        [0 if tok is None else values[tok] for tok in row]
        for row in rows_of(pattern.size, pattern.classes)
    ]


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


def key_of(b: Binomial, n: int) -> int:
    """The integer key of a binomial over the indices 0..n, by the layout
    ``ideals._Builder`` documents: with M = 3 ((n + 1)^2 + 1), a monomial
    v1^e1 v2^e2 is (3 r1 + e1) M + 3 (r2 + 1) + e2, where x_ab has rank
    a (n + 1) + b, and lead - trail is lead M^2 + trail."""
    m = 3 * ((n + 1) ** 2 + 1)

    def part(mono: Monomial) -> int:
        digits = [3 * (v[1] * (n + 1) + v[2]) + e for v, e in mono]
        assert len(digits) <= 2, mono
        first = digits[0] * m if digits else 0
        return first + (digits[1] + 3 if len(digits) == 2 else 0)

    return part(b.lead) * m * m + part(b.trail)


# -------------------------------------------------------------------- #
# the binomial renderers, the reference for the key renderers            #
# -------------------------------------------------------------------- #


def generators_text_reference(gens: list[Binomial]) -> str:
    """One ``Binomial.text()`` line per generator."""
    return "".join(b.text() + "\n" for b in gens)


# The closing pieces of a generator's "minus" and "plus" arrays, indexed by
# whether the array was empty.
_MINUS_END = ('\n      ],\n      "plus": ', '[],\n      "plus": ')
_PLUS_END = ("\n      ]\n    }", "[]\n    }")


def generators_json_reference(gens: list[Binomial], kind: str) -> str:
    """The generators document rendered term by term from the binomials,
    as ``ideals.generators_json`` rendered it before generators were held
    as keys."""
    head = '{\n  "coordinates": ' + encode_basestring_ascii(kind)
    head += ',\n  "count": ' + str(len(gens)) + ',\n  "generators": '
    if not gens:
        return head + "[]\n}\n"
    frags: dict = {}
    out = [head + "["]
    opening = '\n    {\n      "minus": '
    for b in gens:
        out.append(opening)
        opening = ',\n    {\n      "minus": '
        for mono, ends in ((b.trail, _MINUS_END), (b.lead, _PLUS_END)):
            first = True
            for term in mono:
                pair = frags.get(term)
                if pair is None:
                    frag = (
                        "\n        [\n          "
                        + encode_basestring_ascii(var_name(term[0]))
                        + ",\n          "
                        + str(term[1])
                        + "\n        ]"
                    )
                    pair = frags[term] = ("," + frag, "[" + frag)
                out.append(pair[first])
                first = False
            out.append(ends[first])
    out.append("\n  ]\n}\n")
    return "".join(out)


def generators_m2_reference(gens: list[Binomial], kind: str, n: int) -> str:
    """The Macaulay2 script, one ``Binomial.text()`` per generator."""
    ring_vars = ", ".join(
        var_name(coord_var(kind, i, j)) for i, j in pq_index_pairs(n)
    )
    lines = [f"R = QQ[{ring_vars}];"]
    if gens:
        body = ",\n  ".join(b.text() for b in gens)
        lines.append(f"I = ideal(\n  {body}\n);")
    else:
        lines.append("I = ideal(0_R);")
    return "\n".join(lines) + "\n"


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


def cherry_reference(t: ColoredTree, *, into: _Builder | None = None) -> list:
    """The quartet quadrics as first built, one quadruple at a time: the
    three lca-depth sums compared, then each deepest pairing {i,j},{k,l}
    keyed by ``_Builder.minor`` (x_ik x_jl - x_il x_jk), which orders the
    monomials by comparing ranks.  Same signature and output as
    ``ideals.cherry_binomials``."""
    builder = into or _Builder(coordinate_kind(t), t.n_leaves)
    minor = builder.minor
    deep = {pair: t.depth(m) for pair, m in t.leaf_lca.items()}
    out: list[int] = []
    for a, b, c, d in combinations([0] + t.leaves(), 4):
        ab_cd = deep[a, b] + deep[c, d]
        ac_bd = deep[a, c] + deep[b, d]
        ad_bc = deep[a, d] + deep[b, c]
        high = max(ab_cd, ac_bd, ad_bc)
        if (ab_cd, ac_bd, ad_bc).count(high) == 2:
            raise AssertionError("two deepest pairings: four-point condition violated")
        if ab_cd == high:
            out.append(minor(a, b, c, d))
        if ac_bd == high:
            out.append(minor(a, c, b, d))
        if ad_bc == high:
            out.append(minor(a, d, b, c))
    return builder.result(out, into)


def combined_via_sigma(report: ClassificationReport) -> list[Binomial]:
    """The generators as first built: the block minors and completion
    linears in sigma-variables, each embedded into the report's coordinate
    kind, united with the cherry quadrics and sorted."""
    kind = report.coordinates
    sigma = sigma_block_minors(report.graph) | sigma_completion_linears(report.graph)
    return sorted(set(cherry_reference(report.working_tree)) | {embed(b, kind) for b in sigma})


def combined_reference(report: ClassificationReport) -> list[Binomial]:
    """The three families united by a set and sorted by tuple comparison,
    as ``ideals.combined_from_classification`` first combined them."""
    kind = report.coordinates
    cherry = cherry_reference(report.working_tree)
    block = block_minor_binomials(report.graph, kind)
    completion = completion_binomials(report.graph, kind)
    return sorted({*cherry, *block, *completion})


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
    return pattern_of(grid)


def jordan_closed(pattern: MatrixPattern) -> bool:
    """Whether the pattern's space is closed under X o Y = (XY + YX)/2.

    The product is bilinear, so by polarization the space is closed iff X^2
    lies in it for the generic X = sum_c t_c E_c.  Entry (i,j) of X^2 is
    sum_k t_c(i,k) t_c(k,j), a multiset of unordered token pairs with no
    cancellation; X^2 lies in the space iff that multiset is empty at every
    structural zero and the same on all entries of one class.
    """
    classes = rows_of(pattern.size, pattern.classes)
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
    for i, row in enumerate(rows_of(n, pattern.classes)):
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
            if not contains_one(pattern, upper_of(rows)):
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


def fraction_det(rows) -> Fraction:
    """Determinant by textbook Gaussian elimination over ``Fraction``."""
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        p = work[c][c]
        det *= p
        for i in range(c + 1, n):
            f = work[i][c] / p
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det


def linear_forms_at(forms: dict, pairs, into, values) -> list:
    """Each form of ``forms``, listed in the order of ``pairs``, summed term
    by term at ``values``, a list whose entries are keyed by ``into``."""
    at = dict(zip(into, values))
    return [sum(c * at[p] for p, c in forms[pair].items()) for pair in pairs]


def hash_draws(label: str, seed: int, attempt: int, count: int, low: int, high: int) -> list:
    """The first ``count`` draws in [low, high] of the documented stream of
    (label, seed, attempt), read as text: block b is the blake2b digest of
    ``"label seed attempt b"``, whose bits, lowest of the little-endian
    integer first, are cut into slices of the range's bit width; a slice
    below the range size is kept, any other skipped."""
    span = high - low + 1
    width = max(1, len(bin(span - 1)) - 2)
    draws: list[int] = []
    block = 0
    while len(draws) < count:
        digest = hashlib.blake2b(f"{label} {seed} {attempt} {block}".encode()).digest()
        bits = "".join(format(byte, "08b")[::-1] for byte in digest)
        values = [int(bits[i : i + width][::-1], 2) for i in range(0, 513 - width, width)]
        draws += [low + v for v in values if v < span]
        block += 1
    return draws[:count]


def sample_point_reference(pattern: MatrixPattern, seed: int) -> SymMatrix:
    """The point K that ``matrices.sample_projectives`` draws for the seed:
    the forward-vanishing stream's draws of each attempt, redrawn until a
    ``Fraction`` elimination finds the matrix invertible."""
    tokens = pattern.tokens()
    for attempt in range(SAMPLE_RETRIES):
        draws = hash_draws(
            "forward_vanishing", seed, attempt, len(tokens), -SAMPLE_BOUND, SAMPLE_BOUND
        )
        values = dict(zip(tokens, draws))
        m = SymMatrix(pattern_rows(pattern, values))
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
        draws = hash_draws(
            "roundtrip_parametrization", _trial_seed(seed, k), 0, len(ctx.mmap.params),
            1, ROUNDTRIP_BOUND,
        )
        theta = {tok: Fraction(x) for tok, x in zip(ctx.mmap.params, draws)}
        sigma = ctx.cmap.unapply(ctx.mmap.evaluate(theta))
        inverse = fraction_inverse(sigma.entries)
        if inverse is None:
            skipped += 1
            continue
        if not contains_one(ctx.pattern, upper_of(inverse)):
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
