"""Binomial generator families for the toric descriptions.

Three families, matching the three linear spaces whose intersection cuts
out the model:

* cherry quadrics: for every leaf quadruple (root leaf 0 included), the
  quartet split, the pairing with the deepest lcas in the tree's leaf-pair
  table, determines x_ik x_jl - x_il x_jk; unresolved (star) quadruples
  contribute all three pairings.
* block-graph minors: 2x2 minors of the covariance blocks indexed by
  one-clique separations, including the diagonal minors through the cut
  vertex.
* completion linears: sigma_ik - sigma_jk and sigma_ii - sigma_jj for
  same-colored vertex pairs.

The block minors and completion linears are stated in sigma but built
directly in the tree's p- or q-coordinates, through the single injective
variable rule sigma_ij -> x_ij, sigma_ii -> x_0i (:func:`_var`); no
sigma-variable is ever constructed.  Signs that the honest Laplacian image
would carry are dropped: the canonical +1 form generates the same ideal.
The diagonal completion relation lands directly on its reduced form
x_0i - x_0j under this rule.  Each family function returns its
generators in construction order.  :func:`combined_from_classification`
runs all three into one builder, keyed by each generator's position in
the sorted output, so a generator two families share is built once and
the union is ordered by sorting integers.  The export functions render
the sorted generators as text, as the JSON document of the
``generators`` command, and as a Macaulay2 script.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from json.encoder import encode_basestring_ascii

from .binomials import Binomial, Var, coord_var, var_name
from .classify import ClassificationReport, coordinate_kind
from .errors import NotApplicableError
from .graphs import ColoredGraph, one_clique_separated_quadruples
from .laplacians import pq_index_pairs
from .trees import ColoredTree


def _var(kind: str, i: int, j: int) -> Var:
    """The coordinate of sigma_ij: x_ij for i != j, x_0i on the diagonal."""
    if i < j:
        return (kind, i, j)
    return (kind, j, i) if j < i else (kind, 0, i)


@lru_cache(maxsize=32)
def _tables(kind: str, n: int) -> tuple[tuple[int, ...], tuple[tuple[Var, int], ...]]:
    """For each index pair (i, j) over 0..n, at position i (n + 1) + j: the
    rank a (n + 1) + b of its coordinate x_ab = :func:`_var` (kind, i, j),
    and one shared term (x_ab, 1).  Ranks order as the variables do."""
    ranks: list[int] = []
    terms: list[tuple[Var, int]] = []
    for i in range(n + 1):
        for j in range(n + 1):
            v = _var(kind, i, j)
            ranks.append(v[1] * (n + 1) + v[2])
            terms.append((v, 1))
    return tuple(ranks), tuple(terms)


class _Builder:
    """One tree's generators, each built once and keyed by its output position.

    ``gens`` maps an integer key to its binomial, and the keys order as the
    binomials do, so ``sorted(gens)`` is the output order.  A monomial
    v1^e1 v2^e2 (exponents 1 or 2, v1 < v2) has the key
    (3 r1 + e1) M + 3 (r2 + 1) + e2, where r is a variable's rank from
    :func:`_tables` and M = 3 ((n + 1)^2 + 1); an absent second factor adds
    0.  Each part stays below M, so the key orders as the ``(variable,
    exponent)`` tuples do.  A binomial lead - trail has the key
    lead M^2 + trail.  :meth:`minor` and :meth:`linear` work out the key
    from the ranks first and build the binomial only if the key is new.
    """

    __slots__ = ("gens", "_n1", "_m", "_rank", "_term")

    def __init__(self, kind: str, n: int):
        self.gens: dict[int, Binomial] = {}
        self._n1 = n + 1
        self._m = 3 * ((n + 1) ** 2 + 1)
        self._rank, self._term = _tables(kind, n)

    def minor(self, i: int, j: int, k: int, l: int) -> Binomial:
        """x_ik x_jl - x_il x_jk; with i < j and k < l the monomials never coincide.

        Each index pair goes through :func:`_var`, so a diagonal pair (the
        cut vertex of a block minor) lands on x_0c; the indices are then
        1-based vertices, and the rule is injective on them.  x_ik and x_jl
        are distinct variables, and x_il = x_jk only when (i, j) = (k, l).
        """
        n1, rank, m = self._n1, self._rank, self._m
        ik, jl, il, jk = i * n1 + k, j * n1 + l, i * n1 + l, j * n1 + k
        a, b, c, d = rank[ik], rank[jl], rank[il], rank[jk]
        if b < a:
            a, b, ik, jl = b, a, jl, ik
        plus = (3 * a + 1) * m + 3 * b + 4
        if c == d:
            minus = (3 * c + 2) * m
        else:
            if d < c:
                c, d, il, jk = d, c, jk, il
            minus = (3 * c + 1) * m + 3 * d + 4
        key = plus * m * m + minus if plus > minus else minus * m * m + plus
        found = self.gens.get(key)
        if found is None:
            term = self._term
            lead = (term[ik], term[jl])
            trail = ((term[il][0], 2),) if c == d else (term[il], term[jk])
            if minus > plus:
                lead, trail = trail, lead
            found = self.gens[key] = Binomial(lead, trail)
        return found

    def linear(self, i: int, j: int, k: int, l: int) -> Binomial:
        """x_ij - x_kl for distinct index pairs, each through :func:`_var`."""
        n1, rank, m = self._n1, self._rank, self._m
        ij, kl = i * n1 + j, k * n1 + l
        a, b = rank[ij], rank[kl]
        if a < b:
            a, b, ij, kl = b, a, kl, ij
        key = ((3 * a + 1) * m * m + 3 * b + 1) * m
        found = self.gens.get(key)
        if found is None:
            term = self._term
            found = self.gens[key] = Binomial((term[ij],), (term[kl],))
        return found


def cherry_binomials(t: ColoredTree, *, into: _Builder | None = None) -> list[Binomial]:
    """Quartet quadrics of the tree over {0} and the leaves.

    For each quadruple, the pairing with strictly minimal distance sum is
    the cherry pairing {i,j},{k,l} and contributes x_ik x_jl - x_il x_jk;
    if all three sums agree (star quartet) all three pairings contribute.
    As dist(a,b) = depth a + depth b - 2 depth lca(a,b) and all three
    pairings share one sum of leaf depths, the minimal distance sum is the
    maximal sum of lca depths, read off the leaf-pair lca table.  Colors play
    no role.  Zeroed nodes only pick the coordinate kind
    (:func:`classify.coordinate_kind`); the quartet split ignores them.
    The quadrics come out in construction order; ``into`` collects them
    with another family's generators.
    """
    minor = (into or _Builder(coordinate_kind(t), t.n_leaves)).minor
    deep = {pair: t.depth(m) for pair, m in t.leaf_lca.items()}
    out: list[Binomial] = []  # a minor's indices are its quadruple: no repeats
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
    return out


def block_minor_binomials(
    g: ColoredGraph, kind: str, *, into: _Builder | None = None
) -> list[Binomial]:
    """2x2 minors from one-clique separations, in x = p or q.

    For a separated pairing ((i,j),(k,l)) the minor is
    sigma_ik sigma_jl - sigma_il sigma_jk; the cut vertex may occur in both
    pairs, producing the diagonal minors sigma_cc sigma_jl - sigma_cl
    sigma_jc, which land on x_0c x_jl - x_cl x_jc.  One minor per separated
    pairing, in the iteration order of
    :func:`graphs.one_clique_separated_quadruples`; empty for complete
    graphs.  ``into`` collects them with another family's generators.
    """
    minor = (into or _Builder(kind, g.n)).minor
    return [minor(i, j, k, l) for (i, j), (k, l) in one_clique_separated_quadruples(g)]


def completion_binomials(
    g: ColoredGraph, kind: str, *, into: _Builder | None = None
) -> list[Binomial]:
    """Linear relations of the vertex-regular completion, in x = p or q.

    For every same-colored vertex pair i,j: sigma_ik - sigma_jk for all
    k outside the pair, and the diagonal relation sigma_ii - sigma_jj,
    which lands on its reduced form x_0i - x_0j.  The relations come out
    in construction order; ``into`` collects them with another family's
    generators.
    """
    linear = (into or _Builder(kind, g.n)).linear
    out: list[Binomial] = []
    for verts in g.vertex_color_classes().values():
        for i, j in combinations(verts, 2):
            for k in g.vertices():
                if k not in (i, j):
                    out.append(linear(i, k, j, k))
            out.append(linear(i, i, j, j))
    return out


def combined_from_classification(
    report: ClassificationReport,
) -> tuple[list[Binomial], str]:
    """Sorted union of the three families for a theorem-applicable tree.

    The families share one :class:`_Builder`, so a generator two families
    produce is built once, and the union comes out by sorting its integer
    keys.  The only place the generators are deduplicated and ordered.
    """
    if not report.applicable:
        raise NotApplicableError(
            "; ".join(report.reasons) or "no applicable theorem", report
        )
    # On 222 applicable random trees (n = 6-14), the families united by a
    # set and sorted by tuple comparison took 1.21 s, this 0.38 s (best of
    # 5; Python 3.11, Xeon).
    kind = report.coordinates
    into = _Builder(kind, report.graph.n)
    cherry_binomials(report.working_tree, into=into)
    block_minor_binomials(report.graph, kind, into=into)
    completion_binomials(report.graph, kind, into=into)
    gens = into.gens
    return [gens[key] for key in sorted(gens)], kind


# -------------------------------------------------------------------- #
# export formats                                                         #
# -------------------------------------------------------------------- #


def generators_text(gens: list[Binomial]) -> str:
    return "".join(b.text() + "\n" for b in gens)


# The closing pieces of a generator's "minus" and "plus" arrays, indexed by
# whether the array was empty.
_MINUS_END = ('\n      ],\n      "plus": ', '[],\n      "plus": ')
_PLUS_END = ("\n      ]\n    }", "[]\n    }")


def generators_json(gens: list[Binomial], kind: str) -> str:
    """The generators document, ``{"coordinates", "count", "generators"}``,
    as ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` lays it out.

    Each generator is ``{"minus": trail, "plus": lead}`` with a monomial as
    a list of ``[name, exponent]`` pairs.  That layout is fixed, so each
    distinct term is rendered once into its indented fragment and the whole
    document is one ``"".join`` over a flat list of pieces.
    """
    # On two perfbench generate rounds (101 documents, 99 194 generators)
    # a dict of per-generator dicts written by cli._json took 1.07 s, this
    # 0.10 s.  Joining each generator, then the document, took 0.15 s and
    # peaked at 3.3 MiB of allocations on the largest document, against
    # 1.4 MiB for one flat list (tracemalloc; Python 3.11, Xeon).
    head = '{\n  "coordinates": ' + encode_basestring_ascii(kind)
    head += ',\n  "count": ' + str(len(gens)) + ',\n  "generators": '
    if not gens:
        return head + "[]\n}\n"
    # term -> (fragment after a comma, fragment opening its array)
    frags: dict[tuple[Var, int], tuple[str, str]] = {}
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


def generators_m2(gens: list[Binomial], kind: str, n: int) -> str:
    """Macaulay2 script defining the ideal (for external cross-checks)."""
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
