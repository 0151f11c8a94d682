"""Binomial generator families for the toric descriptions.

Three families, matching the three linear spaces whose intersection cuts
out the model:

* cherry quadrics: for every leaf quadruple (root leaf 0 included), the
  quartet split, the pairing with the deepest lcas in the tree's leaf-pair
  table, determines x_ik x_jl - x_il x_jk; unresolved (star) quadruples
  contribute all three pairings.  For a sorted quadruple a < b < c < d the
  monomials P1 = x_ab x_cd, P2 = x_ac x_bd and P3 = x_ad x_bc always order
  P1 < P2 < P3, so each quadric's key is written in closed form.
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
generators in construction order.

A generator is held as one integer key, which spells both of its
monomials as base-M digits and orders as the sorted output does
(:class:`_Builder`).  :func:`combined_from_classification` runs all three
families into one builder, so a generator two families share is keyed
once and the union is ordered by sorting integers.  The sorted keys are
the one generator format from the builder to the output: the export
functions render them, from their digits, as text, as the JSON document
of the ``generators`` command and as a Macaulay2 script, through name and
fragment tables built per document.  :func:`binomials` is the one
decoder, for the callers that need a :class:`Binomial` (the verification
checks, and the family functions called on their own).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .binomials import Binomial, Var, coord_var, var_name
from .classify import ClassificationReport, coordinate_kind
from .graphs import ColoredGraph, one_clique_separated_quadruples
from .laplacians import pq_index_pairs
from .trees import ColoredTree


def _var(kind: str, i: int, j: int) -> Var:
    """The coordinate of sigma_ij: x_ij for i != j, x_0i on the diagonal."""
    if i < j:
        return (kind, i, j)
    return (kind, j, i) if j < i else (kind, 0, i)


@lru_cache(maxsize=32)
def _ranks(n: int) -> tuple[int, ...]:
    """For each index pair (i, j) over 0..n, at position i (n + 1) + j: the
    rank a (n + 1) + b of its coordinate x_ab = :func:`_var` (kind, i, j),
    the same for either kind.  Ranks order as the variables do."""
    n1 = n + 1
    return tuple(
        v[1] * n1 + v[2] for v in (_var("", i, j) for i in range(n1) for j in range(n1))
    )


class _Builder:
    """One tree's generators, each held as the integer key of its output position.

    The keys order as the binomials do, so ``sorted(keys)`` is the output
    order.  A monomial v1^e1 v2^e2 (exponents 1 or 2, v1 < v2) has the key
    (3 r1 + e1) M + 3 (r2 + 1) + e2, where r is a variable's rank from
    :func:`_ranks` and M = 3 ((n + 1)^2 + 1); an absent second factor adds
    0.  Each part stays below M, so the key orders as the ``(variable,
    exponent)`` tuples do.  A binomial lead - trail has the key
    lead M^2 + trail.  :meth:`minor` and :meth:`linear` work out the key
    from the ranks, add it to ``keys`` and return it; :func:`binomials`
    decodes keys.
    """

    __slots__ = ("keys", "kind", "n", "_n1", "_m", "_rank")

    def __init__(self, kind: str, n: int):
        self.keys: set[int] = set()
        self.kind, self.n = kind, n
        self._n1 = n + 1
        self._m = 3 * ((n + 1) ** 2 + 1)
        self._rank = _ranks(n)

    def minor(self, i: int, j: int, k: int, l: int) -> int:
        """x_ik x_jl - x_il x_jk; with i < j and k < l the monomials never coincide.

        Each index pair goes through :func:`_var`, so a diagonal pair (the
        cut vertex of a block minor) lands on x_0c; the indices are then
        1-based vertices, and the rule is injective on them.  x_ik and x_jl
        are distinct variables, and x_il = x_jk only when (i, j) = (k, l).
        """
        n1, rank, m = self._n1, self._rank, self._m
        a, b = rank[i * n1 + k], rank[j * n1 + l]
        c, d = rank[i * n1 + l], rank[j * n1 + k]
        plus = (3 * a + 1) * m + 3 * b + 4 if a < b else (3 * b + 1) * m + 3 * a + 4
        if c == d:
            minus = (3 * c + 2) * m
        else:
            minus = (3 * c + 1) * m + 3 * d + 4 if c < d else (3 * d + 1) * m + 3 * c + 4
        key = plus * m * m + minus if plus > minus else minus * m * m + plus
        self.keys.add(key)
        return key

    def linear(self, i: int, j: int, k: int, l: int) -> int:
        """x_ij - x_kl for distinct index pairs, each through :func:`_var`."""
        n1, rank, m = self._n1, self._rank, self._m
        a, b = rank[i * n1 + j], rank[k * n1 + l]
        if a < b:
            a, b = b, a
        key = ((3 * a + 1) * m * m + 3 * b + 1) * m
        self.keys.add(key)
        return key

    def result(self, keys: list[int], into: _Builder | None) -> list:
        """A family's generators: its keys when ``into`` collects them,
        else the binomials they decode to (:func:`binomials`)."""
        return keys if into is not None else binomials(keys, self.kind, self.n)


def cherry_binomials(t: ColoredTree, *, into: _Builder | None = None) -> list:
    """Quartet quadrics of the tree over {0} and the leaves.

    For each quadruple, the pairing with strictly minimal distance sum is
    the cherry pairing {i,j},{k,l} and contributes x_ik x_jl - x_il x_jk;
    if all three sums agree (star quartet) all three pairings contribute.
    As dist(a,b) = depth a + depth b - 2 depth lca(a,b) and all three
    pairings share one sum of leaf depths, the minimal distance sum is the
    maximal sum of lca depths, read off the leaf-pair lca table.  Colors play
    no role.  Zeroed nodes only pick the coordinate kind
    (:func:`classify.coordinate_kind`); the quartet split ignores them.
    The quadrics come out in construction order, as binomials, or as keys
    when ``into`` collects them with another family's generators.

    Each key is written in closed form, with no comparison of ranks.  For
    a sorted quadruple a < b < c < d the three monomials P1 = x_ab x_cd,
    P2 = x_ac x_bd and P3 = x_ad x_bc always key as P1 < P2 < P3, and in
    each the first factor has the lower rank (:class:`_Builder`).  So the
    split ab|cd gives P3 - P2, ac|bd gives P3 - P1 and ad|bc gives P2 - P1,
    and a star quadruple gives all three, in that order.
    """
    builder = into or _Builder(coordinate_kind(t), t.n_leaves)
    n1, m = builder._n1, builder._m
    mm = m * m
    size = t.n_leaves + 1
    deep = [[0] * size for _ in range(size)]
    for (i, j), node in t.leaf_lca.items():
        deep[i][j] = t.depth(node)
    # the key parts of x_ij (i < j) as the first and as the second factor
    first = [[(3 * (i * n1 + j) + 1) * m for j in range(size)] for i in range(size)]
    second = [[3 * (i * n1 + j) + 4 for j in range(size)] for i in range(size)]
    out: list[int] = []  # each quadruple's monomials are its own: no repeats
    append = out.append
    for a, b, c, d in combinations(range(size), 4):
        da, db = deep[a], deep[b]
        ab_cd = da[b] + deep[c][d]
        ac_bd = da[c] + db[d]
        ad_bc = da[d] + db[c]
        if ab_cd > ac_bd and ab_cd > ad_bc:  # ab|cd: P3 - P2
            append((first[a][d] + second[b][c]) * mm + first[a][c] + second[b][d])
        elif ac_bd > ab_cd and ac_bd > ad_bc:  # ac|bd: P3 - P1
            append((first[a][d] + second[b][c]) * mm + first[a][b] + second[c][d])
        elif ad_bc > ab_cd and ad_bc > ac_bd:  # ad|bc: P2 - P1
            append((first[a][c] + second[b][d]) * mm + first[a][b] + second[c][d])
        elif ab_cd == ac_bd == ad_bc:  # star
            p1 = first[a][b] + second[c][d]
            p2 = first[a][c] + second[b][d]
            p3 = (first[a][d] + second[b][c]) * mm
            out += (p3 + p2, p3 + p1, p2 * mm + p1)
        else:
            raise AssertionError("two deepest pairings: four-point condition violated")
    builder.keys.update(out)
    return builder.result(out, into)


def block_minor_binomials(
    g: ColoredGraph, kind: str, *, into: _Builder | None = None
) -> list:
    """2x2 minors from one-clique separations, in x = p or q.

    For a separated pairing ((i,j),(k,l)) the minor is
    sigma_ik sigma_jl - sigma_il sigma_jk; the cut vertex may occur in both
    pairs, producing the diagonal minors sigma_cc sigma_jl - sigma_cl
    sigma_jc, which land on x_0c x_jl - x_cl x_jc.  One minor per separated
    pairing, in the iteration order of
    :func:`graphs.one_clique_separated_quadruples`; empty for complete
    graphs.  As keys when ``into`` collects them with another family's
    generators.
    """
    builder = into or _Builder(kind, g.n)
    minor = builder.minor
    keys = [minor(i, j, k, l) for (i, j), (k, l) in one_clique_separated_quadruples(g)]
    return builder.result(keys, into)


def completion_binomials(
    g: ColoredGraph, kind: str, *, into: _Builder | None = None
) -> list:
    """Linear relations of the vertex-regular completion, in x = p or q.

    For every same-colored vertex pair i,j: sigma_ik - sigma_jk for all
    k outside the pair, and the diagonal relation sigma_ii - sigma_jj,
    which lands on its reduced form x_0i - x_0j.  The relations come out
    in construction order, as binomials, or as keys when ``into`` collects
    them with another family's generators.
    """
    builder = into or _Builder(kind, g.n)
    linear = builder.linear
    out: list[int] = []
    for verts in g.vertex_color_classes().values():
        for i, j in combinations(verts, 2):
            for k in g.vertices():
                if k not in (i, j):
                    out.append(linear(i, k, j, k))
            out.append(linear(i, i, j, j))
    return builder.result(out, into)


def combined_from_classification(
    report: ClassificationReport,
) -> tuple[list[int], str]:
    """Sorted keys of the union of the three families for a
    theorem-applicable tree, and the coordinate kind.

    The families share one :class:`_Builder`, so a generator two families
    produce is keyed once, and the union comes out by sorting the keys.
    The only place the generators are deduplicated and ordered;
    :func:`binomials` decodes them, and the export functions render them.
    """
    report.require_applicable()
    # On 222 applicable random trees (n = 6-14), the families united by a
    # set and sorted by tuple comparison took 1.21 s, each binomial built
    # once under its key 0.38 s.  On the 159 applicable trees of three
    # perfbench generate rounds (seed 1101), a binomial built per key took
    # 0.36 s, the keys alone 0.21 s (best of 5; Python 3.11, Xeon).  On the
    # 204 of four such rounds, the quartet keys built through _Builder.minor
    # took 0.164 s of 0.237 s, in closed form 0.051 s of 0.133 s; on the
    # 60-leaf star (1 565 565 generators) all took 2.82 s, then 1.59 s.
    kind = report.coordinates
    into = _Builder(kind, report.graph.n)
    cherry_binomials(report.working_tree, into=into)
    block_minor_binomials(report.graph, kind, into=into)
    completion_binomials(report.graph, kind, into=into)
    return sorted(into.keys), kind


# -------------------------------------------------------------------- #
# decoding and export formats                                            #
# -------------------------------------------------------------------- #


class _OnDemand(dict):
    """A per-document table: a missing entry is made from its key and kept."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _digit_tables(n: int, first, second) -> tuple[int, _OnDemand, _OnDemand]:
    """M and two per-document tables over the digits of a monomial key
    (:class:`_Builder`): the first digit 3 r + e to ``first(a, b, e)`` and
    the second 3 (r + 1) + e to ``second(a, b, e)``, for the factor x_ab^e
    of rank r = a (n + 1) + b.  The caller enters digit 0, no factor."""
    n1 = n + 1
    return (
        3 * (n1 * n1 + 1),
        _OnDemand(lambda d: first(*divmod(d // 3, n1), d % 3)),
        _OnDemand(lambda d: second(*divmod(d // 3 - 1, n1), d % 3)),
    )


def key_digits(n: int, factor) -> tuple[int, _OnDemand, _OnDemand]:
    """M and two per-document tables over the digits of a monomial key over
    the indices 0..n (:class:`_Builder`): the first digit 3 r + e and the
    second 3 (r + 1) + e to ``factor(a, b, e)`` for the factor x_ab^e of
    rank r, and digit 0, no factor, to ()."""
    m, first, second = _digit_tables(n, factor, factor)
    first[0] = second[0] = ()
    return m, first, second


def binomials(keys: Iterable[int], kind: str, n: int) -> list[Binomial]:
    """The binomials of generator keys over the indices 0..n, in the order
    of ``keys``: the one place a :class:`Binomial` is made from a key."""
    m, first, second = key_digits(n, lambda a, b, e: (((kind, a, b), e),))
    return [
        Binomial(first[lead // m] + second[lead % m], first[trail // m] + second[trail % m])
        for lead, trail in map(divmod, keys, repeat(m * m))
    ]


def generator_lines(keys: list[int], kind: str, n: int) -> list[str]:
    """Each generator's line of text, ``lead - trail`` as :meth:`Binomial.text`
    spells it, in the order of ``keys``."""

    def factor(a: int, b: int, e: int) -> str:
        name = var_name((kind, a, b))
        return name if e == 1 else f"{name}^{e}"

    m, first, second = _digit_tables(n, factor, lambda a, b, e: "*" + factor(a, b, e))
    first[0], second[0] = "1", ""
    return [
        f"{first[lead // m]}{second[lead % m]} - {first[trail // m]}{second[trail % m]}"
        for lead, trail in map(divmod, keys, repeat(m * m))
    ]


def generators_text(keys: list[int], kind: str, n: int) -> str:
    lines = generator_lines(keys, kind, n)
    return "\n".join(lines) + "\n" if lines else ""


def generators_json(keys: list[int], kind: str, n: int) -> str:
    """The generators document, ``{"coordinates", "count", "generators"}``,
    as ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` lays it out.

    Each generator is ``{"minus": trail, "plus": lead}`` with a monomial as
    a list of ``[name, exponent]`` pairs.  That layout is fixed, so each
    factor that a digit of a key spells is rendered once into its indented
    fragment, and the whole document is one ``"".join`` over a flat list of
    pieces.
    """
    # On two perfbench generate rounds (101 documents, 99 194 generators)
    # a dict of per-generator dicts written by cli._json took 1.07 s, this
    # 0.10 s.  Joining each generator, then the document, took 0.15 s and
    # peaked at 3.3 MiB of allocations on the largest document, against
    # 1.4 MiB for one flat list (tracemalloc; Python 3.11, Xeon).
    head = '{\n  "coordinates": ' + encode_basestring_ascii(kind)
    head += ',\n  "count": ' + str(len(keys)) + ',\n  "generators": '
    if not keys:
        return head + "[]\n}\n"

    def fragment(a: int, b: int, e: int) -> str:
        name = encode_basestring_ascii(var_name((kind, a, b)))
        return "\n        [\n          " + name + ",\n          " + str(e) + "\n        ]"

    # A monomial's array: its first factor's piece opens it, its second
    # factor's piece (or, with none, digit 0's) closes it.
    m, first, second = _digit_tables(
        n,
        lambda a, b, e: "[" + fragment(a, b, e),
        lambda a, b, e: "," + fragment(a, b, e) + "\n      ]",
    )
    second[0] = "\n      ]"
    plus, after = ',\n      "plus": ', '\n    },\n    {\n      "minus": '
    out = [head + '[\n    {\n      "minus": ']
    for lead, trail in map(divmod, keys, repeat(m * m)):
        if trail:
            out += (first[trail // m], second[trail % m])
        else:  # a constant renders as an empty array
            out.append("[]")
        out += (plus, first[lead // m], second[lead % m], after)
    out[-1] = "\n    }\n  ]\n}\n"
    return "".join(out)


def generators_m2(keys: list[int], kind: str, n: int) -> str:
    """Macaulay2 script defining the ideal (for external cross-checks)."""
    ring_vars = ", ".join(
        var_name(coord_var(kind, i, j)) for i, j in pq_index_pairs(n)
    )
    lines = [f"R = QQ[{ring_vars}];"]
    if keys:
        body = ",\n  ".join(generator_lines(keys, kind, n))
        lines.append(f"I = ideal(\n  {body}\n);")
    else:
        lines.append("I = ideal(0_R);")
    return "\n".join(lines) + "\n"
