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
x_0i - x_0j under this rule.  The families come out in construction
order; :func:`combined_from_classification` dedupes and sorts once.
"""

from __future__ import annotations

from itertools import combinations

from .binomials import Binomial, Var, coord_var, var_name
from .classify import ClassificationReport, classify, coordinate_kind
from .errors import NotApplicableError
from .graphs import ColoredGraph, one_clique_separated_quadruples
from .laplacians import pq_index_pairs
from .trees import ColoredTree


def _var(kind: str, i: int, j: int) -> Var:
    """The coordinate of sigma_ij: x_ij for i != j, x_0i on the diagonal."""
    if i < j:
        return (kind, i, j)
    return (kind, j, i) if j < i else (kind, 0, i)


def _minor(kind: str, i: int, j: int, k: int, l: int) -> Binomial:
    """x_ik x_jl - x_il x_jk; with i < j and k < l the monomials never coincide.

    Each index pair goes through :func:`_var`, so a diagonal pair (the cut
    vertex of a block minor) lands on x_0c; the indices are then 1-based
    vertices, and the rule is injective on them.  Both monomials and their
    order are built directly: x_ik and x_jl are distinct variables, and
    x_il = x_jk only when (i, j) = (k, l).
    """
    # Built directly: through Binomial.make(monomial(...)) the generators
    # of two perfbench generate rounds took 2.82 s, not 2.36 s (Python
    # 3.11, Xeon).
    a = _var(kind, i, k)
    b = _var(kind, j, l)
    c = _var(kind, i, l)
    d = _var(kind, j, k)
    plus = ((a, 1), (b, 1)) if a < b else ((b, 1), (a, 1))
    if c == d:
        minus = ((c, 2),)
    else:
        minus = ((c, 1), (d, 1)) if c < d else ((d, 1), (c, 1))
    return Binomial(plus, minus) if plus > minus else Binomial(minus, plus)


def _linear(kind: str, i: int, j: int, k: int, l: int) -> Binomial:
    """x_ij - x_kl for distinct index pairs, each through :func:`_var`."""
    # Built directly, as in _minor and for the same measured reason.
    a, b = _var(kind, i, j), _var(kind, k, l)
    if a < b:
        a, b = b, a
    return Binomial(((a, 1),), ((b, 1),))


def cherry_binomials(t: ColoredTree) -> list[Binomial]:
    """Quartet quadrics of the tree over {0} and the leaves.

    For each quadruple, the pairing with strictly minimal distance sum is
    the cherry pairing {i,j},{k,l} and contributes x_ik x_jl - x_il x_jk;
    if all three sums agree (star quartet) all three pairings contribute.
    As dist(a,b) = depth a + depth b - 2 depth lca(a,b) and all three
    pairings share one sum of leaf depths, the minimal distance sum is the
    maximal sum of lca depths, read off the leaf-pair lca table.  Colors play
    no role.  Zeroed nodes only pick the coordinate kind
    (:func:`classify.coordinate_kind`); the quartet split ignores them.
    """
    kind = coordinate_kind(t)
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
            out.append(_minor(kind, a, b, c, d))
        if ac_bd == high:
            out.append(_minor(kind, a, c, b, d))
        if ad_bc == high:
            out.append(_minor(kind, a, d, b, c))
    return out


def block_minor_binomials(g: ColoredGraph, kind: str) -> list[Binomial]:
    """2x2 minors from one-clique separations, in x = p or q.

    For a separated pairing ((i,j),(k,l)) the minor is
    sigma_ik sigma_jl - sigma_il sigma_jk; the cut vertex may occur in both
    pairs, producing the diagonal minors sigma_cc sigma_jl - sigma_cl
    sigma_jc, which land on x_0c x_jl - x_cl x_jc.  One minor per separated
    pairing, in the order the separations are found; empty for complete
    graphs.
    """
    return [
        _minor(kind, i, j, k, l) for (i, j), (k, l) in one_clique_separated_quadruples(g)
    ]


def completion_binomials(g: ColoredGraph, kind: str) -> list[Binomial]:
    """Linear relations of the vertex-regular completion, in x = p or q.

    For every same-colored vertex pair i,j: sigma_ik - sigma_jk for all
    k outside the pair, and the diagonal relation sigma_ii - sigma_jj,
    which lands on its reduced form x_0i - x_0j.
    """
    out: list[Binomial] = []
    for verts in g.vertex_color_classes().values():
        for i, j in combinations(verts, 2):
            for k in g.vertices():
                if k not in (i, j):
                    out.append(_linear(kind, i, k, j, k))
            out.append(_linear(kind, i, i, j, j))
    return out


def combined_from_classification(
    report: ClassificationReport,
) -> tuple[list[Binomial], str]:
    """Sorted union of the three families for a theorem-applicable tree.

    The only place the generators are deduplicated and ordered.
    """
    if not report.applicable:
        raise NotApplicableError(
            "; ".join(report.reasons) or "no applicable theorem", report
        )
    kind = report.coordinates
    cherry = cherry_binomials(report.working_tree)
    block = block_minor_binomials(report.graph, kind)
    completion = completion_binomials(report.graph, kind)
    return sorted({*cherry, *block, *completion}), kind


def combined_generators(t: ColoredTree) -> tuple[list[Binomial], str]:
    """Generators of the combined toric ideal, with their coordinate kind.

    Raises
    ------
    NotApplicableError
        When classification is NONE; the report rides on the exception.
    """
    return combined_from_classification(classify(t))


# -------------------------------------------------------------------- #
# export formats                                                         #
# -------------------------------------------------------------------- #


def generators_text(gens: list[Binomial]) -> str:
    return "".join(b.text() + "\n" for b in gens)


def generators_json(gens: list[Binomial], kind: str) -> dict:
    return {
        "coordinates": kind,
        "count": len(gens),
        "generators": [b.to_dict() for b in gens],
    }


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
