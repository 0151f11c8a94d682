"""Binomial generator families for the toric descriptions.

Three families, matching the three linear spaces whose intersection cuts
out the model:

* cherry quadrics: for every leaf quadruple (root leaf 0 included), the
  quartet split determines x_ik x_jl - x_il x_jk; unresolved (star)
  quadruples contribute all three pairings.
* block-graph minors: 2x2 minors of the covariance blocks indexed by
  one-clique separations, including the diagonal minors through the cut
  vertex.
* completion linears: sigma_ik - sigma_jk and sigma_ii - sigma_jj for
  same-colored vertex pairs.

The sigma-level families embed into p- or q-coordinates by the variable
substitution sigma_ij -> x_ij, sigma_ii -> x_0i.  Signs that the honest
Laplacian image would carry are dropped: the canonical +1 form generates
the same ideal.  The diagonal completion relation lands directly on its
reduced form x_0i - x_0j under this substitution.
"""

from __future__ import annotations

from itertools import combinations

from .binomials import Binomial, Var, coord_var, monomial, var_name
from .classify import ClassificationReport, classify, coordinate_kind
from .errors import NotApplicableError
from .graphs import ColoredGraph, one_clique_separated_quadruples
from .laplacians import pq_index_pairs
from .trees import ColoredTree


def cherry_binomials(t: ColoredTree) -> list[Binomial]:
    """Quartet quadrics of the tree over {0} and the leaves.

    For each quadruple, the pairing with strictly minimal distance sum is
    the cherry pairing {i,j},{k,l} and contributes x_ik x_jl - x_il x_jk;
    if all three sums agree (star quartet) all three pairings contribute.
    Colors play no role.  Zeroed nodes only pick the coordinate kind
    (:func:`classify.coordinate_kind`); the quartet split ignores them.
    """
    kind = coordinate_kind(t)
    universe = [0] + t.leaves()
    out: set[Binomial] = set()
    for quad in combinations(universe, 4):
        a, b, c, d = quad
        pairings = (
            ((a, b), (c, d)),
            ((a, c), (b, d)),
            ((a, d), (b, c)),
        )
        sums = [
            t.tree_distance(*p1) + t.tree_distance(*p2) for p1, p2 in pairings
        ]
        low = min(sums)
        chosen = [pr for pr, s in zip(pairings, sums) if s == low]
        if len(chosen) == 2:
            raise AssertionError(
                "two minimal quartet sums: four-point condition violated"
            )
        for (i, j), (k, l) in chosen:
            bino = Binomial.make(
                monomial([coord_var(kind, i, k), coord_var(kind, j, l)]),
                monomial([coord_var(kind, i, l), coord_var(kind, j, k)]),
            )
            if bino is not None:
                out.add(bino)
    return sorted(out)


def block_minor_binomials(g: ColoredGraph) -> list[Binomial]:
    """2x2 minors (in sigma-variables) from one-clique separations.

    For a separated pairing ((i,j),(k,l)) the minor is
    sigma_ik sigma_jl - sigma_il sigma_jk; the cut vertex may occur in both
    pairs, producing the diagonal minors sigma_cc sigma_jl - sigma_cl
    sigma_jc.  Empty for complete graphs.
    """
    out: set[Binomial] = set()
    for (i, j), (k, l) in one_clique_separated_quadruples(g):
        bino = Binomial.make(
            monomial([coord_var("s", i, k), coord_var("s", j, l)]),
            monomial([coord_var("s", i, l), coord_var("s", j, k)]),
        )
        if bino is not None:
            out.add(bino)
    return sorted(out)


def completion_binomials(g: ColoredGraph) -> list[Binomial]:
    """Linear relations (in sigma-variables) of the vertex-regular completion.

    For every same-colored vertex pair i,j: sigma_ik - sigma_jk for all
    k outside the pair, and the raw diagonal relation sigma_ii - sigma_jj.
    """
    out: set[Binomial] = set()
    for verts in g.vertex_color_classes().values():
        for i, j in combinations(verts, 2):
            for k in g.vertices():
                if k in (i, j):
                    continue
                bino = Binomial.make(
                    monomial([coord_var("s", i, k)]),
                    monomial([coord_var("s", j, k)]),
                )
                if bino is not None:
                    out.add(bino)
            diag = Binomial.make(
                monomial([coord_var("s", i, i)]),
                monomial([coord_var("s", j, j)]),
            )
            if diag is not None:
                out.add(diag)
    return sorted(out)


def embed(b: Binomial, kind: str) -> Binomial:
    """sigma_ij -> x_ij, sigma_ii -> x_0i for x = p or q.

    Diagonal entries land on their reduced form x_0i; signs are
    canonicalized away.
    """

    def rename(v: Var) -> Var:
        s, i, j = v
        if s != "s":
            raise ValueError(f"variable {var_name(v)} is not a sigma-variable")
        if i == j:
            return coord_var(kind, 0, i)
        return coord_var(kind, i, j)

    return b.substitute(rename)


def combined_from_classification(
    report: ClassificationReport,
) -> tuple[list[Binomial], str]:
    """Union of the three embedded families for a theorem-applicable tree."""
    if not report.applicable:
        raise NotApplicableError(
            "; ".join(report.reasons) or "no applicable theorem", report
        )
    kind = report.coordinates
    g = report.graph
    gens: set[Binomial] = set(cherry_binomials(report.working_tree))
    gens.update(embed(b, kind) for b in block_minor_binomials(g))
    gens.update(embed(b, kind) for b in completion_binomials(g))
    return sorted(gens), kind


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
