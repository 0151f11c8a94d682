"""Toric vanishing ideals of tree-derived Gaussian models, over exact rationals."""

from .binomials import Binomial, coord_var, parse_binomial, var_name
from .classify import (
    NONE,
    THM_BLOCK_UNCOLORED,
    THM_COLORED_COMPLETE,
    THM_MAIN,
    ClassificationReport,
    classify,
    contract_internal_colors,
)
from .errors import (
    GraphError,
    NotApplicableError,
    SamplingError,
    SingularMatrixError,
    TreeError,
)
from .graphs import (
    ColoredGraph,
    derive_graph,
    is_vertex_regular,
    one_clique_separated_quadruples,
    star_decomposition,
)
from .ideals import (
    block_minor_binomials,
    cherry_binomials,
    completion_binomials,
)
from .laplacians import (
    CoordinateMap,
    g_derived_laplacian_map,
    gamma_graph,
    gamma_laplacian,
)
from .matrices import (
    MatrixPattern,
    invert_exact,
    pattern_from_graph,
)
from .monomials import MonomialMap, exponent_rank, path_map
from .pipeline import (
    VerificationReport,
    build_context,
    dimension_report,
    forward_vanishing,
    kernel_membership,
    roundtrip_parametrization,
    verify_tree,
)
from .trees import ColoredTree, load_tree, parse_tree

__all__ = [name for name in dir() if not name.startswith("_")]
