"""Exact arithmetic for finite-dimensional coalgebras carrying several
coproducts: axiom checking, entanglement constructions, convolution
brackets, boundary complexes, word rewriting, and a small text format with
a command-line front end."""

from .scalars import ONE, Q, ZERO, Scalar, ScalarSyntaxError, parse_scalar
from .linalg import (
    BasisSpace,
    FiniteAlgebra,
    MultiLinearMap,
    kernel_basis,
    rref,
    solve_linear,
)
from .coalgebra import (
    AXIOMS,
    AxiomReport,
    LStructure,
    check_axiom,
    cocommutator_space,
    solve_left_counit,
    solve_right_counit,
)
from .graphs import (
    UndirectedGraph,
    WeightedDigraph,
    covering_check,
    de_bruijn_graph,
    dot_export,
    geometric_support,
    markov_coalgebra,
    natural_lift,
    parse_digraph_edges,
    parse_undirected_edges,
)
from .constructions import (
    ChannelMap,
    EntangledStructure,
    achiral_entangle,
    check_ito_derivative,
    cibils_structures,
    de_bruijn_codialgebra,
    generated_subcoalgebra,
    ito_pair,
    leibniz_coderivative,
    markov_entangle_de_bruijn,
    markov_entangle_flower,
    self_entangle,
    self_tiling_dendriform,
    sum_codipterous,
)
from .convolution import (
    bracket,
    check_bar_unit,
    check_dendriform_algebra,
    check_dialgebra_laws,
    check_leibniz,
    check_poisson,
    check_trialgebra_laws,
    conv_product,
    dual_basis,
    structure_constants,
)
from .complexes import (
    boundary_apply,
    check_boundary_forms_agree,
    check_complex,
    flower_coproducts,
    insert_unit,
)
from .ncpoly import (
    AntipodeData,
    RewriteError,
    RewriteSystem,
    check_bridge_homomorphism,
    check_l_hopf,
    coproduct_of_poly,
    relation_set,
)
from .dsl import (
    DslError,
    SpecDocument,
    document_from_structure,
    parse_document,
    unparse_document,
)

__all__ = [name for name in dir() if not name.startswith("_")]
