"""Local structure analysis of finite idempotent algebras.

Classify element pairs into semilattice/majority/affine/unary edges through
the maximal congruences of the subalgebras they generate, build the pair
graph and the subalgebra hypergraph, test their connectivity, discover thin
(directed) edges, synthesize the unified term operations, and compute
bounded-arity reducts.  Every construction is certificate-backed: witness
terms re-evaluate, absence answers come from complete closures.
"""

from .algebra import (
    FiniteAlgebra,
    Limits,
    OperationTable,
    align_signatures,
    is_set,
    product_algebra,
    quotient,
    restrict,
    signature_map,
    validate_algebra,
)
from .congruence import (
    Congruence,
    Tolerance,
    absorbing_elements,
    cg,
    classify_simple_quotient,
    congruence_lattice,
    is_abelian,
    link_tolerance,
    maximal_congruences,
    quotient_by,
    tolerance_ops,
)
from .edges import (
    EdgeReport,
    EdgeWitness,
    StructureGraph,
    classify_pair,
    hypergraph,
    hypergraph_connected,
    is_connected,
    is_smooth,
    structure_graph,
    x_connected,
)
from .generate import (
    Absent,
    CapExceeded,
    Found,
    GenerationTrace,
    PairWitness,
    SubpowerQuery,
    all_subalgebras,
    find_pair_witness,
    generate_subalgebra,
    subpower_membership,
    subuniverse,
    term_operations,
    witness_term,
)
from .reduct import BoundedReduct, bounded_reduct, reduct_edge_report
from .synthesis import (
    DistinguishedOps,
    EdgeInventory,
    ThickEdge,
    affine_pair,
    affine_stable_ops,
    build_edge_inventory,
    majority_triple,
    mixed_pair,
    module_projection_fix,
    normalize_identities,
    uniform_ops,
    verify_uniform,
)
from .terms import Identity, Term, check_identity, evaluate, parse_term, realize_table
from .thin import (
    ThinEdge,
    check_thin_necessary,
    find_special_thin_majority,
    find_thin_affine,
    is_minimal_pair,
    synth_sls,
    thin_graph,
    thin_semilattice_order,
)
from .fixtures import FIXTURES, fixture

__version__ = "0.1.0"
