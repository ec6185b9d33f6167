"""Local structure analysis of finite idempotent algebras.

Classify element pairs into semilattice/majority/affine/unary edges through
the maximal congruences of the subalgebras they generate, build the pair
graph and the subalgebra hypergraph, test their connectivity, discover thin
(directed) edges, synthesize the unified term operations, and compute
bounded-arity reducts.  Every construction is certificate-backed: witness
terms re-evaluate, absence answers come from complete closures.

The top level exports the names the README uses; everything else is
imported from its submodule.
"""

from .algebra import FiniteAlgebra, Limits, OperationTable, align_signatures
from .edges import structure_graph
from .fixtures import fixture
from .generate import SubpowerQuery, subpower_membership
from .synthesis import uniform_ops
from .terms import Term, parse_term
from .thin import thin_graph

__version__ = "0.1.0"
