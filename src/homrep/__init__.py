"""Matrix action of graph automorphisms on the cycle space.

Builds the integer matrix through which each automorphism of a connected
simple graph acts on a fundamental-cycle basis of the first homology
group, computes the kernel of that action, and decides faithfulness
through a purely structural classifier that is cross-validated against
brute force on every small graph.
"""

from .autgroup import (
    DEFAULT_CAP,
    Automorphism,
    automorphisms,
    identity_automorphism,
)
from .blocks import (
    BlockDecomposition,
    BlockTree,
    PendantTree,
    ahu_code,
    block_decomposition,
    block_tree,
    is_periodic_unicyclic,
    is_simple_cycle_graph,
    pendant_trees,
    two_edge_connected_components,
    unique_cycle,
)
from .classify import Verdict, classify, classify_fast_2edge, witness_kernel_element
from .cycles import (
    OrientedCycle,
    SpanningTreeBasis,
    basis_from_tree,
    betti,
    cycle_coordinates,
    random_spanning_tree_basis,
    spanning_tree_basis,
)
from .errors import CapacityError, DisconnectedGraphError, GraphParseError, HomrepError
from .families import RootedTreeSpec, build_periodic_unicyclic, named_family
from .graphs import (
    Dart,
    Graph,
    enumerate_connected_graphs,
    format_edge_list,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .matrices import determinant
from .rep import (
    RepresentationReport,
    change_of_basis,
    matrix_of,
    representation,
)
from .verify import VerificationSummary, verify_corpus

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP",
    "Automorphism",
    "BlockDecomposition",
    "BlockTree",
    "CapacityError",
    "Dart",
    "DisconnectedGraphError",
    "Graph",
    "GraphParseError",
    "HomrepError",
    "OrientedCycle",
    "PendantTree",
    "RepresentationReport",
    "RootedTreeSpec",
    "SpanningTreeBasis",
    "VerificationSummary",
    "Verdict",
    "ahu_code",
    "automorphisms",
    "basis_from_tree",
    "betti",
    "block_decomposition",
    "block_tree",
    "build_periodic_unicyclic",
    "change_of_basis",
    "classify",
    "classify_fast_2edge",
    "cycle_coordinates",
    "determinant",
    "enumerate_connected_graphs",
    "format_edge_list",
    "identity_automorphism",
    "is_connected",
    "is_periodic_unicyclic",
    "is_simple_cycle_graph",
    "matrix_of",
    "named_family",
    "parse_edge_list",
    "parse_graph6",
    "pendant_trees",
    "random_spanning_tree_basis",
    "representation",
    "spanning_tree_basis",
    "to_graph6",
    "two_edge_connected_components",
    "unique_cycle",
    "verify_corpus",
    "witness_kernel_element",
]
