"""Pretty good pair/edge state transfer under the graph Laplacian.

Exact verdicts on paths via cyclotomic integer arithmetic and lattice
parity; numeric evidence on arbitrary graphs via spectral fidelity sweeps.
"""
from .cyclotomic import IntPolynomial, cyclotomic_polynomial, euler_phi
from .decision import (CrossCheck, PathClass, SamePairError, Verdict,
                       WitnessCheck, alternating_cosine_residual,
                       classify_path, cross_check, decide_path_lpgst,
                       path_class, verify_witness)
from .graphs import (Graph, GraphParseError, laplacian, make_path,
                     parse_graph, serialize_graph)
from .pair_states import (FidelityTrace, NotCospectralError, SupportPartition,
                          fidelity_sweep, pair_fidelity, path_support_partition,
                          strong_cospectrality, support, transfer_weights)
from .relation_lattice import (RelationLattice, build_relation_system,
                               integer_kernel, parity_holds)
from .spectra import (Spectrum, eigendecompose, path_spectrum,
                      projector_residuals, transition_matrix)

__version__ = "0.1.0"

__all__ = [
    "CrossCheck", "FidelityTrace", "Graph", "GraphParseError",
    "IntPolynomial", "NotCospectralError", "PathClass", "RelationLattice",
    "SamePairError", "Spectrum", "SupportPartition", "Verdict",
    "WitnessCheck", "alternating_cosine_residual", "build_relation_system",
    "classify_path", "cross_check",
    "cyclotomic_polynomial", "decide_path_lpgst", "eigendecompose",
    "euler_phi", "fidelity_sweep", "integer_kernel", "laplacian",
    "make_path", "pair_fidelity", "parity_holds", "parse_graph",
    "path_class", "path_spectrum", "path_support_partition",
    "projector_residuals", "serialize_graph",
    "strong_cospectrality", "support", "transfer_weights",
    "transition_matrix", "verify_witness",
]
