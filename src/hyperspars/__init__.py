"""Approximate directed sparsest cut (product demands) and hyperedge
expansion on directed hypergraphs, via an SDP primal-dual solver that emits
either a cut or a machine-checkable dual lower-bound certificate.
"""

from .driver import SolverConfig, binary_search, run_algorithm1, run_both_sides
from .hypergraph import (
    DirectedHypergraph,
    Hyperedge,
    expansion,
    parse_dhg,
    reduce_to_digraph,
    serialize_dhg,
    sparsity,
)
from .oracle import OracleConfig, run_oracle
from .reference import GeneratorSpec, brute_force_expansion, brute_force_sparsest, generate
from .sdpcore import GramState

__version__ = "0.1.0"

__all__ = [
    "DirectedHypergraph",
    "Hyperedge",
    "GeneratorSpec",
    "GramState",
    "OracleConfig",
    "SolverConfig",
    "binary_search",
    "brute_force_expansion",
    "brute_force_sparsest",
    "expansion",
    "generate",
    "parse_dhg",
    "reduce_to_digraph",
    "run_algorithm1",
    "run_both_sides",
    "run_oracle",
    "serialize_dhg",
    "sparsity",
    "__version__",
]
