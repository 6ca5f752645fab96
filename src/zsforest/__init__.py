"""Zero-sum copies of forests in edge-colored complete graphs.

Constructive embedding machinery plus an exhaustive oracle for exact zero-sum
Ramsey numbers at small scale. See the README for the guarantee thresholds.
"""

from .classify import (ColorfulWitness, DominantPartition, NoDominantColor,
                       SwitcherQuad, dominant_partition,
                       maximal_disjoint_switchers, vibrant_vertices)
from .core import (ColoredClique, CyclicInput, DivisibilityViolation,
                   DuplicateEdge, Embedding, Forest, IndexOutOfRange,
                   InsufficientTriples, LeafFamilies, NotBushy,
                   PreconditionFailed, Residue, SimpleGraph, ZeroSumError,
                   build_forest, build_graph, edge_sum, is_bushy, is_prime,
                   select_degree2_triples, select_leaf_families)
from .embedder import (CaseReport, GreedyStuck, MonochromaticityViolated,
                       NoZeroSumCopy, SelectionExhausted, TargetSets,
                       embed_bushy_nonvibrant, embed_bushy_vibrant,
                       embed_nonbushy_nonswitchable,
                       embed_nonbushy_switchable, find_zero_sum_copy,
                       select_target_sets, verify_report)
from .extremal import star_lower_bound_coloring
from .fileio import (FileFormatError, clique_from_text, clique_to_text,
                     forest_from_text, graph_from_text,
                     report_from_text, report_to_text)
from .oracle import (BudgetExceeded, CheckpointMismatch, RamseyResult,
                     brute_zero_sum, compute_ramsey, exact_z2, exact_z3)
from .sumset import EmptyInputSet, MixedModulus, SumsetWitness, iterated_sumset

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CaseReport", "CheckpointMismatch",
    "ColoredClique", "ColorfulWitness", "CyclicInput",
    "DivisibilityViolation", "DominantPartition", "DuplicateEdge", "Embedding",
    "EmptyInputSet", "FileFormatError", "Forest", "GreedyStuck",
    "IndexOutOfRange",
    "InsufficientTriples", "LeafFamilies", "MixedModulus",
    "MonochromaticityViolated", "NoDominantColor", "NotBushy", "NoZeroSumCopy",
    "PreconditionFailed", "RamseyResult", "Residue",
    "SelectionExhausted", "SimpleGraph", "SumsetWitness", "SwitcherQuad",
    "TargetSets", "ZeroSumError", "brute_zero_sum", "build_forest",
    "build_graph", "compute_ramsey",
    "clique_from_text", "clique_to_text",
    "dominant_partition", "edge_sum", "embed_bushy_nonvibrant",
    "embed_bushy_vibrant", "embed_nonbushy_nonswitchable",
    "embed_nonbushy_switchable", "exact_z2", "exact_z3", "find_zero_sum_copy",
    "forest_from_text", "graph_from_text",
    "is_bushy", "is_prime", "iterated_sumset",
    "maximal_disjoint_switchers",
    "report_from_text", "report_to_text",
    "select_degree2_triples", "select_leaf_families", "select_target_sets",
    "star_lower_bound_coloring",
    "verify_report", "vibrant_vertices",
]
