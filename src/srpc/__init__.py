"""Greedy list-decoding of planted cliques in semirandom graphs."""

from .cliquelist import CliqueEntry, CliqueList
from .graphs import (SignedAdjacency, from_edge_list, hadamard_rows, pbiased_values,
                     read_graph, write_graph)
from .instances import (Instance, generate, majority_vector, read_instance,
                        strategy_clique_union, strategy_erdos_renyi,
                        strategy_majority_adversary, write_instance)
from .pruning import PruneParams, intersection_threshold, prune_fast, prune_naive
from .solver import (SolverConfig, batched_inner_products, batched_membership_degrees,
                     solve, threshold_for)

__all__ = [
    "CliqueEntry", "CliqueList", "Instance", "PruneParams", "SignedAdjacency",
    "SolverConfig", "batched_inner_products", "batched_membership_degrees",
    "from_edge_list", "generate", "hadamard_rows", "intersection_threshold",
    "majority_vector", "pbiased_values", "prune_fast", "prune_naive",
    "read_graph", "read_instance", "solve", "strategy_clique_union",
    "strategy_erdos_renyi", "strategy_majority_adversary", "threshold_for",
    "write_graph", "write_instance",
]
