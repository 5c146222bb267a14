"""Greedy list-decoding of planted cliques in semirandom graphs.

The package imports its submodules on first use (PEP 562), so that
``import srpc.cli`` loads only what the command it runs needs.
"""

__all__ = [
    "CliqueEntry", "CliqueList", "Instance", "PruneParams", "SignedAdjacency",
    "SolverConfig", "batched_inner_products", "batched_membership_degrees",
    "from_edge_list", "generate", "hadamard_rows", "intersection_threshold",
    "majority_vector", "pbiased_values", "prune_fast", "prune_naive",
    "read_graph", "read_instance", "solve", "strategy_clique_union",
    "strategy_erdos_renyi", "strategy_majority_adversary", "threshold_for",
    "write_graph", "write_instance",
]

# The submodule that defines each exported name.
_HOME = {
    "CliqueEntry": "cliquelist", "CliqueList": "cliquelist",
    "SignedAdjacency": "graphs", "from_edge_list": "graphs", "hadamard_rows": "graphs",
    "pbiased_values": "graphs", "read_graph": "graphs", "write_graph": "graphs",
    "Instance": "instances", "generate": "instances", "majority_vector": "instances",
    "read_instance": "instances", "strategy_clique_union": "instances",
    "strategy_erdos_renyi": "instances", "strategy_majority_adversary": "instances",
    "write_instance": "instances",
    "PruneParams": "pruning", "intersection_threshold": "pruning", "prune_fast": "pruning",
    "prune_naive": "pruning",
    "SolverConfig": "solver", "batched_inner_products": "solver",
    "batched_membership_degrees": "solver", "solve": "solver", "threshold_for": "solver",
}
_SUBMODULES = ("bits", "cli", "cliquelist", "errors", "graphs", "harness", "instances",
               "linalg", "pruning", "riplab", "solver")


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _HOME:
        value = globals()[name] = getattr(_submodule(_HOME[name]), name)  # bound once
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _submodule(name):
    # __import__ rather than importlib.import_module: `python -X importtime`
    # lists only the modules that __import__ loads.
    return getattr(__import__(f"{__name__}.{name}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
