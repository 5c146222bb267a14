"""The parameter contract: every entry point refuses what ``evaluate`` refuses.

Each refusal row calls one entry point with one bad value for one field and
expects a :class:`ParameterError` (an :class:`InputError` for a document)
whose message names the field.  Each entry point also has a valid row whose
resulting document goes through ``report_json`` without raising.
"""

import math
import re
from dataclasses import asdict

import pytest

import srpc
from srpc import (CliqueEntry, CliqueList, PruneParams, SolverConfig, from_edge_list,
                  generate, intersection_threshold, linalg, pbiased_values, riplab, solve,
                  strategy_erdos_renyi, strategy_majority_adversary, threshold_for)
from srpc.errors import InputError, ParameterError
from srpc.harness import ExperimentGrid, evaluate, report_json
from tests.test_startup import srpc_modules_after

INSTANCE = generate(60, 30, 0.5, strategy_erdos_renyi(), seed=5)
TENSORED = riplab.build_tensored(5, 2, 16, riplab.RademacherBase(), seed=1)


def solved_stats(**stats) -> dict:
    result = solve(INSTANCE.graph, 30, 0.5, SolverConfig(c_rounds=1.0, seed=2))
    return dict(result.stats, **stats)


def evaluate_doc(stats: dict) -> dict:
    return evaluate(INSTANCE, CliqueList([], stats)).to_dict()


def grid_doc(**fields) -> dict:
    grid = ExperimentGrid(**{"ns": (30,), "k_rules": ("10",), "ps": (0.5,),
                             "solvers": (SolverConfig(),),
                             "adversaries": (("erdos_renyi", {}),), "trials": 1,
                             "seed": 0, **fields})
    return {"cells": [dict(cell, solver=cell["solver"].to_dict()) for cell in grid.cells()]}


def instance_doc(inst) -> dict:
    return {"n": inst.n, "k": inst.k, "p": inst.p, "seed": inst.seed,
            "planted": list(inst.planted), "params": inst.adversary_params}


def opnorm_doc(report) -> dict:
    return {"value": report.value, "support": list(report.support),
            "supports_checked": report.supports_checked, "residual": report.residual}


# entry point -> (call from {field: value} overrides to a document, valid fields)
ENTRY_POINTS = {
    "solve": lambda k=30, p=0.5: solve(INSTANCE.graph, k, p,
                                       SolverConfig(c_rounds=1.0)).to_dict(),
    "threshold_for": lambda k=30, p=0.5: {"threshold": threshold_for(k, p)},
    "SolverConfig": lambda **fields: SolverConfig(**fields).to_dict(),
    "num_rounds": lambda k=30: {"rounds": SolverConfig().num_rounds(60, k)},
    "PruneParams": lambda **fields: asdict(PruneParams(**{"n": 40, "p": 0.5, "delta": 3,
                                                          **fields})),
    "intersection_threshold": lambda n=40, p=0.5: {"delta": intersection_threshold(n, p)},
    "pbiased_values": lambda p=0.3: {"p_plus": pbiased_values(INSTANCE.graph.signs, p).max()},
    "from_edge_list": lambda n=4: {"signs": from_edge_list(n, [(0, 1)]).signs.tolist()},
    "generate": lambda **fields: instance_doc(generate(**{
        "n": 40, "k": 10, "p": 0.5, "strategy": strategy_erdos_renyi(), "seed": 1, **fields})),
    "majority": lambda **fields: strategy_majority_adversary(**{"m": 3, **fields}).params(),
    "ExperimentGrid": lambda **fields: grid_doc(**fields),
    "Backend": lambda **fields: asdict(linalg.Backend("blocked", **fields)),
    "build_tensored": lambda **fields: {"columns": len(riplab.build_tensored(**{
        "k": 5, "t": 2, "q": 16, "base_dist": riplab.RademacherBase(), "seed": 1,
        **fields}).columns)},
    "sparse_opnorm_sampled": lambda r=2, trials=10, seed=0: opnorm_doc(
        riplab.sparse_opnorm_sampled(TENSORED, r, trials, seed)),
    "rip_deviation_sampled": lambda r=2, trials=10, seed=0: {
        "deviation": riplab.rip_deviation_sampled(TENSORED.values / 4, r, trials, seed)},
    "sparse_opnorm_exhaustive": lambda r=2: opnorm_doc(
        riplab.sparse_opnorm_exhaustive(TENSORED, r)),
    "CliqueEntry.from_dict": lambda vertex=3: CliqueEntry.from_dict(
        {"vertices": [1, vertex]}).to_dict(),
    "evaluate": lambda **stats: evaluate_doc(solved_stats(**stats)),
    "evaluate.config": lambda **config: evaluate_doc(solved_stats(
        config=dict(solved_stats()["config"], **config))),
}

COMMON = [("bool", True), ("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf)]


def bad_values(kind, low=None, high=None):
    if kind == "int":
        out = COMMON + [("fraction", low + 0.5), ("integral-float", float(low)),
                        ("string", str(low)), ("below", low - 1)]
        return out + ([("above", high + 1)] if high is not None else [])
    if kind == "probability":
        return COMMON + [("zero", 0.0), ("one", 1.0), ("string", "0.5"), ("negative", -0.5)]
    return COMMON + [("zero", 0.0), ("negative", -1.0), ("string", "1")]  # positive


# (entry point, keyword, field named in the message, kind, low, high)
FIELDS = [
    ("solve", "k", "k", "int", 1, 60), ("solve", "p", "p", "probability"),
    ("threshold_for", "k", "k", "int", 1), ("threshold_for", "p", "p", "probability"),
    ("SolverConfig", "order", "order", "int", 1, 3), ("SolverConfig", "reps", "reps", "int", 1),
    ("SolverConfig", "rounds", "rounds", "int", 1), ("SolverConfig", "seed", "seed", "int", 0),
    ("SolverConfig", "c_rounds", "c_rounds", "positive"),
    ("num_rounds", "k", "k", "int", 1, 60),
    ("PruneParams", "n", "n", "int", 2, 1 << 15), ("PruneParams", "p", "p", "probability"),
    ("PruneParams", "delta", "delta", "int", 0),
    ("PruneParams", "batch_size", "batch_size", "int", 1),
    ("intersection_threshold", "n", "n", "int", 2, 1 << 15),
    ("intersection_threshold", "p", "p", "probability"),
    ("pbiased_values", "p", "p", "probability"),
    ("from_edge_list", "n", "n", "int", 1),
    ("generate", "n", "n", "int", 1, 1 << 15), ("generate", "k", "k", "int", 1, 40),
    ("generate", "p", "p", "probability"), ("generate", "seed", "seed", "int", 0),
    ("majority", "m", "m", "int", 1),
    ("ExperimentGrid", "trials", "trials", "int", 1),
    ("ExperimentGrid", "seed", "seed", "int", 0),
    ("Backend", "block_size", "block_size", "int", 1),
    ("Backend", "cutoff", "cutoff", "int", 1),
    ("build_tensored", "t", "t", "int", 1, 3), ("build_tensored", "k", "k", "int", 3),
    ("build_tensored", "q", "q", "int", 1), ("build_tensored", "seed", "seed", "int", 0),
    ("sparse_opnorm_sampled", "r", "r", "int", 1, 10),
    ("sparse_opnorm_sampled", "trials", "trials", "int", 1),
    ("sparse_opnorm_sampled", "seed", "seed", "int", 0),
    ("rip_deviation_sampled", "r", "r", "int", 1, 10),
    ("rip_deviation_sampled", "trials", "trials", "int", 1),
    ("rip_deviation_sampled", "seed", "seed", "int", 0),
    ("sparse_opnorm_exhaustive", "r", "r", "int", 1, 10),
    ("CliqueEntry.from_dict", "vertex", "entry vertex", "int", 0),
    ("evaluate", "n", "n", "int", 60, 60), ("evaluate", "k", "k", "int", 1, 60),
    ("evaluate", "p", "p", "probability"),
    ("evaluate.config", "threshold", "threshold", "positive"),
    ("evaluate.config", "c_rounds", "c_rounds", "positive"),
    ("evaluate.config", "seed", "seed", "int", 0),
]


def refusal_rows():
    for entry, keyword, field, kind, *bounds in FIELDS:
        for label, value in bad_values(kind, *bounds):
            yield pytest.param(entry, {keyword: value}, field,
                               id=f"{entry}-{keyword}-{label}")
    # entries that take their values as tuples
    for label, value in bad_values("int", 1, 1 << 15):
        yield pytest.param("ExperimentGrid", {"ns": (value,)}, "ns entry",
                           id=f"ExperimentGrid-ns-{label}")
    for label, value in bad_values("probability"):
        yield pytest.param("ExperimentGrid", {"ps": (value,)}, "ps entry",
                           id=f"ExperimentGrid-ps-{label}")
    # a p so small that the threshold k * p_plus**4 / 2 overflows
    for p in (1e-200, 5e-324):
        yield pytest.param("solve", {"p": p}, "threshold", id=f"solve-p-{p}")
    # an echoed cutoff other than the model's k * p_plus**4 / 2 = 15 at k=30, p=1/2
    for value in (14.0, 15.000000000000002, 1e300):
        yield pytest.param("evaluate.config", {"threshold": value}, "threshold",
                           id=f"evaluate.config-threshold-{value}")
    # integral floats and fractions inside the range
    for entry, keyword, value in [("solve", "k", 30.0), ("solve", "k", 2.5),
                                  ("threshold_for", "k", 30.0), ("threshold_for", "k", 2.5),
                                  ("PruneParams", "n", 40.5), ("PruneParams", "delta", 2.5),
                                  ("PruneParams", "batch_size", 2.5),
                                  ("intersection_threshold", "n", 40.0),
                                  ("generate", "n", 40.0), ("generate", "k", 10.0),
                                  ("generate", "seed", 1.5)]:
        yield pytest.param(entry, {keyword: value}, keyword, id=f"{entry}-{keyword}-{value}")


@pytest.mark.parametrize("entry, fields, field", refusal_rows())
def test_entry_point_refuses_bad_value_naming_the_field(entry, fields, field):
    error = InputError if entry.startswith("evaluate") else ParameterError
    with pytest.raises(error) as info:
        ENTRY_POINTS[entry](**fields)
    assert re.search(rf"(^|: ){re.escape(field)}\b", str(info.value)), str(info.value)


ACCEPTED = [
    ("solve", {"p": 0.3}), ("threshold_for", {"p": 1e-150}),
    ("SolverConfig", {"rounds": 5}), ("num_rounds", {"k": 60}),
    ("PruneParams", {"batch_size": 7}), ("intersection_threshold", {"p": 1e-300}),
    ("pbiased_values", {"p": 0.7}), ("from_edge_list", {"n": 2}),
    ("generate", {"p": 0.3, "seed": 2 ** 40}), ("majority", {"m": 1}),
    ("ExperimentGrid", {"ps": (0.3, 0.7)}), ("Backend", {"cutoff": 1}),
    ("build_tensored", {"t": 3}), ("sparse_opnorm_sampled", {"r": 10}),
    ("rip_deviation_sampled", {"seed": 2 ** 40}),
    ("sparse_opnorm_exhaustive", {"r": 10}), ("CliqueEntry.from_dict", {"vertex": 0}),
    ("evaluate", {"p": 0.3, "config": dict(solved_stats()["config"],
                                           threshold=threshold_for(30, 0.3))}),
    ("evaluate.config", {"threshold": 15.0}),
]


@pytest.mark.parametrize("entry, fields", ACCEPTED, ids=[entry for entry, _ in ACCEPTED])
def test_accepted_values_give_json_documents(entry, fields):
    report_json(ENTRY_POINTS[entry](**fields))


# The package's public names.  Removing one is a deliberate edit to this list.
PUBLIC_SURFACE = [
    "CliqueEntry", "CliqueList", "Instance", "PruneParams", "SignedAdjacency",
    "SolverConfig", "batched_inner_products", "batched_membership_degrees",
    "from_edge_list", "generate", "hadamard_rows", "intersection_threshold",
    "majority_vector", "pbiased_values", "prune_fast", "prune_naive",
    "read_graph", "read_instance", "solve", "strategy_clique_union",
    "strategy_erdos_renyi", "strategy_majority_adversary", "threshold_for",
    "write_graph", "write_instance",
]


def test_public_surface():
    assert srpc.__all__ == PUBLIC_SURFACE
    assert all(callable(getattr(srpc, name)) for name in srpc.__all__)


def test_package_surface_resolves_on_first_use():
    namespace = {}
    exec("from srpc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_SURFACE)
    assert set(PUBLIC_SURFACE) <= set(dir(srpc))
    assert srpc.solve is srpc.solver.solve
    assert srpc_modules_after("import srpc\nassert srpc.linalg.__name__ == 'srpc.linalg'") \
        == {"srpc", "srpc.errors", "srpc.linalg"}
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        srpc.no_such_name
