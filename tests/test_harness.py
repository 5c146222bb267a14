import itertools
import math

import numpy as np
import pytest

from srpc import (CliqueEntry, CliqueList, Instance, SolverConfig, batched_inner_products,
                  from_edge_list, generate, solve, threshold_for)
from srpc import strategy_clique_union, strategy_erdos_renyi, strategy_majority_adversary
from srpc import harness
from srpc.errors import InternalInvariantError, ParameterError
from srpc.harness import (ExperimentGrid, adversary_demo, evaluate, grid_csv,
                          report_json, resolve_k_rule, run_grid)


def solved_instance(n=200, k=70, p=0.5, seed=30):
    inst = generate(n, k, p, strategy_erdos_renyi(), seed=seed)
    result = solve(inst.graph, k, p, SolverConfig(seed=seed + 1))
    return inst, result


def test_evaluate_recovered():
    inst, result = solved_instance()
    ev = evaluate(inst, result)
    assert ev.recovered
    assert ev.entries_matching_planted == 1
    assert ev.list_size == len(result.entries)
    assert ev.all_entries_valid_cliques
    assert ev.stage_counts["rounds"] == result.stats["rounds"]
    # skipped rounds are told apart from rounds that ran and came up empty
    skipped = ev.stage_counts["rounds_index_not_clique"]
    assert skipped == result.stats["rounds_index_not_clique"]
    assert 0 < skipped and ev.stage_counts["rounds_nonempty"] <= ev.stage_counts["rounds"] - skipped


# K6 on 0..5 plus vertex 6 adjacent to 0..3, vertex 7 isolated.  At p = 1/2 and
# order 1, the round of vertex i admits j when <s_i, s_j> >= k/2: rounds 0..3
# admit 0..6 (7 members) at k = 6 and 7, rounds 4 and 5 admit 0..5, round 6
# admits 0..3 and 6, round 7 only 7.  Refine keeps 0..5 of 0..6 at k = 6, but
# only 0..3 at k = 7, where 4, 5 and 6 have fewer than 6 neighbors in 0..6.
SIZES_GRAPH = from_edge_list(8, list(itertools.combinations(range(6), 2))
                             + [(v, 6) for v in range(4)])


@pytest.mark.filterwarnings("ignore:intersection threshold:UserWarning")
@pytest.mark.parametrize("k, raw, refined, entries", [
    (6, 7, 6, [tuple(range(6))]),
    (7, 7, 4, []),
])
def test_solve_and_evaluate_report_raw_and_refined_size_maxima(k, raw, refined, entries):
    result = solve(SIZES_GRAPH, k, 0.5, SolverConfig(order=1, rounds=40, seed=0))
    assert result.vertex_sets() == entries
    assert (result.stats["raw_size_max"], result.stats["refined_size_max"]) == (raw, refined)
    inst = Instance(graph=SIZES_GRAPH, n=8, k=k, p=0.5, planted=tuple(range(6)),
                    adversary="erdos_renyi")
    counts = evaluate(inst, result).stage_counts
    assert (counts["raw_size_max"], counts["refined_size_max"]) == (raw, refined)


def test_size_maxima_are_zero_when_no_round_is_multiplied():
    # no edges: every order-2 round samples a non-adjacent pair and is skipped
    result = solve(from_edge_list(8, []), 2, 0.5, SolverConfig(order=2, rounds=10))
    assert result.stats["rounds_index_not_clique"] == 10
    assert result.stats["raw_size_max"] == result.stats["refined_size_max"] == 0


def test_evaluate_empty_list():
    inst, result = solved_instance()
    ev = evaluate(inst, CliqueList([], dict(result.stats)))
    assert not ev.recovered and ev.list_size == 0


def test_evaluate_spurious_replay_matches_planted_alpha_measurement():
    # the replayed max |S_alpha \ S*| must dominate what any single planted
    # alpha admits, and equal a direct recomputation
    inst, result = solved_instance(seed=31)
    ev = evaluate(inst, result)
    from srpc.solver import iter_round_members
    cfg = SolverConfig.from_dict(result.stats["config"])
    planted = set(inst.planted)
    direct = 0
    for _, members in iter_round_members(inst.graph, inst.k, inst.p, cfg):
        for row in members:
            direct = max(direct, len(set(np.flatnonzero(row).tolist()) - planted))
    assert ev.max_spurious == direct


def test_evaluate_clique_union_flags_indistinguishable_decoys():
    inst = generate(400, 100, 0.5, strategy_clique_union(), seed=32)
    result = solve(inst.graph, 100, 0.5, SolverConfig(seed=33))
    ev = evaluate(inst, result)
    assert ev.recovered
    assert ev.list_size == 400 // 100  # every decoy clique is a valid answer
    assert ev.entries_matching_planted == 1
    assert ev.all_entries_valid_cliques


def test_resolve_k_rule():
    assert resolve_k_rule("360", 2000) == 360
    assert resolve_k_rule("8*ceilsqrt", 2000) == 8 * math.ceil(math.sqrt(2000))
    assert resolve_k_rule("2*sqrt", 400) == 40
    expected = math.ceil(0.5 * math.sqrt(400) * math.log(400) ** 2)
    assert resolve_k_rule("0.5*sqrt*log^2", 400) == expected
    with pytest.raises(ParameterError):
        resolve_k_rule("sqrt(n)", 100)
    # formula rules are not clamped into [1, n]; ExperimentGrid refuses such a k
    assert resolve_k_rule("8*ceilsqrt", 50) == 64
    assert resolve_k_rule("0*sqrt", 100) == 0
    with pytest.raises(ParameterError, match="no finite k"):
        resolve_k_rule("9" * 400 + "*sqrt", 100)
    with pytest.raises(ParameterError, match="no finite k at n=30"):  # log(30)**1000 overflows
        resolve_k_rule("8*sqrt*log^1000", 30)
    # log(2) < 1, so a large enough exponent underflows to k = 0; the grid refuses it
    assert resolve_k_rule("8*sqrt*log^3000", 2) == 0
    with pytest.raises(ParameterError, match="k from k_rules entry"):
        ExperimentGrid(ns=(2,), k_rules=("8*sqrt*log^3000",), ps=(0.5,),
                       solvers=(SolverConfig(),), adversaries=(("erdos_renyi", {}),))


def test_grid_single_cell_complete_recovery():
    grid = ExperimentGrid(ns=(30,), k_rules=("30",), ps=(0.5,),
                          solvers=(SolverConfig(),),
                          adversaries=(("erdos_renyi", {}),),
                          trials=3, seed=1)
    rows = run_grid(grid)
    assert len(rows) == 1
    assert rows[0]["success_rate"] == 1.0  # n = k: the whole graph is the clique


@pytest.mark.parametrize("threads", [0, -1, True])
def test_run_grid_refuses_bad_thread_count(threads):
    grid = ExperimentGrid(ns=(30,), k_rules=("30",), ps=(0.5,), solvers=(SolverConfig(),),
                          adversaries=(("erdos_renyi", {}),), trials=1, seed=1)
    with pytest.raises(ParameterError, match="threads"):
        run_grid(grid, threads=threads)


def test_grid_reruns_are_byte_identical_and_thread_invariant():
    grid = ExperimentGrid(ns=(120,), k_rules=("40",), ps=(0.5,),
                          solvers=(SolverConfig(),),
                          adversaries=(("erdos_renyi", {}),),
                          trials=4, seed=2)
    a = grid_csv(run_grid(grid, threads=1))
    b = grid_csv(run_grid(grid, threads=1))
    c = grid_csv(run_grid(grid, threads=4))
    assert a == b == c


def test_grid_counts_errored_trials_apart(capsys, monkeypatch):
    def generate_or_raise(n, k, p, strategy, seed):
        if strategy.name == "clique_union":  # two kinds of error, by trial seed
            raise (RuntimeError if seed < 2 ** 31 else MemoryError)("the adversary failed")
        if strategy.name == "majority":
            raise ValueError("the adversary failed")
        return generate(n, k, p, strategy, seed)
    monkeypatch.setattr(harness, "generate", generate_or_raise)
    grid = ExperimentGrid(ns=(40,), k_rules=("20",), ps=(0.5,),
                          solvers=(SolverConfig(),),
                          adversaries=(("erdos_renyi", {}), ("clique_union", {}),
                                       ("majority", {"m": 3})),
                          trials=6, seed=4)
    rows = run_grid(grid, threads=1)
    assert [row["errors"] for row in rows] == [0, 6, 6]
    assert [row["error_kinds"] for row in rows] == ["", "MemoryError;RuntimeError",
                                                    "ValueError"]
    assert rows[1]["successes"] == 0
    err = capsys.readouterr().err
    assert "grid cell 1: 6 of 6 trials raised" in err
    assert err.count("Traceback") == 2  # the first traceback of each cell only
    csv_text = grid_csv(rows)
    assert csv_text.splitlines()[0].split(",")[10:12] == ["errors", "error_kinds"]
    assert csv_text.splitlines()[2].split(",")[10:12] == ["6", "MemoryError;RuntimeError"]
    assert grid_csv(run_grid(grid, threads=2)) == csv_text


@pytest.mark.parametrize("adversary", [("majority", {"m": 4}), ("majority", {}),
                                       ("erdos_renyi", {"m": 3}), ("bogus", {})],
                         ids=["even-m", "missing-m", "unknown-key", "unknown-name"])
def test_grid_built_directly_refuses_a_bad_adversary(adversary):
    # the error from_dict gives for the same entry, before any trial runs
    with pytest.raises(ParameterError, match="grid adversaries entry"):
        ExperimentGrid(ns=(40,), k_rules=("20",), ps=(0.5,), solvers=(SolverConfig(),),
                       adversaries=(("erdos_renyi", {}), adversary), trials=3)
    name, params = adversary
    with pytest.raises(ParameterError, match="grid adversaries entry"):
        ExperimentGrid.from_dict({"ns": [40], "k_rules": ["20"],
                                  "adversaries": [{"name": name, **params}]})


def test_grid_success_monotone_in_k():
    # success rate cannot drop as the planted clique grows
    grid = ExperimentGrid(ns=(512,), k_rules=("2*ceilsqrt", "4*ceilsqrt", "8*ceilsqrt"),
                          ps=(0.5,), solvers=(SolverConfig(),),
                          adversaries=(("erdos_renyi", {}),), trials=10, seed=3)
    rows = run_grid(grid)
    rates = [row["success_rate"] for row in rows]
    assert rates == sorted(rates)
    assert rates[-1] >= 0.9


def test_grid_from_dict_and_cells():
    grid = ExperimentGrid.from_dict({
        "ns": [100, 200], "k_rules": ["20", "4*ceilsqrt"], "ps": [0.5, 0.3],
        "solvers": [{"order": 3}], "adversaries": [{"name": "erdos_renyi"}],
        "trials": 2, "seed": 9})
    cells = grid.cells()
    assert len(cells) == 8
    assert {c["k"] for c in cells if c["n"] == 100 and c["k_rule"] == "4*ceilsqrt"} == {40}
    # unset solver keys take SolverConfig's own defaults
    grid = ExperimentGrid.from_dict({"ns": [100], "k_rules": ["20"],
                                     "solvers": [{}, {"reps": 2}]})
    assert grid.solvers == (SolverConfig(), SolverConfig(reps=2))


GRID_DOC = {"ns": [100], "k_rules": ["20"]}


@pytest.mark.parametrize("trials", [0, -2, True, 2.0, "3"])
def test_grid_from_dict_refuses_bad_trials(trials):
    with pytest.raises(ParameterError, match="trials"):
        ExperimentGrid.from_dict(dict(GRID_DOC, trials=trials))


@pytest.mark.parametrize("key", ["sead", "trails"])
def test_grid_from_dict_refuses_unknown_top_level_keys(key):
    with pytest.raises(ParameterError, match=f"'{key}'"):
        ExperimentGrid.from_dict(dict(GRID_DOC, **{key: 3}))


@pytest.mark.parametrize("entry, key", [({"rounds": 5}, "rounds"),
                                        ({"order": 2, "bogus": 1}, "bogus"),
                                        ({"seed": 3}, "seed")])
def test_grid_from_dict_refuses_unknown_solver_keys(entry, key):
    with pytest.raises(ParameterError, match=f"'{key}'"):
        ExperimentGrid.from_dict(dict(GRID_DOC, solvers=[entry]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_json_refuses_non_finite_numbers(value):
    with pytest.raises(InternalInvariantError):
        report_json({"stats": {"tau": value}})
    assert report_json({"tau": 0.5}) == '{\n  "tau": 0.5\n}\n'


def test_adversary_demo_solves_at_the_default_round_constant(monkeypatch):
    configs = []
    solve_as_given = harness.solver.solve

    def recording_solve(graph, k, p, cfg):
        configs.append(cfg)
        return solve_as_given(graph, k, p, cfg)
    monkeypatch.setattr(harness.solver, "solve", recording_solve)
    adversary_demo(n=64, k=16, m=1, seed=4)
    assert configs == [SolverConfig(order=3, reps=1, seed=5)]
    assert configs[0].c_rounds == SolverConfig().c_rounds


def test_adversary_demo_m1_min_correlation_is_n():
    report = adversary_demo(n=64, k=16, m=1, seed=4)
    assert report["min_correlation"] == 64  # w equals the single vector
    assert report["order1_chosen_total"] == 1


def test_adversary_demo_contamination_and_separation():
    # order 1 admits decoys into most chosen vertices' candidate sets while
    # order 3 still recovers the planted set
    report = adversary_demo(n=400, k=80, m=21, seed=5)
    assert report["order1_any_chosen_contaminated"]
    assert report["order1_chosen_contaminated"] >= report["order1_chosen_total"] // 2
    assert report["order3_recovered"]
    assert report["fitted_constant_mean"] > 0.5
    # per-vertex counts match a set intersection of each candidate set with the decoys
    inst = generate(400, 80, 0.5, strategy_majority_adversary(21), seed=5)
    decoys = set(inst.details["decoys"])
    expected = []
    for i in inst.details["chosen"]:
        row = batched_inner_products(inst.graph, [(i,)])[0]
        members = set(np.nonzero(row >= threshold_for(80, 0.5, 1))[0].tolist())
        expected.append({"vertex": i, "decoys_admitted": len(members & decoys)})
    assert report["per_vertex"] == expected


def test_adversary_demo_validation():
    with pytest.raises(ParameterError):
        adversary_demo(n=64, k=16, m=2, seed=0)
    with pytest.raises(ParameterError):
        adversary_demo(n=64, k=3, m=5, seed=0)
    with pytest.raises(ParameterError):
        adversary_demo(n=64, k=16, m=3.0, seed=0)
