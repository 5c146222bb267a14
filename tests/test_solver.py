import itertools
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from srpc import (SolverConfig, batched_inner_products, batched_membership_degrees,
                  from_edge_list, generate, pbiased_values, solve,
                  strategy_clique_union, strategy_erdos_renyi,
                  strategy_majority_adversary, threshold_for)
from srpc import harness, linalg, solver
from srpc.errors import InputError, ParameterError
from srpc.graphs import row_products
from srpc.solver import MAX_ALPHA_ROWS, _refine_sets
from tests.test_graphs import random_graph


def complete_graph(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def raw_members(graph, alphas, tau):
    """A round's raw set: the vertices whose inner product with every product row is >= tau."""
    table = batched_inner_products(graph, alphas)
    return tuple(np.flatnonzero(np.all(table >= tau, axis=0)).tolist())


def refined(graph, members, k):
    """The single degree sweep that solve runs, on one set."""
    (kept,) = _refine_sets(graph, [members], k)
    return tuple(kept.tolist())


def test_threshold_values():
    # k * p_plus**(order+1) / 2, with p_plus**2 = 1/4 at p = 4/5 and 4 at p = 1/5
    assert [threshold_for(100, 0.5, order) for order in (1, 2, 3)] == [50.0] * 3
    assert [threshold_for(100, 4 / 5, order) for order in (1, 2, 3)] == [12.5, 6.25, 3.125]
    assert [threshold_for(100, 1 / 5, order) for order in (1, 2, 3)] == [200.0, 400.0, 800.0]
    with pytest.raises(ParameterError):
        threshold_for(0, 0.5, 3)
    with pytest.raises(ParameterError):
        threshold_for(10, 1.0, 3)
    for order in (0, 4):
        with pytest.raises(ParameterError, match="order"):
            threshold_for(10, 0.5, order)


def test_candidate_set_complete_graph():
    g = complete_graph(9)
    assert raw_members(g, [(0, 3, 5)], tau=threshold_for(4, 0.5, 3)) == tuple(range(9))


def test_candidate_set_empty_graph_oracle():
    # brute-force oracle: all inner products of the row product on the empty
    # graph, frozen alongside a direct recomputation
    g = from_edge_list(6, [])
    alpha = (0, 1, 2)
    row = np.prod(g.signs[list(alpha)].astype(np.int64), axis=0)
    direct = {j for j in range(6) if int(row @ g.signs[j].astype(np.int64)) >= 2}
    assert direct == {0, 1, 2}  # computed by hand: products are +-2
    assert set(raw_members(g, [alpha], tau=2)) == direct


def test_candidate_set_contains_planted_for_planted_alpha():
    # conditioning the sampled triple inside the planted set captures S*
    hits = 0
    for seed in range(20):
        inst = generate(300, 120, 0.5, strategy_erdos_renyi(), seed=seed)
        alpha = inst.planted[:3]
        members = raw_members(inst.graph, [alpha], threshold_for(inst.k, 0.5, 3))
        if set(inst.planted) <= set(members):
            hits += 1
    assert hits >= 19


def test_candidate_completeness_matches_realized_inner_products():
    # S* is captured exactly when every out-block inner product clears the
    # margin; both sides computed directly on the instance
    inst = generate(200, 60, 0.5, strategy_erdos_renyi(), seed=5)
    planted = list(inst.planted)
    rest = np.setdiff1d(np.arange(200), planted)
    alpha = planted[:3]
    tau = threshold_for(60, 0.5, 3)
    out = inst.graph.signs[:, rest].astype(np.int64)
    row_out = np.prod(out[alpha], axis=0)
    captured = set(inst.planted) <= set(raw_members(inst.graph, [alpha], tau))
    worst = min(int(row_out @ out[j]) for j in planted)
    assert captured == (60 + worst >= tau)


def test_monotone_in_tau():
    g = random_graph(40, 3)
    sizes = []
    for tau in (1, 5, 10, 20, 40):
        sizes.append(len(raw_members(g, [(0, 1)], tau)))
    assert sizes == sorted(sizes, reverse=True)


def test_refine_keeps_exact_clique():
    g = complete_graph(6)
    assert refined(g, tuple(range(6)), 6) == tuple(range(6))


def test_refine_drops_isolated_vertex():
    k = 5
    g = from_edge_list(6, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert refined(g, tuple(range(6)), k) == tuple(range(5))


def test_refine_single_pass_against_original_members():
    # one sweep: degrees are counted against the incoming member set
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    g = from_edge_list(5, edges)
    # degree-in-set: 0->2, 1->2, 2->3, 3->1; threshold k-1 = 2 removes only 3
    assert refined(g, (0, 1, 2, 3), 3) == (0, 1, 2)


def test_refine_sweeps_many_sets_without_the_oracle(monkeypatch):
    g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3)])

    def no_oracle(*args, **kwargs):
        raise AssertionError("refine must not call the oracle")

    for name in ("matmul", "sign_matmul"):
        monkeypatch.setattr(linalg, name, no_oracle)
    kept = _refine_sets(g, [(0, 1, 2, 3), (2, 3), (0, 1, 2)], 3)
    assert [k.tolist() for k in kept] == [[0, 1, 2], [], [0, 1, 2]]
    assert _refine_sets(g, [], 3) == []


def test_refine_matches_batched_membership_degrees():
    # the induced-submatrix sweep against the 0/1 degree product it replaced
    n = 90
    rng = np.random.default_rng(0)
    for seed in range(3):
        g = random_graph(n, 40 + seed, p=float(rng.uniform(0.3, 0.9)))
        sets = [(), (int(rng.integers(n)),), tuple(range(n)),
                tuple(np.sort(rng.choice(n, size=n - 2, replace=False)).tolist())]
        sets += [tuple(np.sort(rng.choice(n, size=int(rng.integers(2, n)),
                                          replace=False)).tolist()) for _ in range(6)]
        degrees = batched_membership_degrees(g, sets)
        for k in (1, 2, 10, 40, 60, n):
            kept = _refine_sets(g, sets, k)
            for members, deg, got in zip(sets, degrees, kept):
                members = np.asarray(members, dtype=np.int64)
                assert np.array_equal(got, members[deg[members] >= k - 1])


def test_refine_never_removes_planted_with_small_contamination():
    inst = generate(240, 80, 0.5, strategy_erdos_renyi(), seed=6)
    planted = set(inst.planted)
    extras = [v for v in range(240) if v not in planted][:5]
    members = tuple(sorted(planted | set(extras)))
    kept = refined(inst.graph, members, 80)
    assert planted <= set(kept)
    # spurious vertices with under-threshold degree are gone
    adj = (inst.graph.signs > 0) & ~np.eye(240, dtype=bool)  # self is not a neighbor
    for j in extras:
        degree = sum(adj[j, v] for v in members)
        if degree < 79:
            assert j not in kept


@pytest.mark.filterwarnings("ignore:intersection threshold:UserWarning")
def test_refine_closes_a_core_that_misses_a_planted_vertex(monkeypatch):
    # planted clique 0..9 (k = 10); spurious 10 is adjacent to 1..5 and 11 to
    # 6..9.  The raw set {1..11} misses vertex 0.  The sweep keeps 1..9 (each
    # has 9 planted entries plus one spurious neighbor) and drops 10 and 11;
    # the closure of 1..9 adds 0 back and verifies the planted clique.
    edges = list(itertools.combinations(range(10), 2))
    edges += [(v, 10) for v in range(1, 6)] + [(v, 11) for v in range(6, 10)]
    g = from_edge_list(12, edges)
    raw = np.zeros((1, 12), dtype=bool)
    raw[0, 1:] = True

    def one_round(graph, k, p, cfg, counters=None):
        yield np.zeros((1, 1, 1), dtype=np.int64), raw

    monkeypatch.setattr(solver, "iter_round_members", one_round)
    result = solve(g, 10, 0.5, SolverConfig(order=1, rounds=1))
    assert result.vertex_sets() == [tuple(range(10))]
    stats = result.stats
    assert (stats["raw_size_max"], stats["refined_size_max"]) == (11, 9)
    assert (stats["distinct_refined"], stats["closure_added_max"]) == (1, 1)


def test_verify_accepts_planted_and_rejects_near_clique():
    inst = generate(60, 12, 0.5, strategy_erdos_renyi(), seed=7)
    assert inst.graph.is_clique(inst.planted)

    # complete graph minus one edge fails
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if (i, j) != (3, 7)]
    g = from_edge_list(12, edges)
    assert not g.is_clique(tuple(range(12)))
    assert g.is_clique(tuple(range(7)))  # the missing edge (3, 7) lies outside


def test_is_clique_on_empty_and_single_vertex_sets():
    g = from_edge_list(5, [(0, 1), (1, 2), (0, 2)])
    assert g.is_clique(np.empty(0, dtype=np.int64))
    # tuples, lists and arrays are vertex sets; a 2-tuple is a pair, not a 2-D index
    for form in (tuple, list, np.array):
        assert g.is_clique(form(())) and all(g.is_clique(form((v,))) for v in range(5))
        assert g.is_clique(form((0, 1))) and not g.is_clique(form((0, 3)))
        assert g.is_clique(form((0, 1, 2))) and not g.is_clique(form((0, 1, 2, 3)))


def test_batched_inner_products_matches_triple_loop():
    rng = np.random.default_rng(9)
    g = random_graph(64, 10)
    alphas = [tuple(sorted(rng.choice(64, size=3, replace=False))) for _ in range(128)]
    table = batched_inner_products(g, alphas)
    signs = g.signs.astype(np.int64)
    for a, alpha in enumerate(alphas):
        row = signs[alpha[0]] * signs[alpha[1]] * signs[alpha[2]]
        for j in range(0, 64, 5):
            direct = sum(int(row[u]) * int(signs[j][u]) for u in range(64))
            assert table[a, j] == direct


def test_batched_inner_products_single_alpha_matches_candidate_path():
    g = random_graph(50, 11)
    table = batched_inner_products(g, [(2, 9)])
    assert set(raw_members(g, [(2, 9)], tau=4)) == set(np.nonzero(table[0] >= 4)[0])
    # the solver's own round loop admits the same set for a sampled alpha that is an
    # edge, and multiplies no row for one that is not; k = 8 gives the cutoff 4
    kinds = set()
    for seed in range(10):
        cfg = SolverConfig(order=2, rounds=1, seed=seed)
        counters = linalg.Counters()
        (alphas, members), = solver.iter_round_members(g, 8, 0.5, cfg, counters)
        sampled = solver._sample_alphas(50, 1, 2, 1,
                                        np.random.default_rng(np.random.SeedSequence(seed)))
        edge = g.is_clique(sampled[0])
        # a round that is not an edge is neither multiplied nor yielded
        assert np.array_equal(alphas.reshape(-1, 2), sampled[:edge]) and len(members) == edge
        expected = raw_members(g, sampled.tolist(), tau=4) if edge else ()
        assert tuple(np.flatnonzero(members[:1]).tolist()) == expected
        assert (counters.oracle_calls, counters.madds) == (1, edge * 50 * 50)
        kinds.add((edge, bool(expected)))
    assert kinds == {(True, True), (False, False)}


def test_iter_round_members_yields_one_member_table_per_oracle_batch():
    g = random_graph(40, 23)
    cfg = SolverConfig(order=2, reps=2, rounds=50, seed=4)
    counters = linalg.Counters()
    batches = list(solver.iter_round_members(g, 6, 0.5, cfg, counters))  # cutoff 3
    assert len(batches) == counters.oracle_calls == math.ceil(50 / (40 // 2))
    sampled = solver._sample_alphas(40, 50, 2, 2,
                                    np.random.default_rng(np.random.SeedSequence(4)))
    sampled = sampled.reshape(50, 2, 2)
    # the yielded rounds are exactly the sampled rounds whose 4 vertices form a clique,
    # in order; a round that is not a clique is never multiplied
    clique = np.array([g.is_clique(a.reshape(-1)) for a in sampled])
    assert 0 < clique.sum() < 50
    assert np.array_equal(np.concatenate([a for a, _ in batches]), sampled[clique])
    for b, (alphas, members) in enumerate(batches):
        assert np.array_equal(alphas, sampled[20 * b:20 * b + 20][clique[20 * b:20 * b + 20]])
        assert alphas.shape == (len(alphas), 2, 2)
        assert members.shape == (len(alphas), 40) and members.dtype == bool
        for round_alphas, row in zip(alphas, members):
            expected = raw_members(g, round_alphas.tolist(), tau=3)
            assert tuple(np.flatnonzero(row).tolist()) == expected
    assert counters.madds == clique.sum() * 2 * 40 ** 2


def test_batched_inner_products_complete_graph():
    g = complete_graph(17)
    for alphas in ([(0, 1, 2)], [(3, 4)]):
        assert np.all(batched_inner_products(g, alphas) == 17)


def test_batched_inner_products_float_path_close_to_direct():
    g = random_graph(48, 12)
    values = pbiased_values(g.signs, 0.3)
    for alpha in [(0, 1, 2), (5, 9), (17,)]:
        (row,) = batched_inner_products(g, [alpha], p=0.3)
        direct = np.prod(values[list(alpha)], axis=0) @ values.T
        assert np.allclose(row, direct, rtol=1e-9, atol=1e-9)


def test_pbiased_inner_tables_match_the_float64_values_product():
    # the p != 1/2 table comes from the int8 signs; the n x n float64 p-biased
    # values give the reference product and the reference decisions
    n, p = 70, 0.3
    g = random_graph(n, 21)
    values = pbiased_values(g.signs, p)
    decided = []
    for order in (1, 2, 3):
        cutoff = threshold_for(12, p, order) - solver.FLOAT_THRESHOLD_TOL
        alphas = solver._sample_alphas(n, 150, order, 1, np.random.default_rng(4))
        for start in range(0, len(alphas), n):
            table = solver._inner_table(g.signs, alphas[start:start + n], p, None)
            reference = row_products(values, alphas[start:start + n]) @ values
            assert table.dtype == np.float64
            assert np.allclose(table, reference, rtol=0, atol=1e-9)
            assert np.array_equal(table >= cutoff, reference >= cutoff)
            decided.append(table >= cutoff)
    assert 0 < np.concatenate(decided).mean() < 1


def test_batched_inner_products_refuses_mixed_orders_and_bad_alphas():
    g = complete_graph(8)
    with pytest.raises(ParameterError, match="one order"):
        batched_inner_products(g, [(0, 1, 2), (3, 4)])
    with pytest.raises(ParameterError, match="nonempty"):
        batched_inner_products(g, [])
    with pytest.raises(InputError, match="outside"):
        batched_inner_products(g, [(0, 8)])
    with pytest.raises(InputError, match="duplicate"):
        batched_inner_products(g, [(1, 1)])


def test_batched_membership_degrees_cases():
    g = complete_graph(8)
    table = batched_membership_degrees(g, [(), tuple(range(8))])
    assert table.dtype == np.float32  # the GEMM's own table of exact counts
    assert np.all(table[0] == 0)
    assert np.all(table[1] == 7)  # self excluded from its own neighborhood
    assert batched_membership_degrees(g, []).shape == (0, 8)

    rg = random_graph(64, 13)
    rng = np.random.default_rng(1)
    sets = [tuple(sorted(rng.choice(64, size=int(rng.integers(1, 20)),
                                    replace=False))) for _ in range(10)]
    table = batched_membership_degrees(rg, sets)
    adj = (rg.signs > 0) & ~np.eye(64, dtype=bool)  # self is not a neighbor
    for a, members in enumerate(sets):
        for j in range(64):
            direct = sum(int(adj[j, v]) for v in members)
            assert table[a, j] == direct


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 33])
def test_batched_membership_degrees_charges_one_call_per_n_sets(count):
    # n = 16: one (count, n) product, charged max(1, ceil(count / 16)) oracle calls
    n = 16
    g = random_graph(n, 31)
    rng = np.random.default_rng(count)
    sets = [tuple(np.flatnonzero(rng.random(n) < 0.4)) for _ in range(count)]
    counters = linalg.Counters()
    table = batched_membership_degrees(g, sets, counters)
    assert table.shape == (count, n) and table.dtype == np.float32
    assert (counters.oracle_calls, counters.madds) == (max(1, math.ceil(count / n)),
                                                       count * n * n)
    adj = ((g.signs > 0) & ~np.eye(n, dtype=bool)).astype(np.int64)
    expected = np.array([adj[:, list(members)].sum(axis=1) for members in sets],
                        dtype=np.int64).reshape(count, n)
    assert np.array_equal(table, expected)


def test_batched_helpers_keep_no_joined_copy_of_their_tables():
    # m = 3n rows, one product each: the (m, n) float32 table (12 n^2 bytes), its operand,
    # int8 product rows (3 n^2, widened one n-row slice at a time: 4 n^2) or float32
    # indicator rows (12 n^2), and one float32 tile of b (4 n^2); a joined copy adds 12 n^2
    n = linalg._TILE_ROWS
    g = random_graph(n, 41)
    rng = np.random.default_rng(5)
    alphas = [tuple(sorted(rng.choice(n, size=3, replace=False).tolist())) for _ in range(3 * n)]
    sets = [tuple(np.flatnonzero(rng.random(n) < 0.1).tolist()) for _ in range(3 * n)]
    for call, bound in ((lambda: batched_inner_products(g, alphas), 24),
                        (lambda: batched_membership_degrees(g, sets), 30)):
        call()  # first-call allocations stay out of the traced peak
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * n * n


def test_oracle_calls_multiply_only_real_rows(monkeypatch):
    g = random_graph(64, 22)
    rng = np.random.default_rng(2)
    alphas = [tuple(sorted(rng.choice(64, size=2, replace=False))) for _ in range(65)]
    calls = []  # (product rows, inner length, columns) of each oracle call

    def recording(a, b, n, counters=None):
        calls.append((a.shape[0], n, b.shape[0]))
        return sign_matmul(a, b, n, counters)

    sign_matmul = linalg.sign_matmul
    monkeypatch.setattr(linalg, "sign_matmul", recording)
    batched_inner_products(g, alphas[:5])
    assert calls == [(5, 64, 64)]
    calls.clear()
    batched_inner_products(g, alphas)  # one product of 65 rows, charged two calls
    assert calls == [(65, 64, 64)]
    counters = linalg.Counters()
    solver._inner_table(g.signs, np.array(alphas), 0.5, counters)
    assert (counters.oracle_calls, counters.madds) == (2, 65 * 64 * 64)
    counters = linalg.Counters()
    batched_membership_degrees(g, [(0, 1, 2), (3, 4)], counters=counters)
    assert (counters.oracle_calls, counters.madds) == (1, 2 * 64 * 64)


@pytest.mark.parametrize("p, reps", [(0.5, 1), (0.5, 2), (0.3, 1), (0.3, 2)])
def test_stage_stats_sum_the_charge_rule_over_each_oracle_product(monkeypatch, p, reps):
    # a stub on linalg.sign_matmul charges each product max(1, ceil(rows / n)) calls
    # and rows * n * cols multiply-adds; candidate products take the graph's signs
    n, k = 80, 40
    inst = generate(n, k, p, strategy_erdos_renyi(), seed=40 + reps)
    charged = {stage: [0, 0] for stage in ("candidate", "refine", "verify", "prune")}

    def recording(a, b, width, counters=None):
        sums = charged["candidate" if b is inst.graph.signs else "prune"]
        sums[0] += max(1, math.ceil(len(a) / width))
        sums[1] += len(a) * width * len(b)
        return sign_matmul(a, b, width, counters)

    sign_matmul = linalg.sign_matmul
    monkeypatch.setattr(linalg, "sign_matmul", recording)
    result = solve(inst.graph, k, p, SolverConfig(reps=reps, seed=5))
    assert result.entries and charged["candidate"][1] > 0
    assert {stage: [result.stats["oracle_calls"][stage], result.stats["madds"][stage]]
            for stage in charged} == charged


def test_solve_complete_graph_returns_single_clique():
    g = complete_graph(12)
    result = solve(g, 12, 0.5, SolverConfig(seed=1))
    assert len(result.entries) == 1
    assert result.entries[0].vertices == tuple(range(12))


def test_solve_single_vertex_graph():
    g = from_edge_list(1, [])
    result = solve(g, 1, 0.5, SolverConfig(order=1, seed=0))
    assert [e.vertices for e in result.entries] == [(0,)]


def test_solve_deterministic_given_seed():
    inst = generate(200, 70, 0.5, strategy_erdos_renyi(), seed=14)
    a = solve(inst.graph, 70, 0.5, SolverConfig(seed=5))
    b = solve(inst.graph, 70, 0.5, SolverConfig(seed=5))
    assert [e.vertices for e in a.entries] == [e.vertices for e in b.entries]
    assert a.stats["rounds_nonempty"] == b.stats["rounds_nonempty"]


def test_solve_output_passes_independent_clique_recheck():
    inst = generate(200, 70, 0.5, strategy_erdos_renyi(), seed=15)
    result = solve(inst.graph, 70, 0.5, SolverConfig(seed=6))
    for entry in result.entries:
        sub = inst.graph.signs[np.ix_(entry.vertices, entry.vertices)]
        assert np.all(sub == 1)
        assert len(entry.vertices) >= 70


def test_solve_recovers_planted_er_instance():
    inst = generate(500, 8 * math.ceil(math.sqrt(500)), 0.5,
                    strategy_erdos_renyi(), seed=16)
    result = solve(inst.graph, inst.k, 0.5, SolverConfig(seed=7))
    assert tuple(sorted(inst.planted)) in [e.vertices for e in result.entries]


def test_solve_empty_output_on_hopeless_instance():
    # k far above any clique the graph contains: no rounds survive
    g = random_graph(60, 17)
    result = solve(g, 30, 0.5, SolverConfig(seed=8, rounds=50))
    assert result.entries == []


def test_solve_recovers_all_clique_union_decoys():
    inst = generate(400, 100, 0.5, strategy_clique_union(), seed=18)
    result = solve(inst.graph, 100, 0.5, SolverConfig(seed=9))
    found = {e.vertices for e in result.entries}
    assert tuple(sorted(inst.planted)) in found
    for decoy in inst.details["decoy_cliques"]:
        if len(decoy) == 100:
            assert tuple(sorted(decoy)) in found
    assert len(result.entries) == 400 // 100


def test_solve_order_one_and_reps():
    inst = generate(300, 8 * math.ceil(math.sqrt(300)), 0.5,
                    strategy_erdos_renyi(), seed=19)
    for cfg in (SolverConfig(order=1, seed=10), SolverConfig(order=2, seed=11),
                SolverConfig(order=2, reps=2, seed=12)):
        result = solve(inst.graph, inst.k, 0.5, cfg)
        assert tuple(sorted(inst.planted)) in [e.vertices for e in result.entries]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_solve_recovers_the_planted_set_at_every_order_below_one_half(order):
    # an order-s round scores a planted vertex about k * p_plus**(s+1), and the
    # cutoff is half of that at each order
    n, k, p = 400, 120, 0.3
    inst = generate(n, k, p, strategy_erdos_renyi(), seed=0)
    result = solve(inst.graph, k, p, SolverConfig(order=order, rounds=400, seed=0))
    assert result.stats["raw_size_max"] >= k
    assert tuple(sorted(inst.planted)) in [e.vertices for e in result.entries]


def test_solve_general_p_paths():
    for p in (0.3, 0.7):
        k = math.ceil(8 * math.ceil(math.sqrt(300)) * max(1.0, (p / (1 - p)) ** 2))
        k = min(k, 290)
        inst = generate(300, k, p, strategy_erdos_renyi(), seed=20)
        result = solve(inst.graph, k, p, SolverConfig(seed=13))
        assert tuple(sorted(inst.planted)) in [e.vertices for e in result.entries]


def test_solve_round_counts_match_brute_force_over_rounds():
    inst = generate(150, 40, 0.5, strategy_majority_adversary(7), seed=3)
    cfg = SolverConfig(order=1, reps=2, rounds=300, seed=3)
    stats = solve(inst.graph, 40, 0.5, cfg).stats
    rng = np.random.default_rng(np.random.SeedSequence(3))
    alphas = solver._sample_alphas(150, 300, 1, 2, rng).reshape(300, 2, 1)
    clique = [inst.graph.is_clique(a.reshape(-1)) for a in alphas]
    sizes = [len(raw_members(inst.graph, a.tolist(), threshold_for(40, 0.5, 1))) if ok else 0
             for a, ok in zip(alphas, clique)]
    assert stats["rounds_index_not_clique"] == clique.count(False)
    assert stats["rounds_nonempty"] == sum(1 for size in sizes if size > 0)
    assert stats["rounds_short_skipped"] == sum(1 for size in sizes if 0 < size < 40)
    # the instance has empty, short and long rounds alike
    assert 0 < stats["rounds_short_skipped"] < stats["rounds_nonempty"] < 300


def test_solve_round_count_and_oracle_batches():
    inst = generate(128, 64, 0.5, strategy_erdos_renyi(), seed=21)
    cfg = SolverConfig(order=3, reps=1, c_rounds=10.0, seed=14)
    result = solve(inst.graph, 64, 0.5, cfg)
    rounds = result.stats["rounds"]
    assert rounds == math.ceil(10.0 * (128 / 64) ** 3)
    assert result.stats["oracle_calls"]["candidate"] == math.ceil(rounds / 128)


def test_solve_peak_memory_stays_below_seven_bytes_per_matrix_entry():
    # an n x n float64 copy of the graph anywhere on the solve path would
    # alone take 8 bytes per entry
    n = 1024
    inst = generate(n, 256, 0.5, strategy_erdos_renyi(), seed=3)
    tracemalloc.start()
    try:
        result = solve(inst.graph, 256, 0.5, SolverConfig(seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tuple(sorted(inst.planted)) in [e.vertices for e in result.entries]
    assert result.stats["distinct_raw"] > 0
    assert peak < 7 * n * n


def test_solve_at_half_keeps_no_float32_copy_of_the_signs():
    # sign_matmul widens the int8 signs a tile of rows at a time; a whole
    # float32 copy of the n x n signs would alone take 4 bytes per entry
    n, k = 4096, 256
    inst = generate(n, k, 0.5, strategy_erdos_renyi(), seed=9)
    tracemalloc.start()
    try:
        result = solve(inst.graph, k, 0.5, SolverConfig(rounds=2 * n, seed=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats["oracle_calls"]["candidate"] == 2
    assert tuple(sorted(inst.planted)) in [e.vertices for e in result.entries]
    assert peak <= 3.5 * n * n


def traced_peak(run):
    """(run(), the peak bytes that tracemalloc saw numpy and Python allocate inside it)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pbiased_solve_and_replay_keep_no_float64_copy_of_the_signs():
    # at p != 1/2 the oracle multiplies the int8 signs too, widened a tile at
    # a time; an n x n float64 p-biased copy would alone take 8 bytes per entry
    n, k, p = 2048, 256, 0.3
    inst = generate(n, k, p, strategy_erdos_renyi(), seed=9)
    cfg = SolverConfig(rounds=2 * n, seed=2)
    result, solve_peak = traced_peak(lambda: solve(inst.graph, k, p, cfg))
    spurious, replay_peak = traced_peak(lambda: harness.max_spurious_members(inst, cfg, k, p))
    assert result.stats["oracle_calls"]["candidate"] == 2
    assert tuple(sorted(inst.planted)) in [e.vertices for e in result.entries]
    assert spurious > 0
    assert solve_peak <= 5 * n * n and replay_peak <= 5 * n * n


def test_solve_reports_stage_madds():
    inst = generate(128, 64, 0.5, strategy_erdos_renyi(), seed=21)
    result = solve(inst.graph, 64, 0.5, SolverConfig(order=3, reps=1, seed=14))
    stats = result.stats
    # only the rounds whose sampled triple is a clique are multiplied
    surviving = stats["rounds"] - stats["rounds_index_not_clique"]
    assert 0 < surviving < stats["rounds"]
    assert stats["madds"]["candidate"] == surviving * 128 ** 2
    assert stats["oracle_calls"]["candidate"] == math.ceil(stats["rounds"] / 128)
    assert stats["distinct_raw"] > 0
    # refine and verify read induced submatrices without the oracle
    for stage in ("refine", "verify"):
        assert stats["oracle_calls"][stage] == stats["madds"][stage] == 0
    assert set(stats["oracle_calls"]) == set(stats["madds"]) == set(stats["wall_times"]) \
        == {"candidate", "refine", "verify", "prune"}


def test_edgeless_graph_keeps_one_oracle_call_per_batch_and_multiplies_no_row():
    # order 2 samples two distinct vertices, which are never adjacent here
    g = from_edge_list(20, [])
    cfg = SolverConfig(order=2, rounds=100, seed=1)
    counters = linalg.Counters()
    batches = list(solver.iter_round_members(g, 2, 0.5, cfg, counters))
    assert len(batches) == counters.oracle_calls == math.ceil(100 / 20)
    assert counters.madds == 0 and not any(members.any() for _, members in batches)
    result = solve(g, 2, 0.5, cfg)
    assert result.entries == []
    stats = result.stats
    assert (stats["oracle_calls"]["candidate"], stats["madds"]["candidate"]) == (5, 0)
    assert stats["rounds_index_not_clique"] == stats["rounds"] == 100
    # the float64 path makes the same zero-row calls
    counters = linalg.Counters()
    batches = list(solver.iter_round_members(g, 2, 0.3, cfg, counters))
    assert (len(batches), counters.oracle_calls, counters.madds) == (5, 5, 0)


@pytest.mark.parametrize("p, reps, order", [
    pytest.param(p, reps, order, id=f"{p}-{reps}" + ("" if order == 3 else f"-order{order}"))
    for p in (0.5, 0.3, 0.1, 0.9, 0.7) for reps in (1, 2) for order in (3, 1, 2)])
def test_rounds_inside_the_planted_set_survive_and_match_brute_force(p, reps, order):
    n, k, rounds = 80, 40, 160
    inst = generate(n, k, p, strategy_erdos_renyi(), seed=30 + reps)
    values = (inst.graph.signs.astype(np.float64) if p == 0.5
              else pbiased_values(inst.graph.signs, p))
    cutoff = threshold_for(k, p, order) - 1e-9
    planted = set(inst.planted)
    counters = linalg.Counters()
    cfg = SolverConfig(order=order, reps=reps, rounds=rounds, seed=31)
    yielded = list(solver.iter_round_members(inst.graph, k, p, cfg, counters))
    sampled = solver._sample_alphas(n, rounds, order, reps,
                                    np.random.default_rng(np.random.SeedSequence(31)))
    sampled = sampled.reshape(rounds, reps, order)
    clique = np.array([inst.graph.is_clique(a.reshape(-1)) for a in sampled])
    inside = np.array([planted.issuperset(a.reshape(-1).tolist()) for a in sampled])
    # one sampled vertex is always a clique
    assert inside.any() and clique.all() == (order * reps == 1) and not np.any(inside & ~clique)
    # the yielded rounds are the clique rounds, in order, so every planted round survives
    assert np.array_equal(np.concatenate([a for a, _ in yielded]), sampled[clique])
    assert counters.oracle_calls == len(yielded) == math.ceil(rounds / (n // reps))
    for alphas, members in yielded:
        for round_alphas, row in zip(alphas, members):
            # brute force: the t product rows against every row, each cleared by all t
            scores = np.prod(values[round_alphas], axis=1) @ values
            expected = np.all(scores >= cutoff, axis=0)
            assert np.array_equal(row, expected)
            assert expected.any() or not planted.issuperset(round_alphas.reshape(-1).tolist())
    # a surviving round is one whose t rows were multiplied
    assert counters.madds == clique.sum() * reps * n * n


def test_solver_config_loads_documents_with_iterate_refine():
    doc = SolverConfig(seed=3).to_dict()
    assert "iterate_refine" not in doc
    assert SolverConfig.from_dict({**doc, "iterate_refine": True}) == SolverConfig(seed=3)


def test_solver_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(order=4)
    with pytest.raises(ParameterError):
        SolverConfig(reps=0)
    with pytest.raises(ParameterError):
        SolverConfig(rounds=0)
    with pytest.raises(ParameterError):
        SolverConfig(seed=-1)
    for c_rounds in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            SolverConfig(c_rounds=c_rounds)


def test_the_model_alone_fixes_the_cutoff():
    assert [f.name for f in fields(SolverConfig)] == ["order", "reps", "c_rounds", "rounds",
                                                      "seed"]
    with pytest.raises(TypeError):
        SolverConfig(threshold=4.0)
    assert SolverConfig().to_dict()["threshold"] is None
    # solve echoes the model's cutoff in both slots, and from_dict ignores it
    stats = solve(random_graph(30, 3), 10, 0.3, SolverConfig(c_rounds=1.0)).stats
    assert stats["threshold"] == stats["config"]["threshold"] == threshold_for(10, 0.3, 3)
    assert SolverConfig.from_dict(stats["config"]) == SolverConfig(c_rounds=1.0, rounds=27)


def test_solver_config_bounds_the_alpha_rows():
    assert MAX_ALPHA_ROWS == 2 ** 26
    assert SolverConfig(rounds=MAX_ALPHA_ROWS).rounds == MAX_ALPHA_ROWS
    SolverConfig(rounds=MAX_ALPHA_ROWS // 2, reps=2)
    with pytest.raises(ParameterError, match="MAX_ALPHA_ROWS"):
        SolverConfig(rounds=MAX_ALPHA_ROWS + 1)
    with pytest.raises(ParameterError, match="MAX_ALPHA_ROWS"):
        SolverConfig(rounds=MAX_ALPHA_ROWS // 2 + 1, reps=2)
    # computed counts: 2**26 rounds exactly is allowed, one more is not
    assert SolverConfig(order=1, c_rounds=float(MAX_ALPHA_ROWS)).num_rounds(8, 8) == 2 ** 26
    with pytest.raises(ParameterError, match="MAX_ALPHA_ROWS"):
        SolverConfig(order=1, c_rounds=float(MAX_ALPHA_ROWS) + 1).num_rounds(8, 8)
    with pytest.raises(ParameterError, match="MAX_ALPHA_ROWS"):
        SolverConfig(order=1, reps=2, c_rounds=float(MAX_ALPHA_ROWS)).num_rounds(8, 8)
    with pytest.raises(ParameterError, match="not finite"):
        SolverConfig(c_rounds=1e308).num_rounds(60, 10)
    with pytest.raises(ParameterError, match="not finite"):
        SolverConfig(reps=100000).num_rounds(300, 10)  # (n/k)**(s*t) overflows a float
    # criterion 3's shape (n=4096, k=256, order 3) is far below the limit
    assert SolverConfig().num_rounds(4096, 256) == 40960


@pytest.mark.parametrize("field, value", [
    ("order", "3"), ("order", True), ("order", 3.0), ("reps", "1"), ("reps", False),
    ("rounds", "5"), ("rounds", True), ("seed", "0"), ("seed", 1.5), ("seed", None),
    ("c_rounds", "10"), ("c_rounds", True), ("c_rounds", None)])
def test_solver_config_rejects_wrong_types(field, value):
    with pytest.raises(ParameterError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_accepts_numpy_integers_and_integer_reals():
    cfg = SolverConfig(order=np.int64(2), reps=np.int32(1), seed=np.int64(4), c_rounds=3)
    assert cfg.num_rounds(10, 5) == math.ceil(3 * 2 ** 2)
