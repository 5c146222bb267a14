import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from srpc import (generate, majority_vector, read_instance,
                  strategy_clique_union, strategy_erdos_renyi,
                  strategy_majority_adversary, write_instance)
from srpc import instances
from srpc.errors import ParameterError
from srpc.instances import strategy_by_name


def test_planted_block_is_complete():
    inst = generate(50, 10, 0.5, strategy_erdos_renyi(), seed=0)
    sub = inst.graph.signs[np.ix_(inst.planted, inst.planted)]
    assert np.all(sub == 1)
    assert len(inst.planted) == 10


def test_n_equals_k_gives_complete_graph():
    for strategy in (strategy_erdos_renyi(), strategy_clique_union(),
                     strategy_majority_adversary(3)):
        inst = generate(8, 8, 0.5, strategy, seed=1)
        assert np.all(inst.graph.signs == 1)


def test_cut_density_within_three_sigma():
    n, k, p = 50, 10, 0.5
    inst = generate(n, k, p, strategy_erdos_renyi(), seed=2)
    planted = np.array(inst.planted)
    rest = np.setdiff1d(np.arange(n), planted)
    cut = inst.graph.signs[np.ix_(planted, rest)]
    pairs = k * (n - k)
    density = (cut == 1).sum() / pairs
    sigma = math.sqrt(p * (1 - p) / pairs)
    assert abs(density - p) <= 3 * sigma


def test_seeded_determinism_bytes(tmp_path):
    a = generate(50, 10, 0.5, strategy_erdos_renyi(), seed=3)
    b = generate(50, 10, 0.5, strategy_erdos_renyi(), seed=3)
    assert a.graph == b.graph and a.planted == b.planted
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_instance(a, pa, tmp_path / "a.meta")
    write_instance(b, pb, tmp_path / "b.meta")
    assert pa.read_bytes() == pb.read_bytes()
    different = generate(50, 10, 0.5, strategy_erdos_renyi(), seed=4)
    assert different.graph != a.graph


def test_parameter_validation():
    with pytest.raises(ParameterError):
        generate(5, 6, 0.5, strategy_erdos_renyi(), seed=0)
    with pytest.raises(ParameterError):
        generate(5, 2, 0.0, strategy_erdos_renyi(), seed=0)
    with pytest.raises(ParameterError):
        generate(5, 2, 1.0, strategy_erdos_renyi(), seed=0)


def test_adversary_isolation():
    # planted and cut regions are identical across strategies for one seed
    n, k, seed = 60, 12, 5
    base = generate(n, k, 0.5, strategy_erdos_renyi(), seed=seed)
    for strategy in (strategy_clique_union(), strategy_majority_adversary(5)):
        other = generate(n, k, 0.5, strategy, seed=seed)
        assert other.planted == base.planted
        planted = np.array(base.planted)
        rest = np.setdiff1d(np.arange(n), planted)
        assert np.array_equal(other.graph.signs[np.ix_(planted, planted)],
                              base.graph.signs[np.ix_(planted, planted)])
        assert np.array_equal(other.graph.signs[np.ix_(planted, rest)],
                              base.graph.signs[np.ix_(planted, rest)])


def test_clique_union_partitions():
    # n=30, k=10: the planted clique plus exactly 2 decoy k-cliques
    inst = generate(30, 10, 0.5, strategy_clique_union(), seed=6)
    cliques = inst.details["decoy_cliques"]
    assert [len(c) for c in cliques] == [10, 10]
    planted = set(inst.planted)
    for c in cliques:
        assert planted.isdisjoint(c)
        sub = inst.graph.signs[np.ix_(c, c)]
        assert np.all(sub == 1)
    # decoys partition the complement
    used = sorted(v for c in cliques for v in c)
    assert used == sorted(set(range(30)) - planted)


def test_clique_union_remainder():
    # n=25, k=10: one full decoy clique plus a 5-vertex remainder clique
    inst = generate(25, 10, 0.5, strategy_clique_union(), seed=7)
    sizes = sorted(len(c) for c in inst.details["decoy_cliques"])
    assert sizes == [5, 10]


@pytest.mark.parametrize("n, k", [(8, 8), (25, 10), (301, 60)])
@pytest.mark.parametrize("make, keys", [
    (strategy_erdos_renyi, set()),
    (strategy_clique_union, {"decoy_cliques"}),
    (lambda: strategy_majority_adversary(3), {"chosen", "decoys"}),
    (lambda: strategy_majority_adversary(1), {"chosen", "decoys"}),
], ids=["erdos_renyi", "clique_union", "majority", "majority-m1"])
def test_details_hold_only_vertex_ids(n, k, make, keys):
    inst = generate(n, k, 0.5, make(), seed=14)
    assert set(inst.details) == keys
    planted = set(inst.planted)
    complement = sorted(set(range(n)) - planted)
    ids = inst.details.get("chosen", []) + inst.details.get("decoys", [])
    assert all(type(v) is int for v in ids)
    assert set(inst.details.get("chosen", [])) <= planted
    assert set(inst.details.get("decoys", [])) <= set(complement)
    for index, clique in enumerate(inst.details.get("decoy_cliques", [])):
        assert clique == complement[index * k:(index + 1) * k]


def test_majority_vector_basics():
    assert np.array_equal(majority_vector([[1, -1, 1]]), [1, -1, 1])
    rows = [[1, 1, -1], [1, -1, -1], [-1, 1, -1]]
    assert np.array_equal(majority_vector(rows), [1, 1, -1])
    with pytest.raises(ParameterError):
        majority_vector([[1, 1], [1, -1]])


def test_majority_vector_sign_equivariance():
    rng = np.random.default_rng(8)
    rows = rng.choice(np.array([-1, 1]), size=(7, 40))
    assert np.array_equal(majority_vector(-rows), -majority_vector(rows))
    assert set(np.unique(majority_vector(rows))) <= {-1, 1}


def test_majority_vector_correlation_floor():
    # every input row correlates with its majority at the n/sqrt(m) scale;
    # the constant is measured, not assumed
    n, m = 2000, 9
    mins = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = rng.choice(np.array([-1, 1], dtype=np.int64), size=(m, n))
        w = majority_vector(rows).astype(np.int64)
        mins.append(int((rows @ w).min()))
    floor = 0.25 * n / math.sqrt(m)
    assert min(mins) > floor


def test_majority_adversary_rejects_bad_m():
    with pytest.raises(ParameterError):
        strategy_majority_adversary(4)
    with pytest.raises(ParameterError):
        generate(30, 5, 0.5, strategy_majority_adversary(7), seed=0)  # m > k


def test_majority_adversary_takes_no_decoy_count():
    # the decoy count is the model's ceil((k + size) / k); no caller sets it
    with pytest.raises(ParameterError, match="decoy_count"):
        strategy_by_name("majority", m=3, decoy_count=2)
    with pytest.raises(TypeError):
        strategy_majority_adversary(3, decoy_count=2)


def test_majority_adversary_single_row_copies_out_row():
    # m=1: each of the ceil((k + 32) / k) = 5 decoys' out-rows equals the chosen
    # vertex's out-row
    inst = generate(40, 8, 0.5, strategy_majority_adversary(1), seed=9)
    chosen = inst.details["chosen"][0]
    decoys = inst.details["decoys"]
    assert len(decoys) == 5
    outside = sorted(set(range(40)) - set(inst.planted) - set(decoys))
    for decoy in decoys:
        assert np.array_equal(inst.graph.signs[decoy, outside],
                              inst.graph.signs[chosen, outside])


def test_majority_adversary_decoy_correlations():
    # realized <G_i^out, G_j^out> for chosen i and decoy j stays large
    n, k, m = 400, 40, 21
    measured = []
    for seed in range(20):
        inst = generate(n, k, 0.5, strategy_majority_adversary(m), seed=seed)
        rest = np.setdiff1d(np.arange(n), np.array(inst.planted))
        out_rows = inst.graph.signs[:, rest].astype(np.int64)
        for j in inst.details["decoys"]:
            for i in inst.details["chosen"]:
                measured.append(int(out_rows[i] @ out_rows[j]))
    floor = 0.25 * n / math.sqrt(m)
    assert np.mean([v >= floor for v in measured]) >= 0.95


def test_majority_adversary_contaminates_naive_candidates():
    # every chosen planted vertex admits a decoy into its order-1 candidate set
    from srpc import threshold_for
    from tests.test_solver import raw_members
    n, k, m = 400, 40, 21
    inst = generate(n, k, 0.5, strategy_majority_adversary(m), seed=10)
    tau = threshold_for(k, 0.5, 1)
    decoys = set(inst.details["decoys"])
    for i in inst.details["chosen"]:
        members = set(raw_members(inst.graph, [(i,)], tau))
        assert members & decoys


def test_strategy_by_name():
    assert strategy_by_name("erdos_renyi").name == "erdos_renyi"
    assert strategy_by_name("majority", m=3).m == 3
    with pytest.raises(ParameterError):
        strategy_by_name("nope")


@pytest.mark.parametrize("name, params, named", [
    ("erdos_renyi", {"m": 3}, "'m'"),
    ("erdos_renyi", {"decoy_count": 2}, "'decoy_count'"),
    ("clique_union", {"m": 3}, "'m'"),
    ("clique_union", {"decoy_count": 2}, "'decoy_count'"),
    ("majority", {}, "'m'"),
    ("majority", {"decoy_count": 2}, "'m'"),
    ("majority", {"m": 3, "decoys": 2}, "'decoys'"),
], ids=["erdos-renyi-m", "erdos-renyi-decoys", "clique-union-m", "clique-union-decoys",
        "majority-without-m", "majority-decoys-without-m", "majority-unknown-key"])
def test_strategy_by_name_refuses_missing_or_unknown_parameters(name, params, named):
    with pytest.raises(ParameterError, match=f"adversary '{name}': .*{named}"):
        strategy_by_name(name, **params)


def test_instance_file_roundtrip(tmp_path):
    inst = generate(40, 8, 0.5, strategy_majority_adversary(3), seed=11)
    gpath, mpath = tmp_path / "g.txt", tmp_path / "meta.txt"
    write_instance(inst, gpath, mpath)
    loaded = read_instance(gpath, mpath)
    assert loaded.graph == inst.graph
    assert loaded.planted == inst.planted
    assert loaded.details["chosen"] == inst.details["chosen"]
    assert loaded.details["decoys"] == inst.details["decoys"]


def test_instance_file_roundtrip_keeps_empty_decoy_list(tmp_path):
    # the sidecar line "decoys = " has an empty value, not a missing separator;
    # at n = k the complement, and so the decoy list, is empty
    inst = generate(8, 8, 0.5, strategy_majority_adversary(3), seed=11)
    gpath, mpath = tmp_path / "g.txt", tmp_path / "meta.txt"
    write_instance(inst, gpath, mpath)
    assert read_instance(gpath, mpath).details == {"chosen": inst.details["chosen"],
                                                   "decoys": []}


def test_sidecar_with_a_decoy_count_still_reads(tmp_path):
    # older sidecars may carry param_decoy_count; it reads as a plain parameter
    inst = generate(40, 8, 0.5, strategy_majority_adversary(3), seed=11)
    gpath, mpath = tmp_path / "g.txt", tmp_path / "meta.txt"
    write_instance(inst, gpath, mpath)
    assert "param_decoy_count" not in mpath.read_text()
    with open(mpath, "a") as fh:
        fh.write("param_decoy_count = 5\n")
    loaded = read_instance(gpath, mpath)
    assert loaded.adversary_params == {"m": 3, "decoy_count": 5}
    assert loaded.details == inst.details


@pytest.mark.parametrize("p", [Fraction(1, 2), np.float64(0.5), np.float32(0.5)],
                         ids=["fraction", "float64", "float32"])
def test_non_float_p_round_trips_through_the_sidecar(tmp_path, p):
    paths = {tag: (tmp_path / f"{tag}.g", tmp_path / f"{tag}.m") for tag in ("p", "float")}
    write_instance(generate(30, 6, p, strategy_erdos_renyi(), seed=3), *paths["p"])
    write_instance(generate(30, 6, 0.5, strategy_erdos_renyi(), seed=3), *paths["float"])
    loaded = read_instance(*paths["p"])
    assert type(loaded.p) is float and loaded.p == 0.5
    assert [path.read_bytes() for path in paths["p"]] == \
        [path.read_bytes() for path in paths["float"]]


def triu_iid_block(rng, size, p):
    """The triu_indices fill that instances._iid_block replaced: the reference."""
    block = np.ones((size, size), dtype=np.int8)
    if size > 1:
        iu = np.triu_indices(size, 1)
        vals = np.where(rng.random(len(iu[0])) < p, 1, -1).astype(np.int8)
        block[iu] = vals
        block[(iu[1], iu[0])] = vals
    return block


def whole_triangle_iid_block(rng, size, p):
    """The whole-matrix mask fill that the row-block fill replaced: the reference."""
    vertices = np.arange(size)
    upper = vertices[:, None] < vertices
    edges = np.zeros((size, size), dtype=bool)
    edges[upper] = rng.random(size * (size - 1) // 2) < p
    edges |= edges.T
    np.fill_diagonal(edges, True)
    return edges.view(np.int8) * 2 - 1


def ix_signs(n, k, p, strategy, seed):
    """The np.ix_ assembly that generate replaced, on the reference block fill."""
    planted = np.sort(instances._substream(seed, instances._STREAM_PLANTED)
                      .choice(n, size=k, replace=False))
    complement = np.setdiff1d(np.arange(n), planted)
    cut_edges = instances._substream(seed, instances._STREAM_CUT).random((k, n - k)) < p
    cut_block = np.where(cut_edges, 1, -1).astype(np.int8)
    outside, _ = strategy.fill(instances._substream(seed, instances._STREAM_ADVERSARY),
                               p, planted, complement, cut_block)
    signs = np.empty((n, n), dtype=np.int8)
    signs[np.ix_(planted, planted)] = 1
    signs[np.ix_(planted, complement)] = cut_block
    signs[np.ix_(complement, planted)] = cut_block.T
    signs[np.ix_(complement, complement)] = outside
    return signs


@pytest.mark.parametrize("size", [0, 1, 2, 5, 255, 256, 257, 300, 513])
@pytest.mark.parametrize("p", [0.5, 0.3, 0.7])
def test_iid_block_matches_triu_indices_reference(size, p):
    # sizes on both sides of one and two row blocks
    block = instances._iid_block(np.random.default_rng(12), size, p)
    assert block.dtype == np.int8
    assert np.array_equal(block, triu_iid_block(np.random.default_rng(12), size, p))
    assert np.array_equal(block, whole_triangle_iid_block(np.random.default_rng(12), size, p))


@pytest.mark.parametrize("make", [
    strategy_erdos_renyi, strategy_clique_union, lambda: strategy_majority_adversary(3),
], ids=["erdos_renyi", "clique_union", "majority"])
def test_generate_peak_memory_stays_below_two_and_a_half_bytes_per_matrix_entry(make):
    # the i.i.d. block draws one row block of uniforms at a time, and each
    # part of the block matrix is freed once a copy holds it
    n = 4096
    tracemalloc.start()
    try:
        inst = generate(n, 256, 0.5, make(), seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.graph.n == n
    assert peak < 2.5 * n * n, peak / (n * n)


# SHA-256 of the graph and meta files that write_instance writes, pinned so
# that a change to generation or to the writers cannot change instance bytes.
# n = 11, 257 and 1001 cross name-width and tile boundaries.
GOLDEN_INSTANCES = [
    (("erdos_renyi", {}, 11, 4, 0.5, 1),
     "4525a2965200ee52948b1650b36a4aa7636f7a4ee8de69f4b4cdc8f2d20858f2",
     "fb7b5c945a6b46ae3da8bdd9212b9ecfe5aee0237de5c9cd715604edd9bc81db"),
    (("clique_union", {}, 11, 3, 0.3, 2),
     "066a8ed374682a341464bec86135a3cc1800dfd47ba9d3d309fd95be62033235",
     "7e41b348c029321898e26a46821113eb35d539cdbda57ef5c2e1f34d49042255"),
    (("erdos_renyi", {}, 257, 1, 0.3, 3),
     "bbe1ed4a2a7922c96ed1930d356cff363ae94a296b602da156e6f5dc63e050cd",
     "f98b16059ea8c521c836055d46bf9fdb4338bc0106125599638ca1c31d425a90"),
    (("majority", {"m": 5}, 257, 8, 0.7, 4),
     "776b60f9e7e09b29446dd302919e892cd2eb5c51488ba57c478701e1f7488a9d",
     "ba09564cad52eb882ab5595a5e59c7b4fff87163fd2b74ecec55a9cc7f905dfd"),
    (("clique_union", {}, 1001, 90, 0.7, 5),
     "0e9ab0fc1ee9d77476bab64f5a4c11f52718af30a7763310cc8b4df02ddcad13",
     "74bdf2a8d0e544ba7be3c7a2e370e1b492eb87180009059c603af2d531723449"),
    (("majority", {"m": 5}, 1001, 120, 0.5, 6),
     "6b4c7182f52d0a17fabe403afe4ed8874d58b7732b17c21bae402f24d4efc6d2",
     "f1561d9ef63767d1b1e5348dbd964af8fdfa1ad8dda51db9778ea22dd5ebc0d6"),
]


@pytest.mark.parametrize("case, graph_digest, meta_digest", GOLDEN_INSTANCES,
                         ids=[f"{c[0][0]}-n{c[0][2]}-p{c[0][4]}" for c in GOLDEN_INSTANCES])
def test_instance_files_match_golden_digests(tmp_path, case, graph_digest, meta_digest):
    name, params, n, k, p, seed = case
    inst = generate(n, k, p, strategy_by_name(name, **params), seed=seed)
    gpath, mpath = tmp_path / "g.txt", tmp_path / "meta.txt"
    write_instance(inst, gpath, mpath)
    assert hashlib.sha256(gpath.read_bytes()).hexdigest() == graph_digest
    assert hashlib.sha256(mpath.read_bytes()).hexdigest() == meta_digest


@pytest.mark.parametrize("n, k", [(8, 8), (9, 8), (300, 60), (301, 60)],
                         ids=["n-equals-k", "complement-1", "n-300", "n-301"])
@pytest.mark.parametrize("make", [
    strategy_erdos_renyi, strategy_clique_union,
    lambda: strategy_majority_adversary(3),
    lambda: strategy_majority_adversary(1),
], ids=["erdos_renyi", "clique_union", "majority", "majority-m1"])
def test_generate_matches_ix_reference(monkeypatch, n, k, make):
    for p in (0.5, 0.3):
        inst = generate(n, k, p, make(), seed=13)
        with monkeypatch.context() as patched:
            patched.setattr(instances, "_iid_block", triu_iid_block)
            assert np.array_equal(inst.graph.signs, ix_signs(n, k, p, make(), seed=13)), p
