import math
import tracemalloc
import warnings

import numpy as np
import pytest

from srpc import (CliqueEntry, CliqueList, PruneParams, intersection_threshold,
                  prune_fast, prune_naive)
from srpc import linalg
from srpc.errors import InputError, InternalInvariantError, ParameterError
from srpc.graphs import MAX_N


def entries_from_sets(sets):
    return CliqueList([CliqueEntry(tuple(s)) for s in sets])


def test_threshold_values():
    # ln 1024 / ln 2 = 10, times 3
    assert intersection_threshold(1024, 0.5) == 30
    # ln n = 10 with ln(1/p) = 1
    n = round(math.e ** 10)
    assert intersection_threshold(n, 1 / math.e) in (29, 30)  # floor of ~30 - eps
    assert intersection_threshold(int(math.e ** 10) + 1, 1 / math.e) == 30
    assert intersection_threshold(100, 0.9) > intersection_threshold(100, 0.5)
    with pytest.raises(ParameterError):
        intersection_threshold(1, 0.5)
    with pytest.raises(ParameterError):
        intersection_threshold(100, 0.0)


def params_with_delta(n, delta):
    return PruneParams(n=n, p=0.5, delta=delta)


def test_single_entry_survives():
    params = params_with_delta(100, 5)
    out = prune_naive(entries_from_sets([range(10)]), params)
    assert out.vertex_sets() == [tuple(range(10))]


def test_duplicates_merge_before_filtering():
    params = params_with_delta(100, 5)
    lst = CliqueList([CliqueEntry(tuple(range(10)), ((0, 1, 2),)),
                      CliqueEntry(tuple(range(10)), ((3, 4, 5),))])
    out = prune_naive(lst, params)
    assert len(out.entries) == 1
    assert out.entries[0].alphas == ((0, 1, 2), (3, 4, 5))
    assert out.stats["duplicates_removed"] == 1

    # interleaved [A, B, A]: first-seen order, A's alphas pooled in input order
    a, b = tuple(range(10)), tuple(range(20, 30))
    lst = CliqueList([CliqueEntry(a, ((0, 1, 2),)), CliqueEntry(b, ((6, 7, 8),)),
                      CliqueEntry(a, ((3, 4, 5),))])
    for prune in (prune_naive, prune_fast):
        out = prune(lst, params)
        assert out.entries == [CliqueEntry(a, ((0, 1, 2), (3, 4, 5))),
                               CliqueEntry(b, ((6, 7, 8),))]
        assert out.stats["duplicates_removed"] == 1


def test_mutual_violation_removes_both():
    params = params_with_delta(100, 5)
    a = tuple(range(10))
    b = tuple(range(4, 14))  # |a & b| = 6 > 5
    out = prune_naive(entries_from_sets([a, b]), params)
    assert out.vertex_sets() == []


def test_vacuous_when_delta_at_least_k():
    params = params_with_delta(100, 10)
    sets = [tuple(range(10)), tuple(range(5, 15))]
    with pytest.warns(UserWarning):
        out = prune_naive(entries_from_sets(sets), params)
    assert out.vertex_sets() == [tuple(s) for s in sets]
    assert out.stats["vacuous"] is True


def test_empty_list():
    params = params_with_delta(50, 3)
    assert prune_naive(CliqueList(), params).vertex_sets() == []
    assert prune_fast(CliqueList(), params).vertex_sets() == []


def test_validation():
    params = params_with_delta(10, 3)
    with pytest.raises(InputError):
        prune_naive(entries_from_sets([(0, 1, 12)]), params)


@pytest.mark.parametrize("sets, message", [
    ([(0, 1, 2), (3, 3, 4)], "repeated vertices"),
    ([(0, 1, 2), (5, 10)], r"outside \[0,10\)"),
    ([(-1, 2)], r"outside \[0,10\)"),
], ids=["repeat", "above-range", "negative"])
def test_check_vertices_refuses_repeats_and_out_of_range(sets, message):
    lst = CliqueList([CliqueEntry(s) for s in sets])
    for check in (lambda: lst.check_vertices(10),
                  lambda: prune_naive(lst, params_with_delta(10, 1)),
                  lambda: prune_fast(lst, params_with_delta(10, 1))):
        with pytest.raises(InputError, match=message):
            check()
    entries_from_sets([(0, 9), (), (3,)]).check_vertices(10)  # in range: no error


def test_fast_marks_in_one_pass():
    # the survivors of one marking pass are pairwise compatible, so a
    # second pass would only repeat the Gram product
    params = params_with_delta(40, 3)
    counters = linalg.Counters()
    sets = [range(0, 10), range(2, 12), range(20, 30)]
    out = prune_fast(entries_from_sets(sets), params, counters=counters)
    assert out.vertex_sets() == [tuple(range(20, 30))]
    assert [r["vertices"] for r in out.stats["removed"]] == [list(range(0, 10)),
                                                             list(range(2, 12))]
    assert counters.oracle_calls == 1


@pytest.mark.parametrize("fields, name", [
    ({"delta": -1}, "delta"),
    ({"n": 1}, "n"),
    ({"p": 0.0}, "p"),
    ({"p": 1.0}, "p"),
    ({"p": float("nan")}, "p"),
], ids=["delta-negative", "n-one", "p-zero", "p-one", "p-nan"])
def test_prune_params_refuse_out_of_range_fields(fields, name):
    with pytest.raises(ParameterError, match=name):
        PruneParams(**{"n": 40, "p": 0.5, "delta": 3, **fields})


def test_fast_makes_one_oracle_call_per_batch_of_full_rows():
    # m entries in batches of n: ceil(m / n) calls of at most n rows against all m
    rng = np.random.default_rng(9)
    n = 20
    params = PruneParams(n=n, p=0.5, delta=2)
    for m in (n - 1, n, n + 1, 2 * n + 1):
        sets = set()
        while len(sets) < m:
            sets.add(tuple(sorted(rng.choice(n, size=5, replace=False).tolist())))
        lst = entries_from_sets(sorted(sets))
        counters = linalg.Counters()
        fast = prune_fast(lst, params, counters=counters)
        assert (counters.oracle_calls, counters.madds) == (math.ceil(m / n), m * n * m)
        assert fast.to_dict() == prune_naive(lst, params).to_dict()


def test_fast_batches_by_n_when_entries_outnumber_it():
    # 40 distinct entries over n = 24 vertices: ceil(40 / 24) = 2 calls of full rows
    rng = np.random.default_rng(12)
    n, m = 24, 40
    sets = sorted({tuple(sorted(rng.choice(n, size=6, replace=False))) for _ in range(60)})[:m]
    params = PruneParams(n=n, p=0.5, delta=3)
    counters = linalg.Counters()
    fast = prune_fast(entries_from_sets(sets + sets[:3]), params, counters=counters)
    assert (counters.oracle_calls, counters.madds) == (2, m * n * m)
    assert fast.to_dict() == prune_naive(entries_from_sets(sets + sets[:3]), params).to_dict()
    assert fast.stats["removed"] and fast.entries


def test_fast_refuses_an_asymmetric_conflict_relation(monkeypatch):
    # a product fault that raises one entry's count against another
    def faulty(a, b, n, counters=None):
        table = sign_matmul(a, b, n, counters)
        table[0, 1] += 5
        return table

    sign_matmul = linalg.sign_matmul
    monkeypatch.setattr(linalg, "sign_matmul", faulty)
    with pytest.raises(InternalInvariantError, match="not symmetric"):
        prune_fast(entries_from_sets([range(0, 10), range(7, 17)]), params_with_delta(40, 3))


def test_fast_counts_exactly_at_the_largest_n():
    # two entries missing vertex 0 and vertex 1 meet in MAX_N - 2 vertices
    n = MAX_N
    sets = [range(1, n), [0, *range(2, n)]]
    params = PruneParams.for_model(n, 0.5)
    fast = prune_fast(entries_from_sets(sets), params)
    assert fast.entries == []
    assert [r["conflicts_with"] for r in fast.stats["removed"]] == [[1], [0]]
    assert fast.to_dict() == prune_naive(entries_from_sets(sets), params).to_dict()


def test_fast_peak_memory_stays_below_eight_bytes_per_list_entry():
    # the float32 indicator rows take 4 bytes per m * n entry; a float64 copy
    # or a transposed copy of them would add 8 or 4 more
    rng = np.random.default_rng(10)
    n, m = 4096, 1024
    lst = entries_from_sets(np.sort(rng.choice(n, size=200, replace=False)).tolist()
                            for _ in range(m))
    params = PruneParams.for_model(n, 0.5)
    tracemalloc.start()
    try:
        out = prune_fast(lst, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stats["input"] == m and out.stats["output"] == m
    assert peak < 8 * m * n


def test_fast_peak_memory_keeps_one_count_table_per_batch():
    # m = 2048 entries: the 4-byte indicator rows and the m x m float32 count
    # table; an int32 copy of that table would add 2 bytes more per m * n
    rng = np.random.default_rng(11)
    n, m = 4096, 2048
    lst = entries_from_sets(np.sort(rng.choice(n, size=200, replace=False)).tolist()
                            for _ in range(m))
    params = PruneParams.for_model(n, 0.5)
    tracemalloc.start()
    try:
        out = prune_fast(lst, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stats["input"] == m and out.stats["output"] == m
    assert peak < 8 * m * n


def random_list(rng, n, k, count, overlap_core=0):
    sets = []
    core = list(rng.choice(n, size=overlap_core, replace=False)) if overlap_core else []
    for _ in range(count):
        rest = rng.choice(n, size=k - len(core), replace=False)
        merged = set(core) | set(int(v) for v in rest)
        while len(merged) < k:
            merged.add(int(rng.integers(0, n)))
        sets.append(tuple(sorted(merged))[:k])
    return sets


@pytest.mark.parametrize("mode", ["random", "adversarial"])
def test_fast_equals_naive_randomized(mode):
    # lists of n + 1 to 2n entries: most dedup to more than n, two n-row batches
    rng = np.random.default_rng(0 if mode == "random" else 1)
    multi_batch = 0
    for trial in range(60):
        n = int(rng.integers(20, 60))
        k = int(rng.integers(4, max(5, n // 3)))
        count = int(rng.integers(n + 1, 2 * n + 1))
        core = 0 if mode == "random" else int(rng.integers(0, k))
        sets = random_list(rng, n, k, count, overlap_core=core)
        if mode == "adversarial":
            sets.extend(sets[:2])  # force duplicates
        params = PruneParams(n=n, p=0.5, delta=int(rng.integers(1, k + 2)))
        lst = entries_from_sets(sets)
        multi_batch += len(set(sets)) > n
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small k can make Delta vacuous
            naive = prune_naive(lst, params)
            fast = prune_fast(lst, params)
        assert fast.vertex_sets() == naive.vertex_sets()
    assert multi_batch >= 40


def test_fast_and_naive_documents_are_identical():
    # the whole document, removed entries' conflicts_with included
    from tests.test_acceptance import _random_prune_list
    rng = np.random.default_rng(44)
    removals = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(300):
            lst, params = _random_prune_list(rng)
            naive = prune_naive(lst, params).to_dict()
            assert prune_fast(lst, params).to_dict() == naive
            removals += bool(naive["stats"]["removed"])
    assert removals > 50


def test_fast_equals_naive_over_several_batches():
    # 100 distinct entries over n = 30 vertices: four n-row batches
    rng = np.random.default_rng(2)
    sets = random_list(rng, 30, 8, 100, overlap_core=3)
    assert len(set(sets)) > 3 * 30
    params = PruneParams(n=30, p=0.5, delta=5)
    lst = entries_from_sets(sets)
    fast = prune_fast(lst, params)
    assert fast.vertex_sets() == prune_naive(lst, params).vertex_sets()
    assert fast.stats["removed"] and fast.entries


def test_planted_survives_when_others_barely_overlap():
    rng = np.random.default_rng(3)
    n, k, delta = 200, 20, 6
    params = PruneParams(n=n, p=0.5, delta=delta)
    star = tuple(range(k))
    others = []
    for i in range(5):
        take = list(rng.choice(star, size=delta, replace=False))
        fresh = [v for v in range(k + i * k, k + i * k + k - delta)]
        others.append(tuple(sorted(take + fresh)))
    out = prune_naive(entries_from_sets([star] + others), params)
    assert star in out.vertex_sets()


def test_idempotent():
    rng = np.random.default_rng(4)
    sets = random_list(rng, 100, 12, 40, overlap_core=5)
    params = PruneParams(n=100, p=0.5, delta=7)
    once = prune_naive(entries_from_sets(sets), params)
    twice = prune_naive(CliqueList(once.entries), params)
    assert twice.vertex_sets() == once.vertex_sets()
    fast_once = prune_fast(entries_from_sets(sets), params)
    fast_twice = prune_fast(CliqueList(fast_once.entries), params)
    assert fast_twice.vertex_sets() == fast_once.vertex_sets()


def test_size_bound_for_compatible_families():
    # families with pairwise intersections <= delta and k >= sqrt(2 n delta)
    # can never exceed (n/k)(1 + 2 n delta / k^2) entries after pruning
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(200, 1200))
        p = float(rng.uniform(0.2, 0.8))
        delta = intersection_threshold(n, p)
        k = math.ceil(math.sqrt(2 * n * delta))
        if k > n:
            continue
        core_budget = delta
        count = (n - core_budget) // (k - core_budget)
        core = list(range(core_budget))
        sets = []
        at = core_budget
        for _ in range(count):
            sets.append(tuple(core + list(range(at, at + k - core_budget))))
            at += k - core_budget
        params = PruneParams(n=n, p=p, delta=delta)
        out = prune_fast(entries_from_sets(sets), params)
        assert len(out.entries) == len(sets)  # nothing conflicted
        bound = (n / k) * (1 + 2 * n * delta / k**2)
        assert len(out.entries) <= bound


def test_five_n_random_cliques_on_complete_graph():
    # heavy-duplication stress: m = 5n random k-subsets, fast == naive
    rng = np.random.default_rng(6)
    n, k = 60, 6
    sets = [tuple(sorted(rng.choice(n, size=k, replace=False))) for _ in range(5 * n)]
    params = PruneParams.for_model(n, 0.5)
    lst = entries_from_sets(sets)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        naive = prune_naive(lst, params)
        fast = prune_fast(lst, params)
    assert fast.vertex_sets() == naive.vertex_sets()
