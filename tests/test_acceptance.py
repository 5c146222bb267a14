"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
Thresholds and tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from srpc import (SolverConfig, batched_inner_products, generate, linalg,
                  prune_fast, prune_naive, riplab, solve,
                  strategy_erdos_renyi)
from srpc.cliquelist import CliqueEntry, CliqueList
from srpc.harness import adversary_demo, evaluate
from srpc.instances import majority_vector
from srpc.pruning import PruneParams, intersection_threshold


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}]: {detail}")


def test_criterion_01_end_to_end_recovery_p_half():
    n, seeds = 2000, 20
    k = 8 * math.ceil(math.sqrt(n))
    cap = 1.2 * n / k
    start = time.perf_counter()
    recovered = 0
    max_list = 0
    for seed in range(seeds):
        inst = generate(n, k, 0.5, strategy_erdos_renyi(), seed=seed)
        result = solve(inst.graph, k, 0.5, SolverConfig(order=3, reps=1,
                                                        seed=1000 + seed))
        ev = evaluate(inst, result)
        if ev.recovered:
            recovered += 1
            max_list = max(max_list, ev.list_size)
    elapsed = time.perf_counter() - start
    ok = recovered >= 19 and max_list <= cap and elapsed <= 120.0
    verdict(1, ok, f"recovered {recovered}/{seeds} (need >=19), "
                   f"max successful list size {max_list} <= {cap:.2f}, "
                   f"elapsed {elapsed:.1f}s <= 120s")
    assert recovered >= 19
    assert max_list <= cap
    assert elapsed <= 120.0


def test_criterion_02_general_p_recovery():
    n, seeds = 2000, 20
    k_half = 8 * math.ceil(math.sqrt(n))
    lines = []
    all_ok = True
    for p in (0.3, 0.7):
        k = math.ceil(k_half * max(1.0, (p / (1 - p)) ** 2))
        recovered = 0
        for seed in range(seeds):
            inst = generate(n, k, p, strategy_erdos_renyi(), seed=2000 + seed)
            result = solve(inst.graph, k, p, SolverConfig(order=3, reps=1,
                                                          seed=3000 + seed))
            ev = evaluate(inst, result)
            recovered += int(ev.recovered)
        lines.append(f"p={p}: k={k}, recovered {recovered}/{seeds} (need >=18)")
        all_ok &= recovered >= 18
    verdict(2, all_ok, "; ".join(lines))
    assert all_ok, lines


def test_criterion_03_adversary_separation():
    n, seeds, m = 4096, 20, 63
    k = 4 * math.ceil(math.sqrt(n))
    floor = 0.5 * n / math.sqrt(m)
    s3_recovered = 0
    s1_contaminated = 0
    min_corr_ok = 0
    worst_min = None
    for seed in range(seeds):
        report = adversary_demo(n=n, k=k, m=m, seed=4000 + seed)
        s3_recovered += int(report["order3_recovered"])
        s1_contaminated += int(report["order1_any_chosen_contaminated"])
        min_corr_ok += int(report["min_correlation"] >= floor)
        worst_min = (report["min_correlation"] if worst_min is None
                     else min(worst_min, report["min_correlation"]))
    ok = s3_recovered >= 18 and s1_contaminated >= 18 and min_corr_ok == seeds
    verdict(3, ok,
            f"order-3 recovered {s3_recovered}/{seeds} (need >=18); "
            f"order-1 contaminated {s1_contaminated}/{seeds} (need >=18); "
            f"min_i <v_i,w> >= {floor:.1f} in {min_corr_ok}/{seeds} seeds "
            f"(need all; worst min {worst_min})")
    assert s3_recovered >= 18, "order-3 recovery below 18/20"
    assert s1_contaminated >= 18, "order-1 contamination below 18/20"
    assert min_corr_ok == seeds, "correlation floor violated in some seed"


def _random_prune_list(rng):
    n = int(rng.integers(24, 140))
    k = int(rng.integers(4, max(5, n // 3)))
    kind = int(rng.integers(0, 4))
    # half the independent and shared-core lists outnumber n, so that prune_fast
    # runs more than one n-row batch on them
    outnumber = kind < 2 and rng.random() < 0.5
    count = int(rng.integers(n + 1, 2 * n + 1)) if outnumber else int(rng.integers(0, 30))
    sets = []
    if kind == 0:  # independent random subsets
        sets = [tuple(sorted(rng.choice(n, size=k, replace=False)))
                for _ in range(count)]
    elif kind == 1:  # shared core: heavy mutual overlap
        core = list(rng.choice(n, size=max(1, k // 2), replace=False))
        pool = [v for v in range(n) if v not in core]
        for _ in range(count):
            extra = rng.choice(len(pool), size=k - len(core), replace=False)
            sets.append(tuple(sorted(core + [pool[e] for e in extra])))
    elif kind == 2:  # chained overlaps
        base = list(rng.permutation(n))
        step = max(1, k // 3)
        for i in range(count):
            lo = (i * step) % max(1, n - k)
            sets.append(tuple(sorted(base[lo:lo + k])))
    else:  # disjoint blocks plus duplicates
        blocks = n // k
        for b in range(min(blocks, count)):
            sets.append(tuple(range(b * k, b * k + k)))
        sets.extend(sets[: count - len(sets)])
    delta = int(rng.integers(1, k + 2))
    return CliqueList([CliqueEntry(s) for s in sets]), PruneParams(n=n, p=0.5, delta=delta)


def test_criterion_04_oracle_equivalences_exact():
    rng = np.random.default_rng(44)
    # 1) prune_fast == prune_naive on 200 randomized lists, 20 or more of them
    #    holding more distinct entries than n (several n-row batches)
    prune_cases = multi_batch = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(200):
            lst, params = _random_prune_list(rng)
            naive = prune_naive(lst, params)
            fast = prune_fast(lst, params)
            assert fast.vertex_sets() == naive.vertex_sets()
            prune_cases += 1
            multi_batch += len({entry.vertices for entry in lst.entries}) > params.n
    assert multi_batch >= 20, f"only {multi_batch} prune lists outnumber n"

    # 2) batched inner products == direct loops, bit-exact, n <= 256
    from tests.test_graphs import random_graph
    inner_cases = 0
    for n, alphas_count in ((63, 40), (128, 50), (256, 64)):
        g = random_graph(n, seed=n)
        alphas = [tuple(sorted(rng.choice(n, size=3, replace=False)))
                  for _ in range(alphas_count)]
        table = batched_inner_products(g, alphas)
        signs = g.signs.astype(np.int64)
        for a, alpha in enumerate(alphas):
            row = signs[alpha[0]] * signs[alpha[1]] * signs[alpha[2]]
            if n == 63:  # plain python triple loop at the smallest size
                direct = [sum(int(row[u]) * int(signs[j, u]) for u in range(n))
                          for j in range(n)]
            else:
                direct = [int(row @ signs[j]) for j in range(n)]
            assert table[a].tolist() == direct
            inner_cases += 1

    # 3) all three backends bit-identical on 100 integer cases, odd shapes
    backend_cases = 0
    backends = [linalg.NAIVE, linalg.Backend("blocked", block_size=17),
                linalg.Backend("recursive", cutoff=16)]
    for case in range(100):
        m = int(rng.integers(1, 150))
        inner = int(rng.integers(1, 150))
        cols = int(rng.integers(1, 150))
        a = rng.integers(-30, 31, size=(m, inner)).astype(np.int64)
        b = rng.integers(-30, 31, size=(inner, cols)).astype(np.int64)
        ref = linalg.matmul(a, b, backends[0])
        for backend in backends[1:]:
            assert np.array_equal(ref, linalg.matmul(a, b, backend))
        backend_cases += 1
    verdict(4, True, f"{prune_cases} prune lists ({multi_batch} over n entries), "
                     f"{inner_cases} inner-product "
                     f"rows, {backend_cases} backend cases, all exact")


def test_criterion_05_isotropy_exactness():
    h1 = riplab.build_tensored(6, 3, 4, riplab.RademacherBase(), seed=1)
    r1 = riplab.isotropy_check(h1, mode="exhaustive")
    h2 = riplab.build_tensored(5, 2, 4, riplab.PBiasedBase(Fraction(4, 5)), seed=2)
    r2 = riplab.isotropy_check(h2, mode="exhaustive")
    ok = all(r.exact and r.ok and r.max_abs_mean == 0 and r.max_abs_cross == 0
             and r.max_diag_err == 0 for r in (r1, r2))
    verdict(5, ok, "rademacher k=6 t=3 and p-biased (p=4/5) k=5 t=2: all "
                   "cross-moments exactly 0, second moments exactly 1")
    assert ok


def test_criterion_06_opnorm_trend():
    start = time.perf_counter()
    r2_values, r8_values = [], []
    for q in (128, 256, 512):
        h = riplab.build_tensored(12, 3, q, riplab.RademacherBase(), seed=600 + q)
        mat = h.values / math.sqrt(q)
        r2_values.append(riplab.sparse_opnorm_exhaustive(mat, r=2).value)
        r8_values.append(riplab.sparse_opnorm_sampled(mat, r=8, trials=100_000,
                                                      seed=2).value)
    elapsed = time.perf_counter() - start
    ok = (r2_values == sorted(r2_values, reverse=True)
          and r8_values == sorted(r8_values, reverse=True)
          and r2_values[-1] <= 3.0 and r8_values[-1] <= 3.0
          and elapsed <= 300.0)
    verdict(6, ok, f"r=2 values {[f'{v:.4f}' for v in r2_values]}, "
                   f"r=8 values {[f'{v:.4f}' for v in r8_values]} "
                   f"(nonincreasing, <=3.0 at q=512), elapsed {elapsed:.1f}s")
    assert r2_values == sorted(r2_values, reverse=True)
    assert r8_values == sorted(r8_values, reverse=True)
    assert r2_values[-1] <= 3.0 and r8_values[-1] <= 3.0
    assert elapsed <= 300.0


def test_criterion_07_correlation_count_consistency():
    rng = np.random.default_rng(77)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 400:
        attempts += 1
        k = int(rng.integers(5, 8))
        t = int(rng.integers(1, 3))
        q = int(rng.integers(16, 48))
        base = (riplab.RademacherBase() if attempts % 2
                else riplab.PBiasedBase(Fraction(4, 5)))
        h = riplab.build_tensored(k, t, q, base, seed=attempts)
        mat = h.values / math.sqrt(q)
        d = mat.shape[1]
        r = 3
        if d <= r or math.comb(d, r) > 50_000:
            continue
        w = rng.standard_normal(q)
        corr = np.sort(mat.T @ (w / np.linalg.norm(w)))[::-1]
        if corr[r - 1] <= 1e-6:
            continue
        tau = float((corr[r - 1] + max(corr[r], 0.0)) / 2) or float(corr[r - 1] / 2)
        count, _ = riplab.correlated_column_count(mat, w, tau)
        if count > r or count == 0:
            continue
        value = riplab.sparse_opnorm_exhaustive(mat, r=r).value
        assert count <= value**2 / tau**2, (count, value, tau)
        checked += 1
    verdict(7, checked >= 50, f"{checked} cases with count <= r all satisfied "
                              f"count <= (opnorm)^2 / tau^2")
    assert checked >= 50


def test_criterion_08_pruning_size_bound():
    rng = np.random.default_rng(88)
    cases = 0
    while cases < 50:
        n = int(rng.integers(150, 1500))
        p = float(rng.uniform(0.15, 0.85))
        delta = intersection_threshold(n, p)
        k = math.ceil(math.sqrt(2 * n * delta)) + int(rng.integers(0, 20))
        if k > n or delta >= k:
            continue
        core = int(rng.integers(0, delta + 1))
        count_cap = (n - core) // (k - core)
        if count_cap < 1:
            continue
        count = int(rng.integers(1, count_cap + 1))
        shared = list(range(core))
        sets, at = [], core
        for _ in range(count):
            sets.append(tuple(shared + list(range(at, at + k - core))))
            at += k - core
        params = PruneParams(n=n, p=p, delta=delta)
        out = prune_fast(CliqueList([CliqueEntry(s) for s in sets]), params)
        bound = (n / k) * (1 + 2 * n * delta / k**2)
        assert len(out.entries) == len(sets)
        assert len(out.entries) <= bound, (len(out.entries), bound)
        cases += 1
    verdict(8, True, f"{cases} constructed families respected "
                     f"(n/k)(1 + 2nDelta/k^2)")


def test_criterion_09_oracle_call_accounting():
    settings = [(128, 64, 1.0), (128, 64, 10.0), (200, 50, 10.0),
                (256, 64, 2.0), (256, 128, 10.0), (300, 75, 5.0),
                (320, 40, 1.0), (400, 100, 10.0), (512, 128, 4.0),
                (512, 256, 10.0)]
    assert len(settings) == 10
    lines = []
    for n, k, c in settings:
        inst = generate(n, k, 0.5, strategy_erdos_renyi(), seed=n + int(c))
        cfg = SolverConfig(order=3, reps=1, c_rounds=c, seed=9)
        result = solve(inst.graph, k, 0.5, cfg)
        rounds = math.ceil(c * (n / k) ** 3)
        expected = max(math.ceil(rounds / n), 1)
        got = result.stats["oracle_calls"]["candidate"]
        assert abs(got - expected) <= 1, (n, k, c, got, expected)
        lines.append(f"n={n},k={k},c={c}:{got}/{expected}")
    verdict(9, True, "candidate-stage oracle calls match max(ceil(R/n),1) "
                     "+-1 on 10 settings: " + " ".join(lines))


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "srpc.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_10_cli_determinism_across_threads(tmp_path):
    outputs = {}
    for threads in (1, 4):
        for attempt in (0, 1):
            tag = f"t{threads}a{attempt}"
            d = tmp_path / tag
            d.mkdir()
            base = ["--threads", str(threads)]
            _run_cli(base + ["generate", "--n", "150", "--k", "50", "--p", "0.5",
                             "--seed", "12", "--out-graph", str(d / "graph.txt"),
                             "--out-meta", str(d / "meta.txt")])
            _run_cli(base + ["solve", "--graph", str(d / "graph.txt"), "--k", "50",
                             "--p", "0.5", "--seed", "13", "--out",
                             str(d / "solve.json")])
            _run_cli(base + ["prune", "--list", str(d / "solve.json"), "--n", "150",
                             "--p", "0.5", "--out", str(d / "prune.json")])
            _run_cli(base + ["evaluate", "--graph", str(d / "graph.txt"),
                             "--meta", str(d / "meta.txt"),
                             "--result", str(d / "solve.json"),
                             "--out", str(d / "eval.json")])
            config = d / "grid.json"
            config.write_text(json.dumps({
                "ns": [100], "k_rules": ["30"], "ps": [0.5],
                "solvers": [{"order": 3}],
                "adversaries": [{"name": "erdos_renyi"}],
                "trials": 4, "seed": 14}))
            _run_cli(base + ["grid", "--config", str(config),
                             "--out-csv", str(d / "grid.csv")])
            _run_cli(base + ["adversary-demo", "--n", "120", "--k", "24",
                             "--m", "5", "--seed", "15",
                             "--out", str(d / "demo.json")])
            _run_cli(base + ["rip", "opnorm", "--k", "6", "--t", "2", "--q", "64",
                             "--r", "2", "--seed", "16",
                             "--out", str(d / "opnorm.json")])
            _run_cli(base + ["bench", "--sizes", "16,33", "--seed", "17",
                             "--out", str(d / "bench.json")])
            outputs[tag] = {
                name: (d / name).read_bytes()
                for name in ("graph.txt", "meta.txt", "solve.json", "prune.json",
                             "eval.json", "grid.csv", "demo.json", "opnorm.json",
                             "bench.json")}
    reference = outputs["t1a0"]
    mismatches = [
        (tag, name) for tag, files in outputs.items()
        for name in files if files[name] != reference[name]]
    verdict(10, not mismatches,
            f"9 artifacts byte-identical across threads {{1,4}} and re-runs"
            + (f"; mismatches: {mismatches}" if mismatches else ""))
    assert not mismatches
