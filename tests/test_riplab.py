import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from srpc import riplab
from srpc.errors import ParameterError


def test_build_tensored_order_one_is_base_sample():
    h = riplab.build_tensored(5, 1, 12, riplab.RademacherBase(), seed=0)
    assert h.values.shape == (12, 5)
    assert set(np.unique(h.values)) <= {-1.0, 1.0}
    assert h.columns.tolist() == [[i] for i in range(5)]


def test_build_tensored_column_products():
    h = riplab.build_tensored(4, 2, 30, riplab.RademacherBase(), seed=1)
    assert h.columns.tolist() == [list(c) for c in combinations(range(4), 2)]
    assert h.columns.dtype == np.int32 and not h.columns.flags.writeable
    # recover the base sample from order-1 with the same seed
    base = riplab.build_tensored(4, 1, 30, riplab.RademacherBase(), seed=1)
    for c, (i, j) in enumerate(h.columns):
        assert np.array_equal(h.values[:, c], base.values[:, i] * base.values[:, j])


def test_build_tensored_peak_memory_stays_below_32_bytes_per_column():
    # At q = 1 each of the C(120, 3) = 280840 columns holds its int32 index
    # triple (12 bytes) and its float64 value (8), and building it adds one
    # float64 factor gather (8): 28 bytes, with no Python object per column.
    riplab.build_tensored(4, 3, 1, riplab.RademacherBase(), seed=0)  # lazy imports, outside the trace
    tracemalloc.start()
    try:
        h = riplab.build_tensored(120, 3, 1, riplab.RademacherBase(), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.values.shape == (1, 280840) and h.columns.shape == (280840, 3)
    assert peak < 32 * len(h.columns), peak / len(h.columns)


def test_fixed_base_row_products():
    # base row (+,+,-,-) over pairs {01,02,03,12,13,23} -> (+,-,-,-,-,+)
    row = np.array([1.0, 1.0, -1.0, -1.0])
    products = [row[i] * row[j] for i, j in combinations(range(4), 2)]
    assert products == [1.0, -1.0, -1.0, -1.0, -1.0, 1.0]


def test_tensored_entry_bound_pbiased():
    base = riplab.PBiasedBase(Fraction(4, 5))
    h = riplab.build_tensored(5, 2, 50, base, seed=2)
    assert np.all(np.abs(h.values) <= h.entry_bound + 1e-12)
    assert h.entry_bound == pytest.approx(4.0)  # (p_minus = 2)**2


def test_rademacher_is_the_half_pbiased_law_with_its_own_sampler():
    rademacher, half = riplab.RademacherBase(), riplab.PBiasedBase(Fraction(1, 2))
    laws = [(base.bound, base.exact_values(), base.exact_probs()) for base in (rademacher, half)]
    assert laws[0] == laws[1] == (1.0, (1, -1), (Fraction(1, 2), Fraction(1, 2)))
    draws = rademacher.sample(np.random.default_rng(9), (7, 5))
    assert np.array_equal(draws, np.random.default_rng(9).choice([-1.0, 1.0], size=(7, 5)))


@pytest.mark.parametrize("p", [Fraction(4, 5), Fraction(1, 5)], ids=["4/5", "1/5"])
def test_pbiased_sample_takes_the_exact_values(p):
    base = riplab.PBiasedBase(p)
    draws = base.sample(np.random.default_rng(0), 400)
    assert set(draws.tolist()) == {float(v) for v in base.exact_values()}


def test_pbiased_sample_at_a_non_square_odds_is_the_square_root():
    base = riplab.PBiasedBase(Fraction(1, 3))  # (1-p)/p = 2
    draws = base.sample(np.random.default_rng(0), 400)
    assert set(draws.tolist()) == {math.sqrt(2), -math.sqrt(1 / 2)}
    assert base.bound == math.sqrt(2)


@pytest.mark.parametrize("p", [Fraction(1, 10 ** 400), 1 - Fraction(1, 10 ** 400)],
                         ids=["near-zero", "near-one"])
def test_pbiased_values_past_the_float_range_are_refused(p):
    with pytest.raises(ParameterError, match="^p = .* base values past the float range"):
        riplab.PBiasedBase(p)


def test_build_refuses_entries_past_the_float_range_before_sampling():
    base = riplab.PBiasedBase(Fraction(1, 10 ** 300))  # p_plus = 1e150, p_minus = 1e-150
    riplab.build_tensored(4, 1, 8, base, seed=0)  # Gram terms down to 1e-300
    base.sample = None  # any draw would fail
    # t = 2: Gram terms 1e-600 underflow; t = 3: entries up to 1e450 overflow too
    for t in (2, 3):
        with pytest.raises(ParameterError, match="^p = 1/1000.* Gram terms below the normal "
                                                 f"float range at t = {t}$"):
            riplab.build_tensored(4, t, 8, base, seed=0)


def test_build_validation():
    with pytest.raises(ParameterError):
        riplab.build_tensored(2, 3, 10, riplab.RademacherBase(), seed=0)
    with pytest.raises(ParameterError):
        riplab.build_tensored(5, 0, 10, riplab.RademacherBase(), seed=0)
    with pytest.raises(ParameterError):
        riplab.build_tensored(5, 2, 0, riplab.RademacherBase(), seed=0)


def test_exhaustive_isotropy_rademacher_exact():
    h = riplab.build_tensored(6, 3, 4, riplab.RademacherBase(), seed=3)
    report = riplab.isotropy_check(h, mode="exhaustive")
    assert report.exact and report.ok
    assert report.max_abs_mean == 0.0
    assert report.max_abs_cross == 0.0
    assert report.max_diag_err == 0.0


def test_exhaustive_isotropy_pbiased_exact():
    base = riplab.PBiasedBase(Fraction(4, 5))
    h = riplab.build_tensored(5, 2, 4, base, seed=4)
    report = riplab.isotropy_check(h, mode="exhaustive")
    assert report.exact and report.ok
    assert (report.max_abs_mean, report.max_abs_cross, report.max_diag_err) == (0, 0, 0)


def test_exhaustive_isotropy_refuses_large_k():
    h = riplab.build_tensored(21, 1, 4, riplab.RademacherBase(), seed=5)
    with pytest.raises(ParameterError):
        riplab.isotropy_check(h, mode="exhaustive")


def test_exhaustive_isotropy_refuses_irrational_pbiased():
    base = riplab.PBiasedBase(Fraction(1, 3))  # (1-p)/p = 2, not a square
    h = riplab.build_tensored(4, 2, 4, base, seed=6)
    with pytest.raises(ParameterError):
        riplab.isotropy_check(h, mode="exhaustive")


def test_sampled_isotropy_within_tolerance():
    h = riplab.build_tensored(10, 3, 10_000, riplab.RademacherBase(), seed=7)
    report = riplab.isotropy_check(h, mode="sampled")
    assert report.tol == pytest.approx(5.0 / math.sqrt(10_000))
    assert report.ok


@pytest.mark.parametrize("mode, q", [("sampled", 400), ("exhaustive", 4)])
def test_isotropy_tolerance_is_set_by_the_mode(mode, q):
    # sampled mode allows 5/sqrt(q); the exhaustive verdict is exact, so it allows 0
    h = riplab.build_tensored(4, 2, q, riplab.RademacherBase(), seed=1)
    report = riplab.isotropy_check(h, mode=mode)
    assert report.tol == (5.0 / math.sqrt(q) if mode == "sampled" else 0.0)
    assert report.exact == (mode == "exhaustive")


def test_opnorm_orthonormal_columns():
    report = riplab.sparse_opnorm_exhaustive(np.eye(6), r=3)
    assert report.value == pytest.approx(1.0, rel=1e-9)


def test_opnorm_two_identical_unit_columns():
    u = np.full(16, 0.25)  # unit norm
    h = np.stack([u, u], axis=1)
    report = riplab.sparse_opnorm_exhaustive(h, r=2)
    assert report.value == pytest.approx(math.sqrt(2), rel=1e-9)
    assert sorted(np.abs(report.coefficients)) == pytest.approx(
        [1 / math.sqrt(2)] * 2, rel=1e-6)


def test_opnorm_r1_is_max_column_norm():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((20, 9))
    report = riplab.sparse_opnorm_exhaustive(h, r=1)
    assert report.value == pytest.approx(
        float(np.linalg.norm(h, axis=0).max()), rel=1e-9)


def test_opnorm_monotone_in_r_and_full_support_is_spectral_norm():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((15, 6))
    values = [riplab.sparse_opnorm_exhaustive(h, r=r).value for r in range(1, 7)]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(np.linalg.svd(h, compute_uv=False)[0], rel=1e-8)


def test_opnorm_exhaustive_refuses_more_support_entries_than_the_limit():
    # C(600, 3) * 3 = 107460600 entries > 2**26; the 600 x 600 Gram is within its limit
    with pytest.raises(ParameterError, match=r"C\(600, 3\) \* r = 35820200 \* 3 exceeds the "
                                             "limit MAX_SUPPORT_ENTRIES"):
        riplab.sparse_opnorm_exhaustive(np.eye(600), r=3)


def test_opnorm_witness_reverified():
    rng = np.random.default_rng(10)
    h = rng.standard_normal((12, 8))
    report = riplab.sparse_opnorm_exhaustive(h, r=2)
    v = np.zeros(8)
    v[list(report.support)] = report.coefficients
    assert np.linalg.norm(h @ v) == pytest.approx(report.value, rel=1e-9)


def test_sampled_opnorm_is_lower_bound_and_exhaustive_when_covering():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((10, 6))
    exhaustive = riplab.sparse_opnorm_exhaustive(h, r=2)
    sampled = riplab.sparse_opnorm_sampled(h, r=2, trials=400, seed=1)
    assert sampled.value <= exhaustive.value + 1e-12
    # C(6,2)=15; 400 uniform draws cover all supports w.p. ~1
    assert sampled.value == pytest.approx(exhaustive.value, rel=1e-9)


def test_rip_deviation_orthonormal_and_r1():
    assert riplab.rip_deviation_sampled(np.eye(8), r=3, trials=50) <= 1e-9
    h = riplab.build_tensored(8, 2, 64, riplab.RademacherBase(), seed=12)
    dev = riplab.rip_deviation_sampled(h.values / math.sqrt(64), r=1, trials=64)
    assert dev == 0.0  # columns have exactly unit norm after scaling


def test_sampled_estimates_refuse_zero_trials():
    with pytest.raises(ParameterError):
        riplab.rip_deviation_sampled(np.eye(4), r=2, trials=0)
    with pytest.raises(ParameterError):
        riplab.sparse_opnorm_sampled(np.eye(4), r=2, trials=0)


def test_sampled_estimates_refuse_more_entries_than_the_limit():
    # trials * r one past the limit is refused before anything is drawn
    trials = riplab.MAX_SUPPORT_ENTRIES // 2 + 1
    for estimate in (riplab.rip_deviation_sampled, riplab.sparse_opnorm_sampled):
        with pytest.raises(ParameterError, match="MAX_SUPPORT_ENTRIES"):
            estimate(np.eye(4), r=2, trials=trials)


@pytest.mark.parametrize("base, r", [
    (riplab.RademacherBase(), 12),
    (riplab.PBiasedBase(Fraction(4, 5)), 1),
    (riplab.PBiasedBase(Fraction(4, 5)), 2),
    (riplab.PBiasedBase(Fraction(4, 5)), 16),
], ids=["rademacher-r12", "pbiased-r1", "pbiased-r2", "pbiased-r16"])
def test_rip_deviation_matches_direct_loop(base, r):
    # Reference: the draw rule replayed row by row, with one (trials, r)
    # coefficient block and ||H v|| taken directly.  r=12 gives twelve chunks;
    # the p = 4/5 Gram's diagonal is not 1.
    q, trials = 128, 2500
    h = riplab.build_tensored(10, 3, q, base, seed=23).values / math.sqrt(q)
    rows = floyd_rows(24, h.shape[1], r, trials)
    rng = np.random.default_rng(np.random.SeedSequence(24))
    for j in range(h.shape[1] - r, h.shape[1]):
        rng.integers(0, j + 1, size=trials)
    coeff = rng.standard_normal((trials, r))
    expected = max(abs(float(np.linalg.norm(h[:, row] @ (c / np.linalg.norm(c)))) - 1.0)
                   for row, c in zip(rows, coeff))
    dev = riplab.rip_deviation_sampled(h, r=r, trials=trials, seed=24)
    assert dev == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("base", [riplab.RademacherBase(), riplab.PBiasedBase(Fraction(4, 5))],
                         ids=["rademacher", "pbiased"])
@pytest.mark.parametrize("r", [1, 5, 16])
def test_rip_deviation_does_not_depend_on_the_chunk_size(monkeypatch, base, r):
    q = 64
    h = riplab.build_tensored(9, 3, q, base, seed=5).values / math.sqrt(q)
    devs = []
    for floats in (2 ** 8, riplab._CHUNK_FLOATS, 2 ** 20):
        monkeypatch.setattr(riplab, "_CHUNK_FLOATS", floats)
        devs.append(riplab.rip_deviation_sampled(h, r=r, trials=600, seed=6))
    assert devs[0] == devs[1] == devs[2]


def test_gram_limit_is_d_squared_entries():
    side = math.isqrt(riplab.MAX_TENSORED_ENTRIES)
    riplab._check_gram(side)
    with pytest.raises(ParameterError, match=r"d \* d <= MAX_TENSORED_ENTRIES"):
        riplab._check_gram(side + 1)


def test_exhaustive_support_limit_is_checked_before_any_support_exists(monkeypatch):
    def no_subsets(m, r):
        raise AssertionError("supports enumerated")

    monkeypatch.setattr(riplab, "_subsets", no_subsets)
    # C(513, 3) * 3 = 67108608 <= 2**26 < C(514, 3) * 3
    with pytest.raises(AssertionError, match="supports enumerated"):
        riplab.sparse_opnorm_exhaustive(np.zeros((1, 513)), 3)
    with pytest.raises(ParameterError, match="MAX_SUPPORT_ENTRIES"):
        riplab.sparse_opnorm_exhaustive(np.zeros((1, 514)), 3)
    entries = math.comb(30, 3) * 3
    monkeypatch.setattr(riplab, "MAX_SUPPORT_ENTRIES", entries - 1)  # one entry over
    with pytest.raises(ParameterError, match="MAX_SUPPORT_ENTRIES"):
        riplab.sparse_opnorm_exhaustive(np.eye(30), 3)
    monkeypatch.setattr(riplab, "MAX_SUPPORT_ENTRIES", entries)
    with pytest.raises(AssertionError, match="supports enumerated"):
        riplab.sparse_opnorm_exhaustive(np.eye(30), 3)
    # the Gram limit holds too: 8193 columns, one support each, are refused on d * d
    with pytest.raises(ParameterError, match=r"d \* d <= MAX_TENSORED_ENTRIES"):
        riplab.sparse_opnorm_exhaustive(np.zeros((1, 8193)), 1)


def test_rip_deviation_decreases_with_rows():
    devs = []
    for q in (128, 512, 2048):
        h = riplab.build_tensored(12, 3, q, riplab.RademacherBase(), seed=13)
        devs.append(riplab.rip_deviation_sampled(h.values / math.sqrt(q), r=16,
                                                 trials=400, seed=14))
    assert devs[0] > devs[-1]


def test_correlated_count_stays_quadratic_under_majority_w():
    # order-2 tensored columns built from k Rademacher vectors vs an
    # adversarial w from the majority construction: w contaminates the
    # single vectors badly but the pairwise-product columns reaching a raw
    # inner product of k/3 stay within a recorded constant times (n/k)^2.
    # Needs a generous k (k/3 must clear several noise sigmas = sqrt(n)).
    from srpc.instances import majority_vector
    n, k, m = 256, 192, 21
    recorded_constant = 4.0
    counts = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        base = rng.choice(np.array([-1.0, 1.0]), size=(n, k))
        pairs = list(combinations(range(k), 2))
        cols = base[:, [i for i, _ in pairs]] * base[:, [j for _, j in pairs]]
        w = majority_vector(base[:, :m].T.astype(np.int64)).astype(np.float64)
        # w rides on the single vectors at the n/sqrt(m) scale ...
        singles = base.T @ w
        assert singles[:m].mean() >= 0.5 * n / math.sqrt(m)
        # ... but the order-2 columns stay at noise level
        tau = (k / 3) / np.linalg.norm(w)  # raw threshold k/3
        count, _ = riplab.correlated_column_count(cols, w, tau)
        counts.append(count)
    bound = recorded_constant * (n / k) ** 2
    assert max(counts) <= bound, (counts, bound)


def test_correlated_column_count():
    h = np.eye(5)
    w = np.zeros(5)
    w[0] = 2.0
    count, cols = riplab.correlated_column_count(h, w, tau=0.5)
    assert (count, cols) == (1, [0])
    count, _ = riplab.correlated_column_count(h[:, 1:], w, tau=0.5)
    assert count == 0
    with pytest.raises(ParameterError):
        riplab.correlated_column_count(h, np.zeros(5), tau=0.1)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_correlated_column_count_refuses_non_finite_tau(tau):
    h = np.eye(5)
    with pytest.raises(ParameterError, match="tau"):
        riplab.correlated_column_count(h, np.ones(5), tau=tau)


def test_correlated_count_unit_column_hits_itself():
    rng = np.random.default_rng(15)
    h = rng.standard_normal((12, 6))
    h /= np.linalg.norm(h, axis=0)
    count, cols = riplab.correlated_column_count(h, h[:, 3], tau=1.0 - 1e-12)
    assert count >= 1 and 3 in cols


def test_correlation_count_vs_opnorm_inequality():
    # whenever the count is at most r, it is also at most (norm/tau)^2
    rng = np.random.default_rng(16)
    checked = 0
    for trial in range(30):
        q = int(rng.integers(12, 40))
        k = int(rng.integers(4, 8))
        h = riplab.build_tensored(k, 2, q, riplab.RademacherBase(),
                                  seed=trial).values / math.sqrt(q)
        w = rng.standard_normal(q)
        corr = np.sort(h.T @ (w / np.linalg.norm(w)))[::-1]
        r = 3
        tau = corr[r - 1] * 0.999 if corr[r - 1] > 0 else None
        if tau is None or math.comb(h.shape[1], r) > 40_000:
            continue
        count, _ = riplab.correlated_column_count(h, w, tau)
        if count > r:
            continue
        value = riplab.sparse_opnorm_exhaustive(h, r=r).value
        assert count <= value**2 / tau**2
        checked += 1
    assert checked >= 15


def test_spectral_norm_cases():
    assert np.linalg.svd(np.diag([3.0, 1.0]), compute_uv=False)[0] == pytest.approx(3.0, rel=1e-9)
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 5.0])
    assert np.linalg.svd(np.outer(u, v), compute_uv=False)[0] == pytest.approx(10.0, rel=1e-9)


def test_spectral_norm_rademacher_ratio():
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = rng.choice(np.array([-1.0, 1.0]), size=(512, 64))
        ratios.append(np.linalg.svd(m, compute_uv=False)[0] / (math.sqrt(512) + math.sqrt(64)))
    assert all(0.8 <= r <= 1.3 for r in ratios)


def tied_columns():
    """Unit columns v_0..v_7, u with <v_i, u> = +-1/2 and <v_i, v_j> = +-1/4.

    The r=2 maximum sqrt(3/2) is reached by every support (i, 8).  Their Gram
    matrices differ in the sign of the off-diagonal entry, so the tie is
    exact in value but not in the arithmetic that ranks it.
    """
    c, m = 0.5, 8
    h = np.zeros((m + 1, m + 1))
    h[0, :m] = c * (-1.0) ** np.arange(m)
    h[np.arange(1, m + 1), np.arange(m)] = math.sqrt(1 - c * c)
    h[0, m] = 1.0
    return h


def test_opnorm_exhaustive_tie_goes_to_lexicographically_first_support():
    report = riplab.sparse_opnorm_exhaustive(tied_columns(), r=2)
    assert report.value == pytest.approx(math.sqrt(1.5), rel=1e-9)
    assert report.support == (0, 8)


def floyd_rows(seed, d, r, trials):
    """Floyd's sampler one row at a time, on the same draws as riplab._draw_supports."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = [rng.integers(0, j + 1, size=trials) for j in range(d - r, d)]
    rows = []
    for i in range(trials):
        row = []
        for j, t in zip(range(d - r, d), draws):
            row.append(j if t[i] in row else int(t[i]))
        rows.append(row)
    return rows


def test_draw_supports_matches_floyd_reference():
    # r = 1, r = d and the deviation workload's r = 16 at d = 220 included
    for d, r, trials in ((12, 5, 300), (12, 1, 300), (12, 12, 50), (220, 16, 10_000)):
        rng = np.random.default_rng(np.random.SeedSequence(21))
        drawn = riplab._draw_supports(rng, d, r, trials)
        assert drawn.shape == (trials, r) and drawn.dtype == np.int32
        assert drawn.tolist() == floyd_rows(21, d, r, trials)
        assert drawn.min() >= 0 and drawn.max() < d
        assert all(len(set(row)) == r for row in drawn.tolist())


def paired_gram_blocks(gram, supports):
    """The paired-index gather that riplab._gram_blocks replaced: the reference."""
    return gram[supports[:, :, None], supports[:, None, :]]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("d, r, trials", [(12, 1, 300), (12, 12, 50), (220, 16, 10_000)],
                         ids=["r-1", "r-d", "r-16-d-220"])
def test_gram_blocks_match_paired_index_reference(dtype, d, r, trials):
    rng = np.random.default_rng(np.random.SeedSequence(32))
    drawn = riplab._draw_supports(rng, d, r, trials)  # a transposed, non-C-ordered view
    mat = rng.standard_normal((40, d))
    gram = mat.T @ mat
    for supports in (drawn.astype(dtype, order="K"), np.sort(drawn, axis=1).astype(dtype)):
        blocks = riplab._gram_blocks(gram, supports)
        assert blocks.shape == (trials, r, r)
        assert np.array_equal(blocks, paired_gram_blocks(gram, supports))


def test_draw_supports_pairs_are_uniform():
    trials = 200_000
    rng = np.random.default_rng(np.random.SeedSequence(22))
    drawn = np.sort(riplab._draw_supports(rng, 5, 2, trials), axis=1)
    assert np.all(drawn[:, 0] < drawn[:, 1]) and drawn.min() >= 0 and drawn.max() < 5
    pairs, counts = np.unique(drawn[:, 0] * 5 + drawn[:, 1], return_counts=True)
    assert len(pairs) == 10
    sigma = math.sqrt(trials * 0.1 * 0.9)
    assert np.all(np.abs(counts - trials / 10) <= 5 * sigma), counts


def test_opnorm_sampled_tie_goes_to_first_drawn_support():
    report = riplab.sparse_opnorm_sampled(tied_columns(), r=2, trials=200, seed=3)
    drawn = [tuple(sorted(row)) for row in floyd_rows(3, 9, 2, 200)]
    assert report.support == next(s for s in drawn if s[1] == 8)
    assert report.value == pytest.approx(math.sqrt(1.5), rel=1e-9)


def test_opnorm_exhaustive_r2_matches_closed_form_pair_max():
    q = 64
    mat = riplab.build_tensored(8, 2, q, riplab.RademacherBase(), seed=17).values / math.sqrt(q)
    gram = mat.T @ mat

    def pair_norm(i, j):
        a, b, c = gram[i, i], gram[j, j], gram[i, j]
        return math.sqrt((a + b) / 2 + math.sqrt(((a - b) / 2) ** 2 + c * c))

    best = max(pair_norm(i, j) for i, j in combinations(range(mat.shape[1]), 2))
    report = riplab.sparse_opnorm_exhaustive(mat, r=2)
    # The ranking is exact; the reported value comes from the eigh witness.
    assert pair_norm(*report.support) == pytest.approx(best, rel=1e-12)
    assert report.value == pytest.approx(best, rel=1e-9)


def test_opnorm_exhaustive_past_a_million_supports_matches_closed_form_pair_max():
    # C(C(24, 3), 2) = C(2024, 2) = 2047276 supports, 4094552 entries: within the limit
    q = 64
    mat = riplab.build_tensored(24, 3, q, riplab.RademacherBase(), seed=17).values / math.sqrt(q)
    gram = mat.T @ mat
    i, j = np.triu_indices(mat.shape[1], 1)
    a, b, c = gram[i, i], gram[j, j], gram[i, j]
    pair_norms = np.sqrt((a + b) / 2 + np.sqrt(((a - b) / 2) ** 2 + c * c))
    report = riplab.sparse_opnorm_exhaustive(mat, r=2)
    assert report.supports_checked == 2047276
    assert report.value == pytest.approx(pair_norms.max(), rel=1e-9)


def test_opnorm_exhaustive_r3_matches_svd_over_supports():
    rng = np.random.default_rng(18)
    h = rng.standard_normal((9, 7))
    best = max(np.linalg.svd(h[:, list(s)], compute_uv=False)[0]
               for s in combinations(range(7), 3))
    report = riplab.sparse_opnorm_exhaustive(h, r=3)
    assert report.value == pytest.approx(best, rel=1e-9)
    top = np.linalg.svd(h[:, list(report.support)], compute_uv=False)[0]
    assert top == pytest.approx(best, rel=1e-12)


def rip_docs_across_blas_threads(tmp_path, *args):
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"doc-{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "srpc.cli", "rip", *args, "--out", str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
    return json.loads(docs[0])


def test_sampled_opnorm_document_identical_across_blas_threads(tmp_path):
    doc = rip_docs_across_blas_threads(
        tmp_path, "opnorm", "--k", "10", "--t", "3", "--q", "128", "--r", "6",
        "--method", "sampled", "--trials", "3000", "--seed", "5")
    assert doc["supports_checked"] == 3000


def test_deviation_document_identical_across_blas_threads(tmp_path):
    doc = rip_docs_across_blas_threads(
        tmp_path, "deviation", "--k", "10", "--t", "3", "--q", "256", "--r", "12",
        "--trials", "3000", "--seed", "5")
    assert doc["trials"] == 3000 and 0 < doc["deviation"] < 1


def test_opnorm_witness_is_exact_where_power_iteration_stalled():
    # At this seed the best r=2 support's Gram has a start vector 4e-6 from
    # its bottom eigenvector; power iteration stopped there and reported the
    # smaller singular value.  The witness now comes from eigh.
    q = 256
    h = riplab.build_tensored(12, 3, q, riplab.RademacherBase(), seed=1887620648)
    mat = h.values / math.sqrt(q)
    report = riplab.sparse_opnorm_exhaustive(mat, r=2)
    top = np.linalg.svd(mat[:, list(report.support)], compute_uv=False)[0]
    assert abs(report.value - top) <= 1e-9
    assert report.residual <= 1e-9 * max(report.value, 1.0)


def fraction_isotropy(k, t, base):
    """Exact column moments by a Fraction loop over every outcome (the reference)."""
    v_plus, v_minus = base.exact_values()
    p_plus, p_minus = base.exact_probs()
    cols = list(combinations(range(k), t))
    means = [Fraction(0)] * len(cols)
    gram = [[Fraction(0)] * len(cols) for _ in cols]
    for outcome in range(2 ** k):
        coord = [v_plus if (outcome >> j) & 1 else v_minus for j in range(k)]
        weight = math.prod(p_plus if (outcome >> j) & 1 else p_minus for j in range(k))
        colvals = [math.prod(coord[j] for j in alpha) for alpha in cols]
        for a, va in enumerate(colvals):
            means[a] += weight * va
            for b in range(len(cols)):
                gram[a][b] += weight * va * colvals[b]
    d = len(cols)
    max_mean = max(abs(m) for m in means)
    max_cross = max((abs(gram[a][b]) for a in range(d) for b in range(d) if a != b),
                    default=Fraction(0))
    max_diag = max(abs(gram[a][a] - 1) for a in range(d))
    return float(max_mean), float(max_cross), float(max_diag)


class OffCentreBase:
    """Values 1 and -1/2 with probability 1/2 each: nonzero mean, non-unit variance."""

    def exact_values(self):
        return Fraction(1), Fraction(-1, 2)

    def exact_probs(self):
        return Fraction(1, 2), Fraction(1, 2)


@pytest.mark.parametrize("k, t, base", [
    *[(k, t, riplab.RademacherBase()) for k in range(3, 8) for t in range(1, 4)],
    (5, 2, riplab.PBiasedBase(Fraction(4, 5))),
    (4, 3, riplab.PBiasedBase(Fraction(4, 5))),
    (5, 1, OffCentreBase()),
    (5, 2, OffCentreBase()),
    (4, 3, OffCentreBase()),
])
def test_exact_isotropy_matches_fraction_loop(k, t, base):
    report = riplab._exact_isotropy(k, t, base)
    expected = fraction_isotropy(k, t, base)
    assert (report.max_abs_mean, report.max_abs_cross, report.max_diag_err) == expected
    assert report.ok == (expected == (0.0, 0.0, 0.0))


def full_ranking(mat, supports):
    """The ranking without pruning: batched eigvalsh of every support's Gram block (the reference)."""
    gram = mat.T @ mat
    lam = np.concatenate([np.linalg.eigvalsh(riplab._gram_blocks(gram, supports[c]))[:, -1]
                          for c in riplab._chunks(*supports.shape)])
    top = lam.max()
    return int(np.argmax(lam >= top - 1e-12 * abs(top)))


def ranking_matrices():
    q = 64
    mats = {}
    for base in (riplab.RademacherBase(), riplab.PBiasedBase(Fraction(4, 5))):
        h = riplab.build_tensored(10, 3, q, base, seed=41).values
        mats[f"{base.name}-normalized"] = h / math.sqrt(q)
        mats[f"{base.name}-not-normalized"] = h
    rng = np.random.default_rng(42)
    dup = rng.standard_normal((q, 40))
    dup[:, 2] *= 3.0  # the largest column, repeated three times
    dup[:, [5, 11, 14]] = dup[:, [2]]
    mats["duplicated"] = dup
    mats["zero"] = np.zeros((q, 40))
    mats["rank-1"] = np.outer(rng.standard_normal(q), rng.standard_normal(40))
    return mats


RANKING_MATRICES = ranking_matrices()


@pytest.mark.parametrize("name", list(RANKING_MATRICES))
@pytest.mark.parametrize("r", [1, 2, 3, 4, 8, 16])
def test_pruned_ranking_matches_full_ranking(name, r):
    mat = RANKING_MATRICES[name]
    for seed in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        supports = np.sort(riplab._draw_supports(rng, mat.shape[1], r, 2000), axis=1)
        best, eig_ranked = riplab._opnorm_over_supports(mat, supports)
        assert best == full_ranking(mat, supports)
        assert 1 <= eig_ranked <= len(supports) + riplab._SEED_ROWS
    supports = np.array(list(combinations(range(16), r)))  # every support of the first 16 columns
    assert riplab._opnorm_over_supports(mat[:, :16], supports)[0] == full_ranking(mat[:, :16], supports)


def test_exact_ties_go_to_first_support():
    mat = RANKING_MATRICES["duplicated"]
    assert riplab.sparse_opnorm_exhaustive(mat, r=1).support == (2,)
    assert riplab.sparse_opnorm_exhaustive(RANKING_MATRICES["zero"], r=3).support == (0, 1, 2)


def test_eig_bounds_are_certified_upper_bounds():
    for name, mat in RANKING_MATRICES.items():
        rng = np.random.default_rng(np.random.SeedSequence(7))
        supports = np.sort(riplab._draw_supports(rng, mat.shape[1], 8, 500), axis=1)
        gram = mat.T @ mat
        lam = np.linalg.eigvalsh(riplab._gram_blocks(gram, supports))[:, -1]
        bound = riplab._eig_bounds(gram, supports)
        assert np.all(bound >= lam), name
        assert np.all(bound <= 8 ** 0.125 * (1 + 1e-8) * np.maximum(lam, 0)), name


@pytest.mark.parametrize("seed", range(1, 9))
def test_ranking_prunes_at_workload_shape(seed):
    q, trials = 256, 20_000
    h = riplab.build_tensored(12, 3, q, riplab.RademacherBase(), seed)
    report = riplab.sparse_opnorm_sampled(h.values / math.sqrt(q), r=8, trials=trials, seed=seed)
    assert report.supports_checked == trials
    assert report.eig_ranked < 0.02 * trials


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("estimate", [
    lambda m: riplab.sparse_opnorm_exhaustive(m, r=2),
    lambda m: riplab.sparse_opnorm_sampled(m, r=2, trials=50),
    lambda m: riplab.rip_deviation_sampled(m, r=2, trials=50),
], ids=["exhaustive", "sampled", "deviation"])
def test_estimates_refuse_non_finite_matrix(estimate, bad):
    mat = np.ones((4, 5))
    mat[1, 2] = bad
    with pytest.raises(ParameterError, match="NaN or infinite"):
        estimate(mat)


def test_estimates_refuse_overflowing_gram():
    with pytest.raises(ParameterError, match="overflows"):
        riplab.sparse_opnorm_sampled(np.full((4, 5), 1e200), r=2, trials=50)


def test_sampled_isotropy_refuses_overflowing_gram_as_opnorm_does():
    # one Gram path: the moment estimate raises where the norm estimate does,
    # with no RuntimeWarning and no infinite cross moment on the way
    h = riplab.build_tensored(4, 1, 4, riplab.RademacherBase(), seed=0)
    h = dataclasses.replace(h, values=np.full((4, 4), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="the Gram matrix H\\^T H overflows float64"):
            riplab.sparse_opnorm_exhaustive(h, r=2)
        with pytest.raises(ParameterError, match="the Gram matrix H\\^T H overflows float64"):
            riplab.isotropy_check(h, mode="sampled")
