import numpy as np
import pytest

from srpc import bits, linalg
from srpc.errors import ParameterError

BACKENDS = [linalg.NAIVE, linalg.BLOCKED, linalg.RECURSIVE]


def test_hand_checked_2x2():
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([[5, 6], [7, 8]], dtype=np.int64)
    expected = np.array([[19, 22], [43, 50]])
    for backend in BACKENDS:
        assert np.array_equal(linalg.matmul(a, b, backend), expected)


def test_identity_is_neutral():
    rng = np.random.default_rng(0)
    a = rng.integers(-50, 50, size=(31, 31)).astype(np.int64)
    eye = np.eye(31, dtype=np.int64)
    for backend in BACKENDS:
        assert np.array_equal(linalg.matmul(a, eye, backend), a)


def test_backends_bit_identical_on_odd_shapes():
    rng = np.random.default_rng(1)
    a = rng.integers(-100, 100, size=(257, 129)).astype(np.int64)
    b = rng.integers(-100, 100, size=(129, 63)).astype(np.int64)
    naive = linalg.matmul(a, b, linalg.NAIVE)
    for backend in BACKENDS[1:]:
        assert np.array_equal(naive, linalg.matmul(a, b, backend))


def test_blocked_result_independent_of_block_size():
    rng = np.random.default_rng(2)
    a = rng.integers(-9, 9, size=(70, 41)).astype(np.int64)
    b = rng.integers(-9, 9, size=(41, 55)).astype(np.int64)
    ref = linalg.matmul(a, b, linalg.NAIVE)
    for block in (1, 7, 16, 64, 200):
        got = linalg.matmul(a, b, linalg.Backend("blocked", block_size=block))
        assert np.array_equal(got, ref)


def test_dimension_and_kind_mismatches():
    a = np.zeros((3, 4), dtype=np.int64)
    with pytest.raises(ParameterError):
        linalg.matmul(a, np.zeros((5, 2), dtype=np.int64))
    with pytest.raises(ParameterError):
        linalg.matmul(a, np.zeros((4, 2), dtype=np.float64))
    with pytest.raises(ParameterError):
        linalg.matmul(a.astype(np.int32), np.zeros((4, 2), dtype=np.int32))
    with pytest.raises(ParameterError, match="int64"):  # float64 matmul has no caller
        linalg.matmul(a.astype(np.float64), np.zeros((4, 2), dtype=np.float64))


def test_integer_overflow_is_refused():
    big = np.full((2, 2), 2**62, dtype=np.int64)
    with pytest.raises(OverflowError):
        linalg.matmul(big, big)


def test_sign_matmul_equals_generic_integer_path():
    # exhaustive diff against the dense product for n <= 256
    rng = np.random.default_rng(4)
    for n in (1, 2, 63, 64, 65, 129, 256):
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, n))
        dense = bits.unpack_sign_rows(bits.pack_sign_rows(signs), n).astype(np.float32)
        table = linalg.sign_matmul(dense, dense, n)
        expected = linalg.matmul(signs.astype(np.int64), signs.T.astype(np.int64))
        assert np.array_equal(table, expected)


def test_sign_matmul_matches_popcount_reference():
    # sizes around the 64-bit word boundary, and n in the thousands
    rng = np.random.default_rng(5)
    for n in (1, 63, 64, 65, 2000, 2500):
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, n))
        packed = bits.pack_sign_rows(signs)
        dense = bits.unpack_sign_rows(packed, n).astype(np.float32)
        table = linalg.sign_matmul(dense, dense, n)
        assert table.dtype == np.float32  # the GEMM's own output, exact below 2**24
        assert np.array_equal(table, bits.sign_inner_popcount(packed, packed, n))


@pytest.mark.parametrize("n", [1, 255, 4097, 65537, (1 << 20) + 3])
def test_sign_matmul_float32_table_holds_the_extreme_counts(n):
    # rows of all +1, all -1, alternating signs and a 0/1 indicator: the
    # float32 table holds +-n, the alternating sums and the counts exactly
    alternating = np.where(np.arange(n) % 2 == 0, 1, -1)
    rows = np.stack([np.ones(n), -np.ones(n), alternating,
                     np.arange(n) % 3 == 0]).astype(np.float32)
    table = linalg.sign_matmul(rows, rows, n)
    assert table.dtype == np.float32
    expected = rows.astype(np.int64) @ rows.astype(np.int64).T
    assert abs(expected).max() == n
    assert np.array_equal(table, expected)


def test_sign_matmul_refuses_rows_past_float32_exactness():
    # 1x1 operands whose product fails the test: the length check must come
    # before any GEMM
    class NoGemm(np.ndarray):
        def __matmul__(self, other):
            raise AssertionError("GEMM ran before the range check")

    one = np.ones((1, 1), dtype=np.float32).view(NoGemm)
    counters = linalg.Counters()
    with pytest.raises(ParameterError, match="exact float32 range"):
        linalg.sign_matmul(one, one, 2 ** 24, counters)
    assert counters.oracle_calls == 0


def test_sign_matmul_takes_int8_or_float32_and_refuses_other_kinds():
    # int8 signs widen inside the call to the same exact float32 table; an
    # int32 operand, or a float64 b, is refused (an int8 or int32 GEMM would wrap)
    rng = np.random.default_rng(7)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(9, 300))
    wide = signs.astype(np.float32)
    expected = linalg.sign_matmul(wide, wide, 300)
    for a, b in [(signs, signs), (signs, wide), (wide, signs)]:
        table = linalg.sign_matmul(a, b, 300)
        assert table.dtype == np.float32 and np.array_equal(table, expected)
    assert np.array_equal(expected, signs.astype(np.int64) @ signs.T.astype(np.int64))
    for kind in (np.int32, np.float64):
        with pytest.raises(ParameterError, match="int8 or float32"):
            linalg.sign_matmul(signs, signs.astype(kind), 300)
    with pytest.raises(ParameterError, match="int8 or float32"):
        linalg.sign_matmul(signs.astype(np.int32), wide, 300)


def test_sign_matmul_float64_rows_against_int8_signs_give_the_float64_product():
    # b widens to float64 a tile at a time, so the table is the plain float64 GEMM
    n, rows = 90, linalg._TILE_ROWS + 5
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, n))
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, n))
    counters = linalg.Counters()
    table = linalg.sign_matmul(a, signs, n, counters)
    assert table.dtype == np.float64
    assert np.allclose(table, a @ signs.T.astype(np.float64), rtol=0, atol=1e-12)
    assert (counters.oracle_calls, counters.madds) == (1, 6 * n * rows)


def test_sign_matmul_tiles_b_within_one_oracle_call():
    # b spans two whole tiles and a 3-row remainder: the tiles join into the
    # exact table of one recorded call of m * n * rows multiply-adds
    n, m, rows = 70, 5, 2 * linalg._TILE_ROWS + 3
    rng = np.random.default_rng(8)
    a = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(m, n))
    b = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, n))
    counters = linalg.Counters()
    table = linalg.sign_matmul(a, b, n, counters)
    assert np.array_equal(table, a.astype(np.int64) @ b.T.astype(np.int64))
    assert (counters.oracle_calls, counters.madds) == (1, m * n * rows)


@pytest.mark.parametrize("kinds", [(np.int8, np.int8), (np.float32, np.float32),
                                   (np.float32, np.int8), (np.float64, np.int8)],
                         ids=["int8-int8", "float32-float32", "float32-int8", "float64-int8"])
@pytest.mark.parametrize("rows", [0, 1, 11, 12, 13, 25],
                         ids=["0", "1", "n-1", "n", "n+1", "2n+1"])
def test_sign_matmul_charges_one_call_per_n_rows_and_at_least_one(kinds, rows):
    # m rows of length n = 12 times cols rows: max(1, ceil(m / n)) calls, m * n * cols madds
    n, cols = 12, 7
    rng = np.random.default_rng(rows)
    a = rng.integers(-1, 2, size=(rows, n)).astype(kinds[0])
    b = rng.integers(-1, 2, size=(cols, n)).astype(kinds[1])
    counters = linalg.Counters()
    table = linalg.sign_matmul(a, b, n, counters)
    reference = a.astype(np.int64) @ b.T.astype(np.int64)
    assert table.shape == (rows, cols) and np.array_equal(table, reference)
    assert (counters.oracle_calls, counters.madds) == (max(1, -(-rows // n)), rows * n * cols)


def test_sign_matmul_counts_indicator_intersections_exactly():
    rng = np.random.default_rng(6)
    sets = [tuple(np.flatnonzero(rng.random(101) < 0.3)) for _ in range(67)] + [()]
    u = linalg.indicator_rows(sets, 101)
    assert u.dtype == np.float32 and set(np.unique(u)) <= {0.0, 1.0}
    counters = linalg.Counters()
    table = np.concatenate([linalg.sign_matmul(u[start:start + 10], u[:29], 101, counters)
                            for start in range(0, 68, 10)])
    assert (counters.oracle_calls, counters.madds) == (7, 68 * 101 * 29)
    direct = [[len(set(a) & set(b)) for b in sets[:29]] for a in sets]
    assert np.array_equal(table, direct)


def test_counters_track_calls_and_madds():
    counters = linalg.Counters()
    a = np.ones((4, 5), dtype=np.int64)
    b = np.ones((5, 6), dtype=np.int64)
    linalg.matmul(a, b, counters=counters)
    linalg.matmul(a, b, counters=counters)
    assert counters.oracle_calls == 2
    assert counters.madds == 2 * 4 * 5 * 6


def test_power_iteration_on_diagonal():
    sigma, v = linalg.power_iteration(np.diag([5.0, 2.0, 1.0]))
    assert sigma == pytest.approx(5.0, rel=1e-9)
    assert abs(v[0]) == pytest.approx(1.0, rel=1e-6)


def test_power_iteration_rank_one():
    u = np.array([0.0, 2.0, 0.0])
    v = np.array([3.0, 0.0, 4.0, 0.0, 0.0])
    m = np.outer(u, v)  # norms 2 and 5
    sigma, _ = linalg.power_iteration(m)
    assert sigma == pytest.approx(10.0, rel=1e-9)


def test_power_iteration_vs_characteristic_polynomial_blocks():
    # block-diagonal M built from blocks of size <= 3; the top singular value
    # is the square root of the largest eigenvalue of M^T M, and each block's
    # eigenvalues come from its characteristic polynomial.
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
              rng.standard_normal((2, 2))]
    m = np.zeros((8, 8))
    at = 0
    expected = 0.0
    for blk in blocks:
        d = blk.shape[0]
        m[at:at + d, at:at + d] = blk
        gram = blk.T @ blk
        expected = max(expected, float(np.max(np.real(np.roots(
            np.poly(gram))))))
        at += d
    sigma, _ = linalg.power_iteration(m)
    assert sigma == pytest.approx(np.sqrt(expected), rel=1e-7)


def test_power_iteration_deflation_cross_check():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((12, 9))
    sigma, v = linalg.power_iteration(m)
    u = m @ v / sigma
    deflated = m - sigma * np.outer(u, v)
    sigma2, _ = linalg.power_iteration(deflated)
    assert sigma2 <= sigma + 1e-9
    # removing the top component leaves the second singular value
    svals = np.linalg.svd(m, compute_uv=False)
    assert sigma == pytest.approx(svals[0], rel=1e-8)
    assert sigma2 == pytest.approx(svals[1], rel=1e-6)


@pytest.mark.parametrize("shape", [(512, 64), (64, 512), (10, 5000), "rank-one"])
def test_power_iteration_matches_svd_to_rounding(shape):
    # tall, wide and very wide +-1 matrices, and a rank-one 3 x 2
    if shape == "rank-one":
        m = np.outer([1.0, -2.0, 2.0], [3.0, 4.0])
    else:
        m = np.random.default_rng(11).choice(np.array([-1.0, 1.0]), size=shape)
    sigma, v = linalg.power_iteration(m)
    expected = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(sigma - expected) <= 1e-12 * expected
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(m @ v) - sigma) <= 1e-12 * sigma


def test_power_iteration_rejects_zero_matrix():
    with pytest.raises(ParameterError):
        linalg.power_iteration(np.zeros((3, 3)))
