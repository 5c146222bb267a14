import numpy as np
import pytest

from srpc import bits


@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 128, 200])
def test_pack_roundtrip(n):
    rng = np.random.default_rng(n)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(17, n))
    packed = bits.pack_sign_rows(signs)
    assert packed.dtype == np.uint64
    assert packed.shape == (17, bits.words_per_row(n))
    assert np.array_equal(bits.unpack_sign_rows(packed, n), signs)


def test_padding_bits_are_zero():
    n = 70  # 6 used bits in the second word
    signs = np.ones((3, n), dtype=np.int8)
    packed = bits.pack_sign_rows(signs)
    used = np.array([~np.uint64(0), (np.uint64(1) << np.uint64(n % 64)) - np.uint64(1)])
    assert np.all(packed & ~used == 0)


def test_sign_inner_popcount_equals_direct_sums():
    rng = np.random.default_rng(5)
    n = 130
    a = rng.choice(np.array([-1, 1], dtype=np.int8), size=(9, n))
    b = rng.choice(np.array([-1, 1], dtype=np.int8), size=(12, n))
    table = bits.sign_inner_popcount(bits.pack_sign_rows(a), bits.pack_sign_rows(b), n)
    direct = a.astype(np.int64) @ b.astype(np.int64).T
    assert np.array_equal(table, direct)


def test_sign_inner_popcount_crosses_xor_blocks():
    # more rows of a than one temporary XOR block holds
    rng = np.random.default_rng(6)
    n = 70
    a = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2 * bits._XOR_ROWS + 3, n))
    b = rng.choice(np.array([-1, 1], dtype=np.int8), size=(5, n))
    table = bits.sign_inner_popcount(bits.pack_sign_rows(a), bits.pack_sign_rows(b), n)
    assert np.array_equal(table, a.astype(np.int64) @ b.astype(np.int64).T)
