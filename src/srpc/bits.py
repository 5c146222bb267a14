"""Bit-packed sign rows: the exact XOR-popcount reference for sign inner products.

No graph is stored this way (graphs hold dense int8 signs); the tests
compare ``linalg.sign_matmul`` against :func:`sign_inner_popcount`.  Rows
are packed one bit per entry into little-endian uint64 words: bit
``j % 64`` of word ``j // 64`` is 1 when the entry is +1 and 0 when it is
-1.  Padding bits past the row length are always 0, so XOR-based popcount
inner products never see them.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
_XOR_ROWS = 64  # rows of packed_a per temporary XOR block


def words_per_row(n: int) -> int:
    return (n + WORD_BITS - 1) // WORD_BITS


def pack_sign_rows(signs: np.ndarray) -> np.ndarray:
    """Pack a 2-D array of +-1 values into uint64 words.

    Args:
        signs: Array of shape (m, n) with values in {+1, -1}.

    Returns:
        Packed array of shape (m, words_per_row(n)), dtype uint64.
    """
    signs = np.atleast_2d(np.asarray(signs))
    m, n = signs.shape
    width = words_per_row(n) * WORD_BITS
    bits = np.zeros((m, width), dtype=np.uint8)
    bits[:, :n] = signs > 0
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64)


def unpack_sign_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_sign_rows`; returns int8 values in {+1, -1}."""
    packed = np.atleast_2d(packed)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")[:, :n]
    return (bits.astype(np.int8) * 2) - 1


def sign_inner_popcount(packed_a: np.ndarray, packed_b: np.ndarray, n: int) -> np.ndarray:
    """All pairwise inner products between two packed sign-row stacks.

    Returns the int32 table T with T[i, j] = <a_i, b_j> = n - 2 * popcount(
    a_i XOR b_j).  Word-parallel; :data:`_XOR_ROWS` bounds the temporary XOR block.
    """
    packed_a = np.atleast_2d(packed_a)
    packed_b = np.atleast_2d(packed_b)
    m = packed_a.shape[0]
    out = np.empty((m, packed_b.shape[0]), dtype=np.int32)
    for start in range(0, m, _XOR_ROWS):
        block = packed_a[start:start + _XOR_ROWS]
        xored = block[:, None, :] ^ packed_b[None, :, :]
        out[start:start + _XOR_ROWS] = n - 2 * np.bitwise_count(xored).sum(
            axis=2, dtype=np.int32)
    return out
