"""Matrix-multiplication backends and small dense spectral routines.

:func:`sign_matmul` is the solver's and prune's one product: rows times a
table ``b`` of int8 or float32 entries in {-1, 0, +1}, widened a tile of
rows at a time inside one product, to float32 against int8 or float32
rows (exact integer tables: sign inner products, intersection and degree
counts alike) and to float64 against float64 rows.  :func:`matmul`
multiplies plain int64 arrays (exact, overflow-checked) under three
backends, which ``srpc bench`` times.

The oracle's cost model lives here alone: :func:`sign_matmul` charges m rows
of length n times ``cols`` rows max(1, ceil(m / n)) calls and m * n * cols
multiply-adds, whatever BLAS calls it makes; :func:`matmul` charges one call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, check_int

INT64_MAX = np.iinfo(np.int64).max

# A row product of entries in {-1, 0, +1} has integer partial sums of
# magnitude <= n, which float32 holds exactly, in any summation order,
# while n < 2**24.
_FLOAT32_EXACT_N = 2 ** 24
_TILE_ROWS = 1024  # rows of b widened per GEMM: 4 * n bytes each, 8 * n as float64 at p != 1/2


@dataclass
class Counters:
    """Instrumentation for the multiplication oracle."""

    oracle_calls: int = 0
    madds: int = 0
    seconds: float = 0.0

    def record(self, calls: int, madds: int, seconds: float) -> None:
        self.oracle_calls += calls
        self.madds += madds
        self.seconds += seconds


@dataclass(frozen=True)
class Backend:
    """Multiplication strategy: 'naive', 'blocked', or 'recursive'."""

    kind: str = "naive"
    block_size: int = 64
    cutoff: int = 128

    def __post_init__(self):
        if self.kind not in ("naive", "blocked", "recursive"):
            raise ParameterError(f"unknown backend kind {self.kind!r}")
        check_int("block_size", self.block_size, 1)
        check_int("cutoff", self.cutoff, 1)


NAIVE = Backend("naive")
BLOCKED = Backend("blocked")
RECURSIVE = Backend("recursive")


def _check_operands(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ParameterError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ParameterError(
            f"dimension mismatch: {a.shape} x {b.shape}")
    if a.dtype != np.int64 or b.dtype != np.int64:
        raise ParameterError(f"matmul operands must be int64, got {a.dtype} and {b.dtype}")


def _check_int_overflow(a: np.ndarray, b: np.ndarray, levels: int) -> None:
    # Each Strassen level can double operand magnitudes and sums four block
    # products, so 8**levels is a safe inflation factor; levels == 0 covers
    # the naive and blocked paths.
    max_a = int(np.abs(a).max(initial=0))
    max_b = int(np.abs(b).max(initial=0))
    bound = max_a * max_b * a.shape[1] * (8 ** levels)
    if bound > INT64_MAX:
        raise OverflowError(
            f"int64 product may overflow: |A|<={max_a}, |B|<={max_b}, "
            f"inner={a.shape[1]}, inflation=8^{levels}, bound={bound} > {INT64_MAX}")


def _matmul_blocked(a: np.ndarray, b: np.ndarray, block: int) -> np.ndarray:
    m, inner = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=a.dtype)
    for i0 in range(0, m, block):
        for k0 in range(0, inner, block):
            a_blk = a[i0:i0 + block, k0:k0 + block]
            b_rows = b[k0:k0 + block]
            for j0 in range(0, n, block):
                out[i0:i0 + block, j0:j0 + block] += a_blk @ b_rows[:, j0:j0 + block]
    return out


def _strassen(a: np.ndarray, b: np.ndarray, cutoff: int) -> np.ndarray:
    m, inner = a.shape
    n = b.shape[1]
    if max(m, inner, n) <= cutoff or min(m, inner, n) <= 1:
        return a @ b
    # Zero-pad odd dimensions to even before splitting.
    ap = np.pad(a, ((0, m % 2), (0, inner % 2))) if (m | inner) % 2 else a
    bp = np.pad(b, ((0, inner % 2), (0, n % 2))) if (inner | n) % 2 else b
    hm, hk, hn = (m + 1) // 2, (inner + 1) // 2, (n + 1) // 2
    a11, a12 = ap[:hm, :hk], ap[:hm, hk:]
    a21, a22 = ap[hm:, :hk], ap[hm:, hk:]
    b11, b12 = bp[:hk, :hn], bp[:hk, hn:]
    b21, b22 = bp[hk:, :hn], bp[hk:, hn:]

    p1 = _strassen(a11 + a22, b11 + b22, cutoff)
    p2 = _strassen(a21 + a22, b11, cutoff)
    p3 = _strassen(a11, b12 - b22, cutoff)
    p4 = _strassen(a22, b21 - b11, cutoff)
    p5 = _strassen(a11 + a12, b22, cutoff)
    p6 = _strassen(a21 - a11, b11 + b12, cutoff)
    p7 = _strassen(a12 - a22, b21 + b22, cutoff)

    out = np.empty((2 * hm, 2 * hn), dtype=a.dtype)
    out[:hm, :hn] = p1 + p4 - p5 + p7
    out[:hm, hn:] = p3 + p5
    out[hm:, :hn] = p2 + p4
    out[hm:, hn:] = p1 - p2 + p3 + p6
    return out[:m, :n]


def _strassen_levels(a: np.ndarray, b: np.ndarray, backend: Backend) -> int:
    if backend.kind != "recursive":
        return 0
    levels = 0
    dims = max(a.shape[0], a.shape[1], b.shape[1])
    while dims > backend.cutoff:
        dims = (dims + 1) // 2
        levels += 1
    return levels


def matmul(a: np.ndarray, b: np.ndarray, backend: Backend = NAIVE,
           counters: Counters | None = None) -> np.ndarray:
    """Product A @ B of int64 arrays under the selected backend.

    Results are exact for every backend, and therefore identical across
    backends.
    """
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    _check_operands(a, b)
    _check_int_overflow(a, b, _strassen_levels(a, b, backend))
    start = time.perf_counter()
    if backend.kind == "naive":
        out = a @ b
    elif backend.kind == "blocked":
        out = _matmul_blocked(a, b, backend.block_size)
    else:
        out = _strassen(a, b, backend.cutoff)
    if counters is not None:
        counters.record(1, a.shape[0] * a.shape[1] * b.shape[1], time.perf_counter() - start)
    return out


def sign_matmul(a: np.ndarray, b: np.ndarray, n: int,
                counters: Counters | None = None) -> np.ndarray:
    """Table T[i, j] = <a_i, b_j> of int8 or float32 rows of length n, or float64 ``a``.

    ``b`` holds signs, or 0/1 indicators whose inner products count
    intersections.  Each n rows of ``a``, one charged oracle call, widen to
    float32 (float64 stays), and ``b`` :data:`_TILE_ROWS` rows at a time to
    that kind; a float32 tile's GEMM sums all n entries into exact integers
    (an int8 GEMM would wrap).  m rows of ``a`` are charged max(1, ceil(m / n))
    calls and m * n * len(b) multiply-adds.  n >= 2**24 (past float32's exact
    range) and other kinds raise ParameterError.
    """
    if n >= _FLOAT32_EXACT_N:
        raise ParameterError(
            f"sign rows of length {n} exceed the exact float32 range (< {_FLOAT32_EXACT_N})")
    if not ({a.dtype, b.dtype} <= {np.dtype(np.int8), np.dtype(np.float32)}
            or (a.dtype, b.dtype) == (np.float64, np.int8)):
        raise ParameterError(f"sign operands must be int8 or float32, got {a.dtype} and {b.dtype}")
    start = time.perf_counter()
    m = a.shape[0]
    out = np.empty((m, b.shape[0]), dtype=np.promote_types(a.dtype, np.float32))
    for i in range(0, m, n):  # one charged call: n rows of a, widened once
        wide = a[i:i + n].astype(out.dtype, copy=False)
        for j in range(0, b.shape[0], _TILE_ROWS):
            np.matmul(wide, b[j:j + _TILE_ROWS].astype(out.dtype, copy=False).T,
                      out=out[i:i + n, j:j + _TILE_ROWS])
    if counters is not None:  # an empty product still counts one call
        counters.record(max(1, -(-m // n)), m * n * b.shape[0], time.perf_counter() - start)
    return out


def indicator_rows(sets: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """float32 0/1 table whose row a marks the vertices of sets[a] in [0, n)."""
    cols = [np.asarray(members, dtype=np.int64) for members in sets]
    out = np.zeros((len(sets), n), dtype=np.float32)
    out[np.repeat(np.arange(len(sets)), [len(c) for c in cols]),
        np.concatenate([np.empty(0, dtype=np.int64), *cols])] = 1.0
    return out


def power_iteration(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Top singular value and unit right singular vector, exactly.

    Takes ``eigh`` of the smaller Gram side: sigma = sqrt(max(lambda_top, 0)),
    and for a wide ``m`` the right vector is m^T u, normalised.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ParameterError("power_iteration needs a non-empty 2-D matrix")
    if not np.any(m):
        raise ParameterError("power_iteration needs a nonzero matrix")
    tall = m.shape[0] >= m.shape[1]
    lam, vecs = np.linalg.eigh(m.T @ m if tall else m @ m.T)
    right = vecs[:, -1] if tall else m.T @ vecs[:, -1]
    return math.sqrt(max(float(lam[-1]), 0.0)), right / np.linalg.norm(right)
