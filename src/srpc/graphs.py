"""Sign-matrix graph representation and row algebra.

A graph on n vertices is stored as a symmetric n x n matrix over {+1, -1}
with the diagonal fixed to +1 (an edge is +1, a non-edge -1), held as one
dense read-only int8 array; the row products, the candidate GEMM, the
degree sweep and the clique check all read it directly.  The p-biased
rescaling maps +1 to p_plus = sqrt((1-p)/p) and -1 to -p_minus =
-sqrt(p/(1-p)), which gives mean-zero unit-variance entries when edges
appear with probability p.
"""

from __future__ import annotations

import re
import warnings
from typing import Iterable, Union

import numpy as np

from .errors import (InputError, InternalInvariantError, ParameterError, check_int,
                     check_probability)

GRAPH_HEADER = "srpc-graph v1"
# Largest n that read_graph accepts; its dense int8 sign matrix is then at most 1 GiB.
MAX_N = 1 << 15
# Side of the square tiles in which the constructor compares signs with signs.T.
_TILE = 256
# Body bytes that read_graph scans per step (rounded up to the next line end).
_CHUNK_BYTES = 1 << 20
# Sign bytes that write_graph takes per block of rows.
_WRITE_BLOCK_BYTES = 1 << 18


class SignedAdjacency:
    """Immutable dense int8 +-1 adjacency matrix with +1 diagonal.

    The constructor takes ownership of ``signs`` (an int8 array is kept, not
    copied) and marks it read-only.
    """

    def __init__(self, signs: np.ndarray):
        signs = np.asarray(signs)
        if signs.ndim != 2 or signs.shape[0] != signs.shape[1]:
            raise InputError("sign matrix must be square")
        n = signs.shape[0]
        # strips and tiles keep every temporary small enough to stay in cache
        if not all(np.all(np.abs(signs[r:r + _TILE]) == 1) for r in range(0, n, _TILE)):
            raise InputError("entries must be +1 or -1")
        signs = np.ascontiguousarray(signs, dtype=np.int8)
        if not all(np.array_equal(signs[r:r + _TILE, c:c + _TILE],
                                  signs[c:c + _TILE, r:r + _TILE].T)
                   for r in range(0, n, _TILE) for c in range(r, n, _TILE)):
            raise InputError("adjacency matrix is not symmetric")
        if not np.all(np.diag(signs) == 1):
            raise InputError("diagonal entries must be +1")
        signs.setflags(write=False)
        self.n = n
        self.signs = signs

    def adjacency01(self, dtype=np.float64) -> np.ndarray:
        """0/1 adjacency with a zero diagonal (a vertex is not its own neighbor)."""
        a = (self.signs > 0).astype(dtype)
        np.fill_diagonal(a, 0)
        return a

    def is_clique(self, vertices) -> bool:
        """True when the submatrix induced on ``vertices`` is all +1; an empty set is a clique."""
        v = np.asarray(vertices, dtype=np.intp)  # a tuple would index as rows and columns
        return bool(np.all(self.signs[v][:, v] == 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedAdjacency) and np.array_equal(self.signs, other.signs)


def from_edge_list(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> SignedAdjacency:
    """Build the sign matrix with +1 exactly on the given undirected edges.

    ``edges`` is an (m, 2) integer array or any iterable of vertex pairs.
    """
    check_int("n", n, 1)
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise InputError("edges must be pairs of integer vertex indices")
    i, j = pairs.T
    bad = np.flatnonzero((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n) | (i == j))
    if bad.size:
        a, b = pairs[bad[0]].tolist()
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"edge ({a},{b}) has an endpoint outside [0,{n})")
        raise InputError(f"self-loop ({a},{a}) is not allowed")
    i, j = pairs.T.astype(np.int64)
    return _signs_from_edges(n, [(i * n + j, j * n + i)])


def _signs_from_edges(n: int, key_batches: Iterable[tuple[np.ndarray, np.ndarray]]
                      ) -> SignedAdjacency:
    """The sign matrix with +1 at both flat indices i*n + j and j*n + i of every edge.

    Each batch holds the two flat-index arrays of its edges; they must lie in [0, n*n).
    """
    flat = np.full(n * n, -1, dtype=np.int8)
    flat[::n + 1] = 1
    for keys, mirrored in key_batches:
        flat[keys] = 1
        flat[mirrored] = 1
    return SignedAdjacency(flat.reshape(n, n))


class PBiasedMatrix:
    """Real rescaling of a sign matrix with entries in {p_plus, -p_minus}."""

    def __init__(self, graph: SignedAdjacency, p: float):
        check_probability("p", p)
        self.n = graph.n
        self.p = float(p)
        # 1/p - 1 == (1-p)/p but stays exact at p = 4/5, 1/5, ... in binary
        ratio = 1.0 / p - 1.0
        self.p_plus = float(np.sqrt(ratio))
        self.p_minus = float(np.sqrt(1.0 / ratio))
        self.bound = max(self.p_plus, self.p_minus)
        if abs(self.p_plus * self.p_minus - 1.0) > 1e-12:
            raise ParameterError("p_plus * p_minus deviates from 1 beyond rounding")
        values = np.where(graph.signs > 0, self.p_plus, -self.p_minus)
        self.values = values
        self.values.setflags(write=False)


def _check_alpha(alpha, n: int) -> tuple[int, ...]:
    idx = tuple(sorted(int(i) for i in alpha))
    if not 1 <= len(idx) <= 3:
        raise InputError(f"alpha must have 1..3 indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise InputError(f"alpha has duplicate indices: {idx}")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise InputError(f"alpha {idx} has indices outside [0,{n})")
    return idx


def row_products(values: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """out[b] = product over i in alphas[b] of values[i], for a (B, s) index array.

    Factors are multiplied in index order, so float rows equal a sequential
    ``*=`` over the same indices bit for bit.  Indices are not validated.
    """
    out = values[alphas[:, 0]]
    for col in range(1, alphas.shape[1]):
        out *= values[alphas[:, col]]
    return out


def hadamard_rows(matrix: Union[SignedAdjacency, PBiasedMatrix],
                  alpha: Iterable[int]) -> np.ndarray:
    """The row out[j] = product over i in alpha of matrix[i][j]."""
    idx = _check_alpha(alpha, matrix.n)
    dense = matrix.signs if isinstance(matrix, SignedAdjacency) else matrix.values
    return row_products(dense, np.array([idx]))[0]


def _vertex_names(n: int) -> np.ndarray:
    """The decimal names of 0..n-1 as bytes of one width, right-aligned behind NUL padding."""
    width = len(str(max(n - 1, 0)))
    vertices = np.arange(n)[:, None]
    place = 10 ** np.arange(width - 1, -1, -1)
    digits = (vertices // place % 10 + ord("0")).astype(np.uint8)
    digits[:, :-1][vertices < place[:-1]] = 0  # leading zeros become padding
    return digits.view(f"S{width}").ravel()


def write_graph(graph: SignedAdjacency, path) -> None:
    """Write the v1 edge list: the header, then ``i j`` per edge, i < j, sorted by (i, j).

    Rows are taken a block of about 256 KiB of signs at a time.  The block's
    edges with j > i are found in (i, j) order, and each becomes one
    fixed-width record ``(name of i, " ", name of j, "\n")`` from a table of
    vertex names padded with leading NULs.  Deleting the NULs from the
    block's records gives its lines, written at once.  No Python code runs
    per row or per edge and no whole-file string is built; line ends are
    ``\n`` on every platform and the output is byte-reproducible.
    """
    n = graph.n
    names = _vertex_names(n)
    record = np.dtype([("i", names.dtype), ("space", "S1"), ("j", names.dtype),
                       ("newline", "S1")])
    rows_per_block = max(1, _WRITE_BLOCK_BYTES // max(n, 1))
    with open(path, "wb") as fh:
        fh.write(f"{GRAPH_HEADER} n={n}\n".encode())
        for start in range(0, n, rows_per_block):
            stop = min(start + rows_per_block, n)
            # row start + r keeps the columns past its diagonal: c >= r in the block
            upper = graph.signs[start:stop, start + 1:] > 0
            corner = upper[:, :stop - start]
            corner &= ~np.tri(*corner.shape, -1, dtype=bool)
            cols = np.flatnonzero(upper)
            records = np.empty(cols.size, dtype=record)
            records["i"] = np.repeat(names[start:stop], np.count_nonzero(upper, axis=1))
            records["space"] = b" "
            # one copy of the column names per row, so flat indices need no division
            records["j"] = np.tile(names[start + 1:], stop - start)[cols]
            records["newline"] = b"\n"
            fh.write(records.tobytes().translate(None, b"\0"))


# The header line, stripped: exactly three fields, n in ASCII decimal.
_HEADER_LINE = re.compile(r"srpc-graph\s+v1\s+n=([0-9]+)")
# A body line: blank, or two ASCII-decimal vertex indices; spaces and tabs around them.
_EDGE_LINE = re.compile(r"[ \t]*(?:([0-9]+)[ \t]+([0-9]+)[ \t]*)?")


def _chunk_edges(chunk: bytes, n: int, prev: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The flat indices (i*n + j, j*n + i) of one newline-aligned body chunk's edges.

    ``prev`` is the key i*n + j of the last edge before the chunk, or -1.
    Returns None if a line breaks the format.
    """
    if chunk.translate(None, b"0123456789 \t\n"):
        return None
    codes = np.frombuffer(chunk, dtype=np.uint8)
    digit = codes >= ord("0")
    event = codes == ord("\n")
    event[0] |= digit[0]
    event[1:] |= digit[1:] > digit[:-1]
    # In the ordered stream of digit-run starts (tokens) and newlines, two tokens
    # or none per line means every run of tokens has length exactly 2: no token
    # has a token on both sides or on neither side.
    token = np.zeros(np.count_nonzero(event) + 2, dtype=bool)
    token[1:-1] = np.compress(event, codes) != ord("\n")
    if np.any(token[1:-1] & (token[:-2] == token[2:])):
        return None
    tokens = np.count_nonzero(token)
    if tokens == 0:
        none = np.empty(0, dtype=np.int64)
        return none, none
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a partial parse only warns
        try:
            values = np.fromstring(chunk, dtype=np.int64, sep=" ")
        except DeprecationWarning:
            return None
    if values.size != tokens:
        return None
    i, j = values[0::2], values[1::2]
    if not (np.all(i < j) and j.max() < n):
        return None
    keys = i * n + j
    if keys[0] <= prev or np.any(keys[1:] <= keys[:-1]):
        return None
    return keys, j * n + i


def _body_edges(data: bytes, start: int, n: int):
    """Yield the :func:`_chunk_edges` flat indices of the v1 body ``data[start:]``, chunk by chunk.

    Chunks end at a newline.  A chunk that breaks the format holds the body's
    first bad line (every earlier chunk passed) and raises :func:`_bad_line`'s error.
    """
    body_start, prev = start, -1
    while start < len(data):
        stop = data.find(b"\n", start + _CHUNK_BYTES - 1)
        stop = len(data) if stop < 0 else stop + 1
        edges = _chunk_edges(data[start:stop], n, prev)
        if edges is None:
            raise _bad_line(data[start:stop].decode("utf-8", errors="replace"), n,
                            data.count(b"\n", body_start, start) + 2, prev)
        start = stop
        if edges[0].size:
            prev = int(edges[0][-1])
        yield edges


def _bad_line(chunk: str, n: int, first_lineno: int, prev: int) -> InputError:
    """The error naming the first bad line of a chunk that starts at line ``first_lineno``."""
    for lineno, line in enumerate(chunk.split("\n"), start=first_lineno):
        match = _EDGE_LINE.fullmatch(line)
        if match is None:
            shown = line.strip(" \t")  # a form feed or other odd byte stays visible
            return InputError(f"line {lineno}: expected two integer vertex indices, "
                              f"got {shown!r}")
        if match.group(1) is None:
            continue
        i, j = int(match.group(1)), int(match.group(2))
        where = f"line {lineno}: edge ({i},{j})"
        if max(i, j) >= n:
            return InputError(f"{where} has an endpoint outside [0,{n})")
        if i >= j:
            return InputError(f"{where} is not written with i < j")
        key = i * n + j
        if key == prev:
            return InputError(f"{where} is a duplicate")
        if key < prev:
            return InputError(f"{where} is out of order; edges must be sorted by (i, j)")
        prev = key
    return InternalInvariantError("the edge-list parse failed, but every line is well formed")


def read_graph(path) -> SignedAdjacency:
    """Parse a v1 edge list, as :func:`write_graph` writes it.

    Each non-blank body line holds one edge ``i j`` in plain ASCII decimal,
    with 0 <= i < j < n; edges are sorted by (i, j) with no duplicates.
    Blank lines, spaces and tabs around the indices, and CRLF or CR line ends
    are accepted.  Any other line, or a header ``n`` above :data:`MAX_N`,
    raises :class:`InputError` naming its line.

    The body stays bytes.  It is scanned in newline-aligned chunks of about
    a MiB: ``bytes.translate`` refuses any other byte, array scans check the
    two-tokens-per-line shape, ``np.fromstring`` parses the values and array
    reductions check the order, and the chunk's edges go straight into the
    sign matrix.  No Python code runs per edge and no whole-file edge array is
    built.  Only a failed chunk runs the per-line scan that names the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # universal newlines, as a text-mode read would give
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    cut = data.find(b"\n")
    cut = len(data) if cut < 0 else cut
    header = data[:cut].decode("utf-8", errors="replace").strip()
    match = _HEADER_LINE.fullmatch(header)
    if match is None:
        raise InputError(f"line 1: unrecognized graph header: {header!r}")
    n = int(match.group(1))
    if n > MAX_N:
        raise InputError(f"line 1: n={n} exceeds the limit MAX_N={MAX_N}")
    edges = _body_edges(data, cut + 1, n)
    if n < 1:  # no edge fits: a body line is reported first, else n itself
        next(edges, None)
        raise ParameterError("n must be >= 1")
    return _signs_from_edges(n, edges)
