"""Sign-matrix graph representation and row algebra.

A graph on n vertices is stored as a symmetric n x n matrix over {+1, -1}
with the diagonal fixed to +1 (an edge is +1, a non-edge -1), held as one
dense read-only int8 array; the row products, the candidate GEMM at every
p, the degree sweep and the clique check all read it directly.
:func:`pbiased_values` maps +1 to p_plus = sqrt((1-p)/p) and -1 to
-p_minus = -sqrt(p/(1-p)), mean 0 and variance 1 when edges appear with
probability p; the solver rescales only the sampled rows this way.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from .errors import (InputError, InternalInvariantError, ParameterError, check_int,
                     check_probability)

GRAPH_HEADER = "srpc-graph v1"
# Largest n that read_graph accepts; its dense int8 sign matrix is then at most 1 GiB.
MAX_N = 1 << 15
# Side of the square tiles in which the constructor compares signs with signs.T.
_TILE = 256
# Bytes that read_graph reads per step (then up to the next line end).
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
    flat = _edgeless(n)
    flat[i * n + j] = flat[j * n + i] = 1
    return SignedAdjacency(flat.reshape(n, n))


def _edgeless(n: int) -> np.ndarray:
    """The flat n*n int8 sign matrix of the graph with no edges: -1 off the diagonal, +1 on it."""
    flat = np.full(n * n, -1, dtype=np.int8)
    flat[::n + 1] = 1
    return flat


def pbiased_values(signs: np.ndarray, p: float) -> np.ndarray:
    """The float64 p-biased rescaling of a sign array: +1 -> p_plus, -1 -> -p_minus."""
    check_probability("p", p)
    # 1/p - 1 == (1-p)/p but stays exact at p = 4/5, 1/5, ... in binary
    ratio = 1.0 / p - 1.0
    return np.where(signs > 0, np.sqrt(ratio), -np.sqrt(1.0 / ratio))


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


def hadamard_rows(graph: SignedAdjacency, alpha: Iterable[int]) -> np.ndarray:
    """The sign row out[j] = product over i in alpha of signs[i][j]."""
    idx = _check_alpha(alpha, graph.n)
    return row_products(graph.signs, np.array([idx]))[0]


def _vertex_names(n: int) -> np.ndarray:
    """The decimal names of 0..n-1 as bytes of one width, left-aligned before NUL padding."""
    return np.arange(n).astype(f"S{len(str(max(n - 1, 0)))}")


def write_graph(graph: SignedAdjacency, path) -> None:
    """Write the v1 edge list: the header, then ``i j`` per edge, i < j, sorted by (i, j).

    Rows are taken a block of about 256 KiB of signs at a time.  The block's
    edges with j > i are found in (i, j) order, and each becomes one
    fixed-width record ``(name of i, " ", name of j, "\n")`` from a table of
    vertex names padded with trailing NULs.  Deleting the NULs from the
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


def _chunk_edges(chunk: bytes, n: int, prev: int) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The flat indices (i*n + j, j*n + i) of one newline-aligned body chunk's edges.

    ``prev`` is the key i*n + j of the last edge before the chunk, or -1.
    The third item is the chunk's LF count.  Returns None if a line breaks the format.
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
    lines = token.size - 2 - tokens
    if tokens == 0:
        none = np.empty(0, dtype=np.int64)
        return none, none, lines
    values = np.fromstring(chunk, dtype=np.int64, sep=" ")
    if values.size != tokens:
        return None
    i, j = values[0::2], values[1::2]
    if not (np.all(i < j) and j.max() < n):
        return None
    keys = i * n + j
    if keys[0] <= prev or np.any(keys[1:] <= keys[:-1]):
        return None
    return keys, j * n + i, lines


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

    The file is read as latin-1 text with universal newlines, so every byte
    stays one character and CRLF or CR arrives as LF, in chunks of
    :data:`_CHUNK_BYTES` characters plus the rest of the line: only the sign
    matrix and one chunk are held at a time.  ``bytes.translate`` refuses
    any other byte, array scans check the two-tokens-per-line shape,
    ``np.fromstring`` parses the values and array reductions check the
    order, and the chunk's edges go straight into the sign matrix.  No
    Python code runs per edge.  Only a failed chunk runs the per-line scan
    that names the line.
    """
    with open(path, encoding="latin-1", newline=None) as fh:
        header = fh.readline().encode("latin-1").decode("utf-8", errors="replace").strip()
        match = _HEADER_LINE.fullmatch(header)
        if match is None:
            raise InputError(f"line 1: unrecognized graph header: {header!r}")
        n = int(match.group(1))
        if n > MAX_N:
            raise InputError(f"line 1: n={n} exceeds the limit MAX_N={MAX_N}")
        flat = _edgeless(n)
        lineno, prev = 2, -1
        for text in iter(lambda: fh.read(_CHUNK_BYTES) + fh.readline(), ""):
            chunk = text.encode("latin-1")
            edges = _chunk_edges(chunk, n, prev)
            if edges is None:  # every earlier chunk passed: this one holds the first bad line
                raise _bad_line(chunk.decode("utf-8", errors="replace"), n, lineno, prev)
            keys, mirrored, lines = edges
            flat[keys] = flat[mirrored] = 1
            lineno += lines
            if keys.size:
                prev = int(keys[-1])
    if n < 1:  # no edge fits: a body line is reported first, else n itself
        raise ParameterError("n must be >= 1")
    return SignedAdjacency(flat.reshape(n, n))
