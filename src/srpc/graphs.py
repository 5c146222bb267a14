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

import io
import re
from typing import Iterable, Union

import numpy as np

from .errors import InputError, InternalInvariantError, ParameterError

GRAPH_HEADER = "srpc-graph v1"
# Largest n that read_graph accepts; its dense int8 sign matrix is then at most 1 GiB.
MAX_N = 1 << 15


class SignedAdjacency:
    """Immutable dense int8 +-1 adjacency matrix with +1 diagonal.

    The constructor takes ownership of ``signs`` (an int8 array is kept, not
    copied) and marks it read-only.
    """

    def __init__(self, signs: np.ndarray):
        signs = np.asarray(signs)
        if signs.ndim != 2 or signs.shape[0] != signs.shape[1]:
            raise InputError("sign matrix must be square")
        if not np.all(np.abs(signs) == 1):
            raise InputError("entries must be +1 or -1")
        signs = np.ascontiguousarray(signs, dtype=np.int8)
        if not np.array_equal(signs, signs.T):
            raise InputError("adjacency matrix is not symmetric")
        if not np.all(np.diag(signs) == 1):
            raise InputError("diagonal entries must be +1")
        signs.setflags(write=False)
        self.n = signs.shape[0]
        self.signs = signs

    def adjacency01(self, dtype=np.float64) -> np.ndarray:
        """0/1 adjacency with a zero diagonal (a vertex is not its own neighbor)."""
        a = (self.signs > 0).astype(dtype)
        np.fill_diagonal(a, 0)
        return a

    def is_clique(self, vertices) -> bool:
        """True when the submatrix induced on ``vertices`` is all +1; an empty set is a clique."""
        return bool(np.all(self.signs[np.ix_(vertices, vertices)] == 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedAdjacency) and np.array_equal(self.signs, other.signs)


def from_edge_list(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> SignedAdjacency:
    """Build the sign matrix with +1 exactly on the given undirected edges.

    ``edges`` is an (m, 2) integer array or any iterable of vertex pairs.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
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
    signs = -np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(signs, 1)
    signs[i, j] = 1
    signs[j, i] = 1
    return SignedAdjacency(signs)


class PBiasedMatrix:
    """Real rescaling of a sign matrix with entries in {p_plus, -p_minus}."""

    def __init__(self, graph: SignedAdjacency, p: float):
        if not 0.0 < p < 1.0:
            raise ParameterError(f"p must lie in (0,1), got {p}")
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


def write_graph(graph: SignedAdjacency, path) -> None:
    """Write the v1 edge list: the header, then ``i j`` per edge, i < j, sorted by (i, j).

    Lines are built a row at a time from a table of decimal vertex names, so
    no Python code runs per edge; the output is byte-reproducible.
    """
    n = graph.n
    iu, ju = np.nonzero(np.triu(graph.signs, 1) > 0)
    names = np.array([str(v) for v in range(n)], dtype=object)
    bounds = np.searchsorted(iu, np.arange(n + 1))
    lines = [f"{GRAPH_HEADER} n={n}"]
    for i in np.flatnonzero(np.diff(bounds)):
        prefix = names[i] + " "
        lines.append(prefix + ("\n" + prefix).join(names[ju[bounds[i]:bounds[i + 1]]]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# A body line: blank, or two ASCII-decimal vertex indices; spaces and tabs around them.
_EDGE_LINE = re.compile(r"[ \t]*(?:([0-9]+)[ \t]+([0-9]+)[ \t]*)?")


def _edge_array(body: str, n: int) -> np.ndarray | None:
    """The (m, 2) edges of a v1 body from one C-level parse; None if a line breaks the format."""
    raw = body.encode("utf-8")
    if raw.translate(None, b"0123456789 \t\n"):
        return None
    if not raw.strip():
        return np.empty((0, 2), dtype=np.int64)
    try:
        edges = np.loadtxt(io.BytesIO(raw), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if edges.shape[1] != 2:
        return None
    i, j = edges[:, 0], edges[:, 1]
    if not (np.all(i < j) and j.max() < n and np.all(np.diff(i * n + j) > 0)):
        return None
    return edges


def _bad_line(body: str, n: int) -> InputError:
    """The error naming the first body line that :func:`_edge_array` rejects."""
    prev = -1
    for lineno, line in enumerate(body.split("\n"), start=2):
        match = _EDGE_LINE.fullmatch(line)
        if match is None:
            return InputError(f"line {lineno}: expected two integer vertex indices, "
                              f"got {line.strip()!r}")
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
    Blank lines, spaces and tabs around the indices, and CRLF line ends are
    accepted.  Any other line, or a header ``n`` above :data:`MAX_N`, raises
    :class:`InputError` naming its line.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        parts = header.split()
        if (parts[:2] != ["srpc-graph", "v1"] or not parts[-1].startswith("n=")
                or not parts[-1][2:].isdecimal()):
            raise InputError(f"line 1: unrecognized graph header: {header!r}")
        n = int(parts[-1][2:])
        if n > MAX_N:
            raise InputError(f"line 1: n={n} exceeds the limit MAX_N={MAX_N}")
        body = fh.read()
    edges = _edge_array(body, n)
    if edges is None:
        raise _bad_line(body, n)
    return from_edge_list(n, edges)
