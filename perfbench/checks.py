"""Output checks the benchmark makes with its own code, not srpc's.

Each check raises :class:`CheckFailed`; the trial that produced the output
is then counted as failed.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

GRAPH_HEADER = "srpc-graph v1"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_graph_file(path) -> np.ndarray:
    """Dense boolean adjacency (diagonal True) parsed from a v1 graph file."""
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read()
    require(header[:2] == GRAPH_HEADER.split() and header[-1].startswith("n="),
            f"bad graph header {header!r}")
    n = int(header[-1][2:])
    ends = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
    require(bool(np.all((ends >= 0) & (ends < n))), "edge endpoint out of range")
    adj = np.zeros((n, n), dtype=bool)
    adj[ends[:, 0], ends[:, 1]] = True
    adj[ends[:, 1], ends[:, 0]] = True
    np.fill_diagonal(adj, True)
    return adj


def check_cliques(adj: np.ndarray, entries, k: int) -> None:
    """Every entry is a sorted, repeat-free clique of size >= k in ``adj``."""
    n = adj.shape[0]
    for verts in entries:
        v = np.asarray(verts, dtype=np.int64)
        require(v.size >= k, f"entry of size {v.size} is smaller than k={k}")
        require(bool(np.all(np.diff(v) > 0)), "entry is not sorted and repeat-free")
        require(0 <= v[0] and v[-1] < n, "entry has a vertex outside the graph")
        require(bool(adj[np.ix_(v, v)].all()), f"entry {v[:8].tolist()}... is not a clique")


def check_witness(mat: np.ndarray, doc: dict) -> None:
    """An opnorm document's value is the top singular value of its support."""
    value = doc["value"]
    require(doc["residual"] <= 1e-9 * max(value, 1.0),
            f"witness residual {doc['residual']} exceeds 1e-9*max(value,1)")
    support = doc["support"]
    require(len(support) == doc["r"] and len(set(support)) == len(support),
            "witness support has the wrong size")
    sigma = float(np.linalg.svd(mat[:, support], compute_uv=False)[0])
    require(abs(sigma - value) <= 1e-6 * max(value, 1.0),
            f"witness value {value} differs from the support's singular value {sigma}")


def max_pair_opnorm(mat: np.ndarray) -> float:
    """Exact max top singular value over all 2-column supports (closed form)."""
    gram = mat.T @ mat
    i, j = np.array(list(combinations(range(mat.shape[1]), 2))).T
    a, c, b = gram[i, i], gram[j, j], gram[i, j]
    top = (a + c) / 2 + np.sqrt(((a - c) / 2) ** 2 + b ** 2)
    return math.sqrt(float(top.max()))
