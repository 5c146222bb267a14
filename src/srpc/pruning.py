"""Clique-list pruning by pairwise-intersection thresholding.

A list survives pruning entry by entry: after removing exact duplicates,
an entry is kept when its intersection with every other deduplicated
entry is at most Delta = floor(3 ln n / ln(1/p)).  The filter is
symmetric and evaluated in a single pass against the full deduplicated
list, so two heavily-overlapping entries eliminate each other.

`prune_fast` produces the identical output, each removed entry's
``conflicts_with`` list included, through exact 0/1 Gram products instead
of the quadratic set-intersection loop: each batch of entries gets its full
rows of intersection counts from one :func:`linalg.sign_matmul` call on
float32 indicator rows, the oracle that widens the solver's int8 signs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .cliquelist import CliqueEntry, CliqueList
from .errors import InternalInvariantError, check_int, check_probability
from .graphs import MAX_N


def _check_model(n: int, p: float) -> None:
    check_int("n", n, 2, MAX_N)  # the 0/1 indicator rows hold 4 * n bytes per entry
    check_probability("p", p)


def intersection_threshold(n: int, p: float) -> int:
    """Delta = floor(3 ln n / ln(1/p)); the log base cancels in the ratio."""
    _check_model(n, p)
    return math.floor(3.0 * math.log(n) / math.log(1.0 / p))


@dataclass(frozen=True)
class PruneParams:
    """Pruning parameters; a field out of range raises :class:`ParameterError`."""

    n: int
    p: float
    delta: int

    def __post_init__(self):
        _check_model(self.n, self.p)
        check_int("delta", self.delta, 0)

    @classmethod
    def for_model(cls, n: int, p: float) -> "PruneParams":
        return cls(n=n, p=p, delta=intersection_threshold(n, p))


def _dedup(clique_list: CliqueList) -> tuple[list[CliqueEntry], int]:
    """Merge duplicate vertex sets, pooling their provenance."""
    merged: dict[tuple[int, ...], list] = {}  # first-seen order
    for entry in clique_list.entries:
        merged.setdefault(entry.vertices, []).extend(entry.alphas)
    deduped = [CliqueEntry(v, tuple(alphas)) for v, alphas in merged.items()]
    return deduped, len(clique_list.entries) - len(deduped)


def _prune(clique_list: CliqueList, params: PruneParams,
           conflicts_of: Callable[[list[CliqueEntry]], list[list[int]]]) -> CliqueList:
    """Check and deduplicate the list, then drop every entry with a conflict.

    ``conflicts_of(entries)`` lists, for each deduplicated entry, the
    ascending indices of the other entries it meets in more than
    ``params.delta`` vertices.  When delta is at least the smallest entry
    size the filter is vacuous: it warns and keeps every entry.
    """
    clique_list.check_vertices(params.n)
    entries, duplicates = _dedup(clique_list)
    min_size = min((len(e.vertices) for e in entries), default=None)
    vacuous = min_size is not None and params.delta >= min_size
    if vacuous:
        warnings.warn(
            f"intersection threshold {params.delta} >= smallest clique size "
            f"{min_size}; pruning is vacuous", stacklevel=3)
        conflicts = [[] for _ in entries]
    else:
        conflicts = conflicts_of(entries)
    removed = [{"vertices": list(e.vertices), "conflicts_with": c}
               for e, c in zip(entries, conflicts) if c]
    kept = [e for e, c in zip(entries, conflicts) if not c]
    return CliqueList(kept, {"input": len(clique_list.entries),
                             "duplicates_removed": duplicates, "removed": removed,
                             "output": len(kept), "vacuous": vacuous})


def prune_naive(clique_list: CliqueList, params: PruneParams) -> CliqueList:
    """Reference quadratic implementation of the symmetric filter."""
    def conflicts_of(entries):
        sets = [set(e.vertices) for e in entries]
        return [[j for j in range(len(sets)) if j != i and len(sets[i] & sets[j]) > params.delta]
                for i in range(len(sets))]
    return _prune(clique_list, params, conflicts_of)


def _gram_conflicts(entries: list[CliqueEntry], params: PruneParams,
                    counters: linalg.Counters | None) -> list[list[int]]:
    """Each entry's ascending conflicts, from full Gram rows, n entries at a time.

    The n-row batches bound the float table a product holds.  An asymmetric
    conflict relation is a fault in the product and raises
    :class:`InternalInvariantError`.
    """
    n = params.n
    u = linalg.indicator_rows([entry.vertices for entry in entries], n)
    hits = np.zeros((len(entries), len(entries)), dtype=bool)
    for start in range(0, len(entries), n):
        hits[start:start + n] = linalg.sign_matmul(u[start:start + n], u, n,
                                                   counters) > params.delta
    np.fill_diagonal(hits, False)  # an entry does not conflict with itself
    if not np.array_equal(hits, hits.T):
        raise InternalInvariantError("conflict relation is not symmetric")
    return [np.flatnonzero(row).tolist() for row in hits]


def prune_fast(clique_list: CliqueList, params: PruneParams,
               counters: linalg.Counters | None = None) -> CliqueList:
    """Gram-product implementation; output is identical to :func:`prune_naive`.

    Each batch of n of the m deduplicated entries gets its full conflict rows
    from one :func:`linalg.sign_matmul` of its float32 0/1 indicator rows
    against all m: ceil(m / n) oracle calls, m * n * m multiply-adds.  The
    float32 tables hold the counts, exact integers in [0, n], as n < 2**24.
    """
    return _prune(clique_list, params,
                  lambda entries: _gram_conflicts(entries, params, counters))
