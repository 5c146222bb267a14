"""Clique-list pruning by pairwise-intersection thresholding.

A list survives pruning entry by entry: after removing exact duplicates,
an entry is kept when its intersection with every other deduplicated
entry is at most Delta = floor(3 ln n / ln(1/p)).  The filter is
symmetric and evaluated in a single pass against the full deduplicated
list, so two heavily-overlapping entries eliminate each other.

`prune_fast` produces the identical output, each removed entry's
``conflicts_with`` list included, through blocked 0/1 Gram products
instead of the quadratic set-intersection loop, in one pass over all
block pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .cliquelist import CliqueEntry, CliqueList
from .errors import ParameterError


def intersection_threshold(n: int, p: float) -> int:
    """Delta = floor(3 ln n / ln(1/p)); the log base cancels in the ratio."""
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie in (0,1), got {p}")
    return math.floor(3.0 * math.log(n) / math.log(1.0 / p))


@dataclass(frozen=True)
class PruneParams:
    n: int
    p: float
    delta: int
    batch_size: int | None = None

    @classmethod
    def for_model(cls, n: int, p: float, batch_size: int | None = None) -> "PruneParams":
        return cls(n=n, p=p, delta=intersection_threshold(n, p), batch_size=batch_size)


def _dedup(clique_list: CliqueList) -> tuple[list[CliqueEntry], int]:
    """Merge duplicate vertex sets, pooling their provenance."""
    merged: dict[tuple[int, ...], list] = {}
    order: list[tuple[int, ...]] = []
    for entry in clique_list.entries:
        if entry.vertices not in merged:
            merged[entry.vertices] = []
            order.append(entry.vertices)
        merged[entry.vertices].extend(entry.alphas)
    deduped = [CliqueEntry(v, tuple(merged[v])) for v in order]
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


def _gram_conflicts(entries: list[CliqueEntry], n: int, batch: int,
                    delta: int, backend: linalg.Backend,
                    counters: linalg.Counters | None) -> list[list[int]]:
    """Each entry's conflicts, from blocked Gram tables over all block pairs."""
    m = len(entries)
    indicators = np.zeros((m, n), dtype=np.int64)
    for i, entry in enumerate(entries):
        indicators[i, list(entry.vertices)] = 1
    conflicts: list[list[int]] = [[] for _ in range(m)]
    starts = list(range(0, m, batch))
    for a in starts:
        ua = indicators[a:a + batch]
        for b in starts:
            if b < a:
                continue
            if a == b:
                table = linalg.gram(ua, backend, counters)
            else:
                ub = indicators[b:b + batch]
                table = linalg.matmul(ua, np.ascontiguousarray(ub.T),
                                      backend, counters)
            hits = table > delta
            if a == b:
                np.fill_diagonal(hits, False)  # an entry does not conflict with itself
            for i, j in zip(*(idx.tolist() for idx in np.nonzero(hits))):
                conflicts[a + i].append(b + j)
                if a != b:
                    conflicts[b + j].append(a + i)
    return [sorted(c) for c in conflicts]


def prune_fast(clique_list: CliqueList, params: PruneParams,
               backend: linalg.Backend = linalg.NAIVE,
               counters: linalg.Counters | None = None) -> CliqueList:
    """Blocked-Gram implementation; output is identical to :func:`prune_naive`.

    The upper block pairs of the Gram matrix give every conflicting pair
    once, so one pass over them yields each entry's full conflict list.
    """
    return _prune(clique_list, params, lambda entries: _gram_conflicts(
        entries, params.n, params.batch_size or params.n, params.delta, backend, counters))
