"""Clique-list pruning by pairwise-intersection thresholding.

A list survives pruning entry by entry: after removing exact duplicates,
an entry is kept when its intersection with every other deduplicated
entry is at most Delta = floor(3 ln n / ln(1/p)).  The filter is
symmetric and evaluated in a single pass against the full deduplicated
list, so two heavily-overlapping entries eliminate each other.

`prune_fast` produces the identical output through blocked 0/1 Gram
products instead of the quadratic set-intersection loop, in one marking
pass over all block pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .cliquelist import CliqueEntry, CliqueList
from .errors import InputError, ParameterError


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


def _validate_entries(clique_list: CliqueList, params: PruneParams) -> None:
    for entry in clique_list.entries:
        verts = entry.vertices
        if len(set(verts)) != len(verts):
            raise InputError(f"entry has repeated vertices: {verts}")
        if verts and (verts[0] < 0 or verts[-1] >= params.n):
            raise InputError(f"entry has vertices outside [0,{params.n})")


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


def _vacuous(entries: list[CliqueEntry], params: PruneParams) -> bool:
    min_size = min((len(e.vertices) for e in entries), default=None)
    if min_size is not None and params.delta >= min_size:
        warnings.warn(
            f"intersection threshold {params.delta} >= smallest clique size "
            f"{min_size}; pruning is vacuous", stacklevel=3)
        return True
    return False


def prune_naive(clique_list: CliqueList, params: PruneParams) -> CliqueList:
    """Reference quadratic implementation of the symmetric filter."""
    _validate_entries(clique_list, params)
    entries, duplicates = _dedup(clique_list)
    stats = {"input": len(clique_list.entries), "duplicates_removed": duplicates}
    if _vacuous(entries, params):
        stats.update(removed=[], output=len(entries), vacuous=True)
        return CliqueList(entries, stats)
    sets = [set(e.vertices) for e in entries]
    kept, removed = [], []
    for i, entry in enumerate(entries):
        conflicts = [j for j in range(len(entries)) if j != i
                     and len(sets[i] & sets[j]) > params.delta]
        if conflicts:
            removed.append({"vertices": list(entry.vertices),
                            "conflicts_with": conflicts})
        else:
            kept.append(entry)
    stats.update(removed=removed, output=len(kept), vacuous=False)
    return CliqueList(kept, stats)


def _mark_violators(entries: list[CliqueEntry], n: int, batch: int,
                    delta: int, backend: linalg.Backend,
                    counters: linalg.Counters | None) -> np.ndarray:
    """Symmetric conflict marks from blocked Gram tables over all pairs."""
    m = len(entries)
    indicators = np.zeros((m, n), dtype=np.int64)
    for i, entry in enumerate(entries):
        indicators[i, list(entry.vertices)] = 1
    marked = np.zeros(m, dtype=bool)
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
            marked[a:a + hits.shape[0]] |= hits.any(axis=1)
            marked[b:b + hits.shape[1]] |= hits.any(axis=0)
    return marked


def prune_fast(clique_list: CliqueList, params: PruneParams,
               backend: linalg.Backend = linalg.NAIVE,
               counters: linalg.Counters | None = None) -> CliqueList:
    """Blocked-Gram implementation; output is identical to :func:`prune_naive`.

    One marking pass over all block pairs reproduces the single-pass
    symmetric filter exactly: the survivors are the entries with no
    conflict at all, so they are pairwise compatible and a second pass
    would mark nothing.
    """
    _validate_entries(clique_list, params)
    entries, duplicates = _dedup(clique_list)
    stats = {"input": len(clique_list.entries), "duplicates_removed": duplicates}
    if _vacuous(entries, params):
        stats.update(removed=[], output=len(entries), vacuous=True)
        return CliqueList(entries, stats)
    marked = _mark_violators(entries, params.n, params.batch_size or params.n,
                             params.delta, backend, counters)
    removed = [{"vertices": list(e.vertices)} for e, m in zip(entries, marked) if m]
    entries = [e for e, m in zip(entries, marked) if not m]
    stats.update(removed=removed, output=len(entries), vacuous=False)
    return CliqueList(entries, stats)
