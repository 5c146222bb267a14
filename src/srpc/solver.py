"""Greedy list-decoding of planted cliques from row-product correlations.

One round samples t index sets of size s, forms the entrywise row
products, and keeps the vertices whose inner product with every product
row clears the threshold k * p_plus**(s+1) / 2, as one boolean member table
per oracle batch; only rounds with >= k members become vertex sets.  A
round whose t*s sampled vertices are not pairwise adjacent is skipped
before any row product (the rounds the list-decoding argument relies on
sample inside the planted clique), and ``solve`` counts it as
``rounds_index_not_clique``.  Refine and verify read the induced
submatrix of each set without the oracle: a degree sweep, the closure of
its core (the cleanup step of Alon, Krivelevich and Sudakov, 1998), kept
only if it is a clique of size >= k.  Prune takes exact 0/1 intersection
counts from the same :func:`linalg.sign_matmul` as the p = 1/2 candidate
stage, which charges ceil(rows / n) oracle calls and multiplies only real rows.

The solver only ever sees the graph; nothing here reads a planted set.
The model (k, p) alone fixes the cutoff.  Every oracle call multiplies
product rows by the graph's own int8 signs (:func:`_inner_table`): exact
integer tables at p = 1/2, float64 ones that meet the cutoff up to 1e-9
absolute otherwise.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import linalg, pruning
from .cliquelist import CliqueEntry, CliqueList
from .errors import ParameterError, check_int, check_positive, check_probability
from .graphs import SignedAdjacency, _check_alpha, pbiased_values, row_products
# Unused here: perfbench's tracer wraps srpc.solver.hadamard_rows by name, and
# tests/test_perfbench_targets.py guards that lookup.
from .graphs import hadamard_rows  # noqa: F401

FLOAT_THRESHOLD_TOL = 1e-9
# Most rows (rounds * reps) a solve samples; its (rows, s) int64 alpha array
# then stays within 1.5 GiB.
MAX_ALPHA_ROWS = 1 << 26


def threshold_for(k: int, p: float, order: int) -> float:
    """Inner-product cutoff k * p_plus**(s+1) / 2 of an order-s round, s = ``order``.

    A planted vertex scores about k * p_plus**(s+1) against an order-s product
    row, so the cutoff is half of it; every order gives k/2 at p = 1/2.  It
    must be finite.
    """
    check_int("k", k, 1)
    check_probability("p", p)
    check_int("order", order, 1, 3)
    try:  # p_plus**2 == 1/p - 1
        tau = k * (1.0 / p - 1.0) ** ((order + 1) / 2) / 2.0
    except OverflowError:  # (1/p - 1)**((order+1)/2) past the float range
        tau = math.inf
    return check_positive(f"threshold at p={p}", tau)


def _check_alpha_rows(rounds: float, reps: int) -> None:
    if rounds > MAX_ALPHA_ROWS // reps:  # just when ceil(rounds) * reps > MAX_ALPHA_ROWS
        raise ParameterError(f"rounds * reps exceeds the limit MAX_ALPHA_ROWS={MAX_ALPHA_ROWS}: "
                             f"at most {MAX_ALPHA_ROWS // reps} rounds at reps = {reps}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`solve`; k, p and the order fix the cutoff (:func:`threshold_for`).

    ``rounds`` defaults to ceil(c_rounds * (n/k)**(s*t)); s*t is the
    effective tensor order of a round.
    """

    order: int = 3
    reps: int = 1
    c_rounds: float = 10.0
    rounds: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_int("order", self.order, 1, 3)
        check_int("reps", self.reps, 1)
        check_positive("c_rounds", self.c_rounds)
        if self.rounds is not None:
            _check_alpha_rows(check_int("rounds", self.rounds, 1), self.reps)
        check_int("seed", self.seed, 0)

    def num_rounds(self, n: int, k: int) -> int:
        """The explicit round count, else ceil(c_rounds * (n/k)**(s*t)), at least 1.

        A k that is not an integer in [1, n], or a computed count that is not
        finite or whose rounds * reps exceeds :data:`MAX_ALPHA_ROWS`, raises
        :class:`ParameterError`.
        """
        check_int("k", k, 1, n)
        if self.rounds is not None:
            return self.rounds
        try:
            count = self.c_rounds * (n / k) ** (self.order * self.reps)
        except OverflowError:  # (n/k)**(s*t) past the float range
            count = math.inf
        if not math.isfinite(count):
            raise ParameterError(f"round count c_rounds * (n/k)**{self.order * self.reps} "
                                 f"is not finite (c_rounds={self.c_rounds}, n={n}, k={k})")
        _check_alpha_rows(count, self.reps)
        return max(1, math.ceil(count))

    def resolve(self, n: int, k: int, p: float) -> tuple[int, float]:
        """(round count, threshold) of a solve of an n-vertex graph at (k, p).

        Every refusal of :func:`solve` and :func:`iter_round_members` is made
        here: those of :meth:`num_rounds` and :func:`threshold_for`, and an
        order or reps above n.
        """
        rounds = self.num_rounds(n, k)
        check_int("order", self.order, 1, n)
        check_int("reps", self.reps, 1, n)  # t product rows of a round share one batch of n
        return rounds, threshold_for(k, p, self.order)

    def to_dict(self) -> dict:
        return {"order": self.order, "reps": self.reps, "c_rounds": self.c_rounds,
                "rounds": self.rounds, "threshold": None,  # a solve echoes its cutoff here
                "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "SolverConfig":
        # ignored: the echoed threshold, and the "backend" of older solve documents
        return cls(order=doc["order"], reps=doc["reps"], c_rounds=doc["c_rounds"],
                   rounds=doc.get("rounds"), seed=doc["seed"])


def _inner_table(signs: np.ndarray, alpha_rows: np.ndarray, p: float,
                 counters: linalg.Counters | None) -> np.ndarray:
    """Table <product row of alpha_rows[b], f(signs[j])> over the p-biased f, one product.

    f(x) = c0 + c1*x, so the table is c1 * (rows @ signs) + c0 * (row sums), one
    :func:`linalg.sign_matmul` by the symmetric signs: exact float32 from int8
    sign rows at p = 1/2 (c0 = 0, c1 = 1), else from float64 rows looked up by
    each column's count of +1 factors.  Empty ``alpha_rows`` are still charged a call.
    """
    if p == 0.5:
        return linalg.sign_matmul(row_products(signs, alpha_rows), signs, len(signs), counters)
    plus, minus = pbiased_values(np.array([1, -1], dtype=np.int8), p)  # p_plus, -p_minus
    ups = sum((signs[col] > 0).view(np.int8) for col in alpha_rows.T)  # +1 factors per column
    c = np.arange(alpha_rows.shape[1] + 1)
    rows = (plus ** c * minus ** c[::-1])[ups]  # c factors p_plus, the others -p_minus
    table = linalg.sign_matmul(rows, signs, len(signs), counters)
    table *= (plus - minus) / 2
    table += (plus + minus) / 2 * rows.sum(axis=1)[:, None]
    return table


def batched_inner_products(graph: SignedAdjacency, alphas: Sequence[Sequence[int]],
                           p: float = 0.5) -> np.ndarray:
    """Table T[a, j] = <M_alpha_a, M_j> over the p-biased values at p, one :func:`_inner_table`.

    At p = 1/2 it is a float32 table of exact integers; otherwise float64.
    The oracle charges ceil(len(alphas) / n) calls.  All alphas must have one
    order; mixed orders raise :class:`ParameterError`.
    """
    if not alphas:
        raise ParameterError("alphas must be nonempty")
    idx = [_check_alpha(alpha, graph.n) for alpha in alphas]
    orders = sorted({len(alpha) for alpha in idx})
    if len(orders) > 1:
        raise ParameterError(f"alphas must have one order per call, got orders {orders}")
    return _inner_table(graph.signs, np.array(idx), p, None)


def _refine_sets(graph: SignedAdjacency, sets: Sequence[Sequence[int]],
                 k: int) -> list[np.ndarray]:
    """Keep the members of every set that have >= k-1 neighbors inside it.

    One degree sweep per set over its induced submatrix, gathered rows first
    and then columns; the +1 diagonal counts each member once, so the cut
    is >= k.  Degrees count against each incoming set; no oracle call.
    """
    kept = [np.asarray(members, dtype=np.intp) for members in sets]
    return [members[(graph.signs[members][:, members] > 0).sum(axis=1) >= k]
            for members in kept]


def batched_membership_degrees(graph: SignedAdjacency,
                               sets: Sequence[Sequence[int]],
                               counters: linalg.Counters | None = None) -> np.ndarray:
    """D[a, j] = number of neighbors of j inside sets[a], a float32 table of exact integers.

    float32 0/1 indicator rows times the int8 0/1 adjacency, one exact
    :func:`linalg.sign_matmul`, charged max(1, ceil(len(sets) / n)) calls.
    """
    adjacency = np.maximum(graph.signs, 0)
    np.fill_diagonal(adjacency, 0)  # a vertex is not its own neighbor
    return linalg.sign_matmul(linalg.indicator_rows(sets, graph.n), adjacency, graph.n,
                              counters)  # adjacency is its own transpose


def _sample_alphas(n: int, rounds: int, s: int, t: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(rounds*t, s) index array; sets are distinct-within, sorted."""
    total = rounds * t
    out = rng.integers(0, n, size=(total, s), dtype=np.int64)
    if s > 1:
        while True:
            bad = np.zeros(total, dtype=bool)
            for a in range(s):
                for b in range(a + 1, s):
                    bad |= out[:, a] == out[:, b]
            if not bad.any():
                break
            out[bad] = rng.integers(0, n, size=(int(bad.sum()), s), dtype=np.int64)
    out.sort(axis=1)
    return out


def _index_cliques(signs: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Per round of a (rounds, t, s) index array: are its t*s vertices pairwise adjacent?

    One vectorised lookup per vertex pair; a vertex drawn twice is adjacent
    to itself (the diagonal is +1).
    """
    verts = alphas.reshape(len(alphas), -1)
    ok = np.ones(len(verts), dtype=bool)
    for a, b in itertools.combinations(range(verts.shape[1]), 2):
        ok &= signs[verts[:, a], verts[:, b]] > 0
    return ok


def iter_round_members(graph: SignedAdjacency, k: int, p: float,
                       cfg: SolverConfig,
                       counters: linalg.Counters | None = None
                       ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (alphas, members) for each oracle batch of a solve, in round order.

    ``alphas`` is the (rounds, t, s) index array of the batch's multiplied
    rounds and ``members`` their (rounds, n) boolean table of raw members.
    A round whose t*s sampled vertices are not pairwise adjacent is never
    multiplied and is not yielded.  Each batch of n // t sampled rounds
    makes one oracle call over the t product rows of each of its clique
    rounds (a zero-row call, yielding no rounds, when it has none), so a
    solve makes ceil(rounds / (n // t)) calls and (clique rounds) * t * n**2
    multiply-adds.  Shared by :func:`solve` and by evaluation code that
    recomputes the raw candidate sets against the hidden planted set.
    """
    n = graph.n
    rounds, tau = cfg.resolve(n, k, p)
    # A p = 1/2 table holds integers, each 1/2 or more from a k/2 it does not
    # equal, so the tolerance changes no decision there.
    cutoff = tau - FLOAT_THRESHOLD_TOL
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    t, s = cfg.reps, cfg.order
    alphas = _sample_alphas(n, rounds, s, t, rng).reshape(rounds, t, s)
    clique = _index_cliques(graph.signs, alphas)

    rounds_per_batch = n // t  # whole rounds per oracle call of at most n rows
    for r0 in range(0, rounds, rounds_per_batch):
        batch = alphas[r0:r0 + rounds_per_batch][clique[r0:r0 + rounds_per_batch]]
        yield batch, (_inner_table(graph.signs, batch.reshape(-1, s), p, counters)
                      >= cutoff).reshape(-1, t, n).all(axis=1)


def solve(graph: SignedAdjacency, k: int, p: float, cfg: SolverConfig,
          observe: Callable[[np.ndarray], None] | None = None) -> CliqueList:
    """Run all rounds, refine, verify, deduplicate and prune.

    Returns the pruned clique list; ``stats`` carries per-stage counts, the
    largest raw and refined set sizes (``raw_size_max``; ``refined_size_max``,
    the sweep core before the closure and the size-k cut), the most vertices
    the closure added to a set that verified (``closure_added_max``),
    per-stage oracle calls, multiply-adds and oracle
    seconds, wall times, and an echo of the resolved configuration (enough to
    replay the round sampling).  Refine and verify make no oracle call.
    ``observe``, if given, is called with each batch's member table in turn.
    """
    n = graph.n
    rounds, tau = cfg.resolve(n, k, p)
    stage_counters = {name: linalg.Counters() for name in
                      ("candidate", "refine", "verify", "prune")}
    wall = {}

    t0 = time.perf_counter()
    distinct: dict[bytes, tuple[np.ndarray, list]] = {}  # raw set -> (members, round alphas)
    rounds_nonempty = 0
    rounds_short = 0
    rounds_multiplied = raw_size_max = 0
    for alphas, members in iter_round_members(graph, k, p, cfg,
                                              stage_counters["candidate"]):
        if observe is not None:
            observe(members)
        rounds_multiplied += len(alphas)
        sizes = members.sum(axis=1)
        raw_size_max = max(raw_size_max, int(sizes.max(initial=0)))
        rounds_nonempty += int(np.count_nonzero(sizes))
        # A set of fewer than k members has an empty sweep core (a kept member
        # needs k positive entries in its row of the induced block), and an
        # empty core is not closed; skip the refine work.
        rounds_short += int(np.count_nonzero((sizes > 0) & (sizes < k)))
        for r in np.flatnonzero(sizes >= k):
            verts = np.flatnonzero(members[r])
            distinct.setdefault(verts.tobytes(), (verts, []))[1].append(
                tuple(map(tuple, alphas[r].tolist())))
    wall["candidate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    records = list(distinct.values())
    kept_sets = _refine_sets(graph, [verts for verts, _ in records], k)
    # The closure of a core: every vertex adjacent to all of it (the +1 diagonal
    # keeps a core member adjacent to the rest).  An empty core would close to
    # every vertex, so it stays empty.
    closed_sets = [np.flatnonzero((graph.signs[core] > 0).all(axis=0)) if core.size else core
                   for core in kept_sets]
    refined = [(closed, core, round_alphas) for closed, core, (_, round_alphas)
               in zip(closed_sets, kept_sets, records) if closed.size >= k]
    wall["refine"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    accepted: dict[tuple[int, ...], list] = {}
    rounds_accepted = closure_added_max = 0
    for verts, core, round_alphas in refined:
        if graph.is_clique(verts):
            rounds_accepted += len(round_alphas)
            closure_added_max = max(closure_added_max,
                                    np.setdiff1d(verts, core, assume_unique=True).size)
            accepted.setdefault(tuple(verts.tolist()), []).extend(round_alphas)
    wall["verify"] = time.perf_counter() - t0

    entries = [CliqueEntry(verts, tuple(a for round_alphas in per_round for a in round_alphas))
               for verts, per_round in sorted(accepted.items())]

    t0 = time.perf_counter()
    if n >= 2:
        params = pruning.PruneParams.for_model(n, p)
        pruned = pruning.prune_fast(CliqueList(entries), params, stage_counters["prune"])
    else:  # the intersection threshold is undefined on a single vertex
        pruned = CliqueList(entries, {"input": len(entries), "output": len(entries)})
    wall["prune"] = time.perf_counter() - t0

    stats = {
        "n": n, "k": k, "p": p,
        "config": dict(replace(cfg, rounds=rounds).to_dict(), threshold=tau),
        "rounds": rounds,
        "threshold": tau,
        "rounds_index_not_clique": rounds - rounds_multiplied,
        "rounds_nonempty": rounds_nonempty,
        "rounds_short_skipped": rounds_short,
        "distinct_raw": len(records),
        "raw_size_max": raw_size_max,
        "refined_size_max": max((kept.size for kept in kept_sets), default=0),
        "distinct_refined": len(refined),
        "closure_added_max": closure_added_max,
        "rounds_accepted": rounds_accepted,
        "accepted_distinct": len(entries),
        "pruned_size": len(pruned.entries),
        "prune": pruned.stats,
        "oracle_calls": {name: c.oracle_calls for name, c in stage_counters.items()},
        "madds": {name: c.madds for name, c in stage_counters.items()},
        "wall_times": wall,
        "oracle_seconds": {name: c.seconds for name, c in stage_counters.items()},
    }
    return CliqueList(pruned.entries, stats)
