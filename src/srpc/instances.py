"""Instance generation for the semirandom planted-clique model.

Generation is a pure function of (n, k, p, strategy, seed).  One root seed
is split into three labeled substreams -- planted-set choice, cut edges,
adversary -- so the edges inside the planted set and across its cut are
identical for every adversary run from the same seed.

An adversary sees the realized cut rows (it is adaptive) but only ever
writes the block outside the planted set.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParameterError, check_int, check_probability
from .graphs import _TILE, MAX_N, SignedAdjacency, read_graph, write_graph

INSTANCE_HEADER = "srpc-instance v1"

# Substream labels under the root seed; order is part of the on-disk contract.
_STREAM_PLANTED, _STREAM_CUT, _STREAM_ADVERSARY = 0, 1, 2
# Bytes of float64 uniforms that _iid_block draws per block of rows.
_DRAW_BLOCK_BYTES = 1 << 19


def _substream(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(label,)))


def majority_vector(rows) -> np.ndarray:
    """Coordinate-wise majority sign of an odd number of +-1 vectors."""
    arr = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    if arr.shape[0] % 2 == 0:
        raise ParameterError(f"majority needs an odd number of rows, got {arr.shape[0]}")
    if not np.all(np.abs(arr) == 1):
        raise InputError("majority rows must be +-1 vectors")
    return np.where(arr.sum(axis=0) > 0, 1, -1).astype(np.int8)


class AdversaryStrategy:
    """Fills the induced +-1 block on the non-planted vertices.

    ``fill`` receives the sorted vertex ids of the planted set and of its
    complement, and the realized cut rows (planted x complement, in that
    order).  It returns a symmetric +-1 block with +1 diagonal for the
    complement, plus a detail dict for evaluation-side bookkeeping whose
    values are vertex ids.
    """

    name = "base"

    def params(self) -> dict:
        return {}

    def check(self, n: int, k: int) -> None:
        """Raise :class:`ParameterError` if this strategy cannot fill an (n, k) instance."""

    def fill(self, rng: np.random.Generator, p: float, planted: np.ndarray,
             complement: np.ndarray, cut_block: np.ndarray) -> tuple[np.ndarray, dict]:
        raise NotImplementedError


def _iid_block(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """Symmetric +-1 block with i.i.d. upper-triangle edges and +1 diagonal.

    The strict upper triangle is drawn a block of rows at a time, at most
    :data:`_DRAW_BLOCK_BYTES` of uniforms each, in row-major order: the split
    draws are the one-shot stream of ``np.triu_indices`` order.  The block
    is then mirrored ``_TILE`` by ``_TILE`` and turned into signs in place,
    so no temporary is larger than a row block.
    """
    vertices = np.arange(size)
    edges = np.zeros((size, size), dtype=bool)
    step = max(1, _DRAW_BLOCK_BYTES // (8 * max(size, 1)))
    for r in range(0, size, step):
        upper = vertices[r:r + step, None] < vertices
        edges[r:r + step][upper] = rng.random(np.count_nonzero(upper)) < p
    for r in range(0, size, _TILE):
        rows = slice(r, r + _TILE)
        edges[rows, rows] |= edges[rows, rows].T
        for c in range(r + _TILE, size, _TILE):
            edges[c:c + _TILE, rows] = edges[rows, c:c + _TILE].T
    np.fill_diagonal(edges, True)
    signs = edges.view(np.int8)
    signs *= 2
    signs -= 1
    return signs


class ErdosRenyiStrategy(AdversaryStrategy):
    name = "erdos_renyi"

    def fill(self, rng, p, planted, complement, cut_block):
        return _iid_block(rng, len(complement), p), {}


class CliqueUnionStrategy(AdversaryStrategy):
    """Disjoint decoy cliques of size k on the complement, remainder smaller."""

    name = "clique_union"

    def fill(self, rng, p, planted, complement, cut_block):
        k, size = len(planted), len(complement)
        block = _iid_block(rng, size, p)
        cliques = []
        for start in range(0, size, k):
            block[start:start + k, start:start + k] = 1
            cliques.append(complement[start:start + k].tolist())
        return block, {"decoy_cliques": cliques}


class MajorityAdversaryStrategy(AdversaryStrategy):
    """Correlates decoy rows with m planted rows via their majority vector.

    Reads the realized cut rows of m planted vertices, takes the
    coordinate-wise majority w, and writes w as the row of each decoy
    toward the non-planted non-decoy vertices.  There are
    min(ceil((k + size) / k), size) decoys among the size complement
    vertices.  Edges among decoys and all other complement pairs stay
    i.i.d. with probability p.
    """

    name = "majority"

    def __init__(self, m: int):
        if check_int("m", m, 1) % 2 == 0:
            raise ParameterError(f"m must be odd, got {m}")
        self.m = m

    def params(self) -> dict:
        return {"m": self.m}

    def check(self, n, k):
        if self.m > k:
            raise ParameterError(f"m={self.m} exceeds clique size k={k}")

    def fill(self, rng, p, planted, complement, cut_block):
        k, size = len(planted), len(complement)
        block = _iid_block(rng, size, p)
        decoys = min(math.ceil((k + size) / k), size)
        chosen = np.sort(rng.choice(k, size=self.m, replace=False))
        decoy_idx = np.sort(rng.choice(size, size=decoys, replace=False))
        if decoys:  # none only when the complement is empty
            w = majority_vector(cut_block[chosen])
            others = np.delete(np.arange(size), decoy_idx)
            for d in decoy_idx:
                block[d, others] = w[others]
                block[others, d] = w[others]
        return block, {"chosen": planted[chosen].tolist(),
                       "decoys": complement[decoy_idx].tolist()}


def strategy_erdos_renyi() -> AdversaryStrategy:
    return ErdosRenyiStrategy()


def strategy_clique_union() -> AdversaryStrategy:
    return CliqueUnionStrategy()


def strategy_majority_adversary(m: int) -> AdversaryStrategy:
    return MajorityAdversaryStrategy(m)


_STRATEGIES = {
    "erdos_renyi": ErdosRenyiStrategy,
    "clique_union": CliqueUnionStrategy,
    "majority": MajorityAdversaryStrategy,
}


def strategy_by_name(name: str, **params) -> AdversaryStrategy:
    """The named adversary; a bad name or a missing or unknown parameter is a ParameterError."""
    try:
        cls = _STRATEGIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, such as a list
        raise ParameterError(f"unknown adversary strategy {name!r}") from None
    try:
        inspect.signature(cls).bind(**params)
    except TypeError as exc:  # names the parameter: "missing a required argument: 'm'"
        raise ParameterError(f"adversary {name!r}: {exc}") from None
    return cls(**params)


@dataclass(frozen=True)
class Instance:
    """Generated graph plus its (evaluation-only) hidden planted set."""

    graph: SignedAdjacency
    n: int
    k: int
    p: float
    planted: tuple[int, ...]
    adversary: str
    adversary_params: dict = field(default_factory=dict)
    seed: int = 0
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.graph.is_clique(self.planted):
            raise InputError("planted set does not induce a complete subgraph")


def generate(n: int, k: int, p: float, strategy: AdversaryStrategy,
             seed: int) -> Instance:
    """Draw an instance: plant a clique, randomize the cut, let the adversary fill the rest."""
    check_int("n", n, 1, MAX_N)
    check_int("k", k, 1, n)
    p = float(check_probability("p", p))  # the edge draws and the sidecar see one float
    check_int("seed", seed, 0)
    strategy.check(n, k)

    planted = np.sort(_substream(seed, _STREAM_PLANTED).choice(n, size=k, replace=False))
    complement = np.delete(np.arange(n), planted)  # not setdiff1d: it imports numpy.ma

    rng = _substream(seed, _STREAM_CUT)
    cut_block = np.empty((k, n - k), dtype=np.int8)
    for r in range(0, k, _TILE):  # one row-major draw, a row block at a time
        cut_block[r:r + _TILE] = np.where(rng.random((min(_TILE, k - r), n - k)) < p, 1, -1)

    outside, details = strategy.fill(_substream(seed, _STREAM_ADVERSARY),
                                     p, planted, complement, cut_block)

    # Planted-first block matrix, then one row and one column permutation
    # back to vertex order: vertex v sits at position position[v].  Each
    # part is freed as soon as a copy holds it.
    block = np.block([[np.ones((k, k), dtype=np.int8), cut_block], [cut_block.T, outside]])
    del cut_block, outside
    position = np.empty(n, dtype=np.intp)
    position[np.concatenate((planted, complement))] = np.arange(n)
    block = block.take(position, axis=0)
    signs = block.take(position, axis=1)
    del block  # before the planted-clique check of Instance gathers k x n entries

    return Instance(graph=SignedAdjacency(signs), n=n, k=k, p=p,
                    planted=tuple(int(v) for v in planted),
                    adversary=strategy.name, adversary_params=strategy.params(),
                    seed=seed, details=details)


def write_instance(inst: Instance, graph_path, meta_path) -> None:
    """Graph file plus a human-readable sidecar with the hidden set."""
    write_graph(inst.graph, graph_path)
    lines = [INSTANCE_HEADER,
             f"n = {inst.n}",
             f"k = {inst.k}",
             f"p = {inst.p!r}",
             f"adversary = {inst.adversary}",
             f"seed = {inst.seed}",
             "planted = " + " ".join(str(v) for v in inst.planted)]
    for key in sorted(inst.adversary_params):
        lines.append(f"param_{key} = {inst.adversary_params[key]}")
    for key in ("chosen", "decoys"):
        if key in inst.details:
            lines.append(f"{key} = " + " ".join(str(v) for v in inst.details[key]))
    with open(meta_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _natural(text: str) -> int:
    """A non-negative integer in ASCII decimal; any other text raises ValueError."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def _ints(text: str) -> list[int]:
    return [_natural(v) for v in text.split()]


def _probability(text: str) -> float:
    """An ASCII float strictly inside (0, 1); any other text raises ValueError."""
    p = float(text) if text.isascii() and "_" not in text else math.nan
    if not 0.0 < p < 1.0:
        raise ValueError(text)
    return p


def read_instance(graph_path, meta_path) -> Instance:
    """Graph file plus sidecar, checked before the n^2 read; a bad sidecar raises InputError."""
    meta = read_instance_meta(meta_path)

    def parsed(key, parse):
        if key not in meta:
            raise InputError(f"{meta_path}: missing key {key!r}")
        try:
            return parse(meta[key])
        except ValueError:
            raise InputError(f"{meta_path}: cannot parse {key} = {meta[key]!r}") from None

    n, k, seed = (parsed(key, _natural) for key in ("n", "k", "seed"))
    planted = parsed("planted", _ints)
    if len(planted) != k or len(set(planted)) != k or any(v >= n for v in planted):
        raise InputError(f"{meta_path}: planted set is not {k} distinct vertices in [0,{n})")
    params = {key[len("param_"):]: parsed(key, _natural) for key in meta
              if key.startswith("param_")}
    details = {key: parsed(key, _ints) for key in ("chosen", "decoys") if key in meta}
    p, adversary = parsed("p", _probability), parsed("adversary", str)
    graph = read_graph(graph_path)
    if n != graph.n:
        raise InputError(f"{meta_path}: n = {n}, but the graph has n = {graph.n}")
    return Instance(graph=graph, n=n, k=k, p=p, planted=tuple(planted), adversary=adversary,
                    adversary_params=params, seed=seed, details=details)


def read_instance_meta(meta_path) -> dict:
    """The sidecar's ``key = value`` lines as a dict; blank lines are skipped.

    A byte that is not UTF-8, a line without `` = `` or a key given twice
    raises :class:`InputError` naming the file (and the line).
    """
    with open(meta_path, encoding="utf-8") as fh:
        try:
            header, *lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise InputError(f"{meta_path}: not valid UTF-8 ({exc})") from None
    if header.strip() != INSTANCE_HEADER:
        raise InputError(f"{meta_path}: unrecognized instance header: {header.strip()!r}")
    meta = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        key = key.lstrip()
        if not sep:
            raise InputError(f"{meta_path}: line {lineno}: expected 'key = value', "
                             f"got {line.strip()!r}")
        if key in meta:
            raise InputError(f"{meta_path}: line {lineno}: key {key!r} is given twice")
        meta[key] = value.rstrip()
    return meta
