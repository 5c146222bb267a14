"""End-to-end experiment driving: generate -> solve -> evaluate.

Evaluation owns the hidden planted set; the solver never sees it.  The
spurious-membership statistic is recomputed by replaying the solver's
round sampling (a pure function of the echoed n, k, p and config) against
the instance, so the solver output document stays small and planted-free.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import linalg, solver
from .cliquelist import CliqueList
from .errors import (InputError, InternalInvariantError, ParameterError, check_int,
                     check_probability)
from .graphs import MAX_N
from .instances import (Instance, generate, majority_vector, strategy_by_name,
                        strategy_majority_adversary)


@dataclass(frozen=True)
class EvalResult:
    recovered: bool
    list_size: int
    stage_counts: dict
    max_spurious: int
    entries_matching_planted: int
    all_entries_valid_cliques: bool
    oracle_calls: dict

    def to_dict(self) -> dict:
        return asdict(self)


def max_spurious_members(instance: Instance, cfg: solver.SolverConfig, k: int, p: float) -> int:
    """max over rounds of |S_alpha \\ S*|, replayed at the solve's k, p and config.

    The maximum ranges over the rounds whose sampled index set is a clique;
    the solve skips every other round, and a skipped round has no members.
    """
    planted = np.zeros(instance.n, dtype=bool)
    planted[list(instance.planted)] = True
    worst = 0
    for _, members in solver.iter_round_members(instance.graph, k, p, cfg):
        worst = max(worst, int((members & ~planted).sum(axis=1).max(initial=0)))
    return worst


def evaluate(instance: Instance, clique_list: CliqueList,
             compute_spurious: bool = True) -> EvalResult:
    """Score a solve output against the instance's hidden planted set.

    The replay takes n, k and p from ``stats``, or from the instance where a
    key is absent.  An entry with a repeated vertex or a vertex outside
    [0, n), a ``stats.config`` that lacks a key or holds a bad value, or a
    ``stats`` n, k or p that does not fit the graph, raises :class:`InputError`.
    """
    clique_list.check_vertices(instance.n)
    planted = tuple(sorted(instance.planted))
    matching = sum(1 for e in clique_list.entries if e.vertices == planted)
    valid = all(len(e.vertices) >= instance.k and instance.graph.is_clique(e.vertices)
                for e in clique_list.entries)
    stats = clique_list.stats
    stage_counts = {key: stats.get(key) for key in
                    ("rounds", "rounds_index_not_clique", "rounds_nonempty",
                     "rounds_short_skipped", "raw_size_max", "distinct_raw",
                     "refined_size_max", "distinct_refined", "rounds_accepted",
                     "accepted_distinct", "pruned_size")}
    spurious = 0
    if compute_spurious and "config" in stats:
        n, k, p = (stats.get(key, getattr(instance, key)) for key in ("n", "k", "p"))
        try:
            check_int("n", n, instance.n, instance.n)
            check_probability("p", p)
            config = solver.SolverConfig.from_dict(stats["config"])
            config.num_rounds(n, k)  # refuses a k outside [1, n] and a round count past the limit
        except KeyError as exc:
            raise InputError(f"stats.config is missing key {exc}") from None
        except ParameterError as exc:
            raise InputError(f"stats: {exc}") from None
        spurious = max_spurious_members(instance, config, k, p)
    return EvalResult(recovered=matching > 0, list_size=len(clique_list.entries),
                      stage_counts=stage_counts, max_spurious=spurious,
                      entries_matching_planted=matching,
                      all_entries_valid_cliques=valid,
                      oracle_calls=dict(stats.get("oracle_calls", {})))


_K_RULE_RE = re.compile(
    r"^(?P<c>\d+(?:\.\d+)?)\*(?P<kind>sqrt|ceilsqrt)(?:\*log\^(?P<e>\d+))?$")


def resolve_k_rule(rule: str, n: int) -> int:
    """k from a rule: '360' (absolute), '8*ceilsqrt', or 'c*sqrt[*log^e]'."""
    rule = rule.strip()
    if rule.isdigit():
        return int(rule)
    m = _K_RULE_RE.match(rule)
    if m is None:
        raise ParameterError(f"unrecognized k rule {rule!r}")
    c = float(m.group("c"))
    root = math.ceil(math.sqrt(n)) if m.group("kind") == "ceilsqrt" else math.sqrt(n)
    k = c * root * (math.log(n) ** int(m.group("e") or 0))
    return max(1, min(n, math.ceil(k)))


GRID_SOLVER_KEYS = ("order", "reps", "c_rounds", "backend")


def _grid_solver(entry: dict) -> solver.SolverConfig:
    """A grid config's solver entry; a key outside GRID_SOLVER_KEYS is refused."""
    if not isinstance(entry, dict):
        raise ParameterError(f"grid solvers entry must be an object, got {entry!r}")
    for key in entry:
        if key not in GRID_SOLVER_KEYS:
            raise ParameterError(f"grid solver entry has unknown key {key!r}")
    if "backend" in entry:
        entry = dict(entry, backend=linalg.Backend(entry["backend"]))
    return solver.SolverConfig(**entry)


def _grid_adversary(entry: dict) -> tuple[str, dict]:
    """A grid config's adversary entry as (name, params), built once to check its params."""
    if not isinstance(entry, dict):
        raise ParameterError(f"grid adversaries entry must be an object, got {entry!r}")
    params = {k: v for k, v in entry.items() if k != "name"}
    try:
        strategy_by_name(entry["name"], **params)
    except (TypeError, ParameterError) as exc:
        raise ParameterError(f"grid adversaries entry {entry!r}: {exc}") from None
    return entry["name"], params


@dataclass(frozen=True)
class ExperimentGrid:
    ns: tuple[int, ...]
    k_rules: tuple[str, ...]
    ps: tuple[float, ...]
    solvers: tuple[solver.SolverConfig, ...]
    adversaries: tuple[tuple[str, dict], ...]  # (name, params)
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        check_int("trials", self.trials, 1)
        check_int("seed", self.seed, 0)
        for n in self.ns:
            check_int("ns entry", n, 1, MAX_N)
        for p in self.ps:
            check_probability("ps entry", p)
        for rule in self.k_rules:
            for n in self.ns:
                check_int(f"k from k_rules entry {rule!r} at n={n}", resolve_k_rule(rule, n), 1, n)
        for index, cell in enumerate(self.cells()):
            n, k, cfg = cell["n"], cell["k"], cell["solver"]
            try:
                strategy = strategy_by_name(cell["adversary"], **cell["adversary_params"])
            except (TypeError, ParameterError):
                strategy = None  # from_dict refuses the entry; built directly, each trial raises
            try:
                cfg.num_rounds(n, k)
                if strategy is not None:
                    strategy.check(n, k)
            except ParameterError as exc:
                raise ParameterError(
                    f"grid cell {index} (n={n}, k={k}, p={cell['p']}, "
                    f"adversary {cell['adversary']}, order={cfg.order}, reps={cfg.reps}): "
                    f"{exc}") from None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentGrid":
        def listed(key, default=None):
            value = doc[key] if default is None else doc.get(key, default)
            if not isinstance(value, list):
                raise ParameterError(f"grid field {key!r} must be a list, got {value!r}")
            return value

        return cls(ns=tuple(listed("ns")), k_rules=tuple(str(r) for r in listed("k_rules")),
                   ps=tuple(listed("ps", [0.5])),
                   solvers=tuple(_grid_solver(s) for s in listed("solvers", [{}])),
                   adversaries=tuple(_grid_adversary(a) for a in
                                     listed("adversaries", [{"name": "erdos_renyi"}])),
                   trials=doc.get("trials", 20), seed=doc.get("seed", 0))

    def cells(self) -> list[dict]:
        out = []
        for n in self.ns:
            for rule in self.k_rules:
                for p in self.ps:
                    for cfg in self.solvers:
                        for name, params in self.adversaries:
                            out.append({"n": n, "k_rule": rule,
                                        "k": resolve_k_rule(rule, n), "p": p,
                                        "solver": cfg, "adversary": name,
                                        "adversary_params": params})
        return out


def _trial_seed(root: int, cell_index: int, trial: int) -> int:
    ss = np.random.SeedSequence(root, spawn_key=(cell_index, trial))
    return int(ss.generate_state(1)[0])


def _run_trial(cell: dict, root_seed: int, cell_index: int,
               trial: int) -> tuple[EvalResult | None, str | None]:
    """(result, None), or (None, formatted traceback) when the trial raises."""
    try:
        seed = _trial_seed(root_seed, cell_index, trial)
        strategy = strategy_by_name(cell["adversary"], **cell["adversary_params"])
        inst = generate(cell["n"], cell["k"], cell["p"], strategy, seed)
        cfg = replace(cell["solver"], seed=seed + 1)
        result = solver.solve(inst.graph, cell["k"], cell["p"], cfg)
        return evaluate(inst, result), None
    except Exception:
        return None, traceback.format_exc()


GRID_COLUMNS = ["cell", "n", "k_rule", "k", "p", "adversary", "order", "reps",
                "trials", "successes", "errors", "success_rate", "mean_list_size",
                "mean_max_spurious", "mean_oracle_calls"]


def run_grid(grid: ExperimentGrid, threads: int = 1) -> list[dict]:
    """One row per cell; trials are independent and individually seeded.

    A trial that raises counts as a failure and in the cell's ``errors``
    column rather than aborting the grid; the first traceback of each such
    cell goes to stderr.
    """
    cells = grid.cells()
    rows = []
    for index, cell in enumerate(cells):
        trial = partial(_run_trial, cell, grid.seed, index)
        with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
            outcomes = list(pool.map(trial, range(grid.trials)))
        done = [r for r, _ in outcomes if r is not None]
        errors = [tb for _, tb in outcomes if tb is not None]
        if errors:
            print(f"grid cell {index}: {len(errors)} of {grid.trials} trials raised; "
                  f"first traceback:\n{errors[0]}", file=sys.stderr, end="")
        successes = sum(1 for r in done if r.recovered)

        def mean(vals):
            return sum(vals) / len(vals) if vals else 0.0

        rows.append({
            "cell": index, "n": cell["n"], "k_rule": cell["k_rule"],
            "k": cell["k"], "p": cell["p"], "adversary": cell["adversary"],
            "order": cell["solver"].order, "reps": cell["solver"].reps,
            "trials": grid.trials, "successes": successes, "errors": len(errors),
            "success_rate": successes / grid.trials,
            "mean_list_size": mean([r.list_size for r in done]),
            "mean_max_spurious": mean([r.max_spurious for r in done]),
            "mean_oracle_calls": mean([sum(r.oracle_calls.values()) for r in done]),
        })
    return rows


def grid_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GRID_COLUMNS)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                         for c in GRID_COLUMNS])
    return buf.getvalue()


def adversary_demo(n: int, k: int, m: int, seed: int, c_rounds: float = 10.0) -> dict:
    """Majority-adversary study: correlation constants plus paired solver runs.

    The correlation half follows the abstract construction (m random sign
    vectors of length n, w their coordinate-wise majority); the instance
    half builds the actual adversarial graph, runs order 3 end to end, and
    checks each chosen planted vertex's raw order-1 candidate set for
    decoy contamination.  Edges have p = 1/2, where the order-1 sign inner
    products are the ones the solver thresholds.
    """
    p = 0.5
    strategy = strategy_majority_adversary(m)
    strategy.check(n, k)

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1000,)))
    vectors = rng.choice(np.array([-1, 1], dtype=np.int64), size=(m, n))
    w = majority_vector(vectors)
    corrs = vectors @ w.astype(np.int64)
    scale = n / math.sqrt(m)
    min_corr = int(corrs.min())

    inst = generate(n, k, p, strategy, seed)
    decoys = set(inst.details.get("decoys", []))
    chosen = inst.details.get("chosen", [])
    tau = solver.threshold_for(k, p)

    contaminated = []
    table = solver.batched_inner_products(
        inst.graph, [(i,) for i in chosen])
    for row, i in zip(table, chosen):
        members = set(np.nonzero(row >= tau)[0].tolist())
        hit = sorted(members & decoys)
        contaminated.append({"vertex": int(i), "decoys_admitted": len(hit)})
    order1_contaminated = sum(1 for c in contaminated if c["decoys_admitted"] > 0)

    cfg = solver.SolverConfig(order=3, reps=1, c_rounds=c_rounds, seed=seed + 1)
    result = solver.solve(inst.graph, k, p, cfg)
    planted = tuple(sorted(inst.planted))
    recovered = any(e.vertices == planted for e in result.entries)

    return {
        "n": n, "k": k, "m": m, "p": p, "seed": seed,
        "min_correlation": min_corr,
        "mean_correlation": float(corrs.mean()),
        "fitted_constant_min": min_corr / scale,
        "fitted_constant_mean": float(corrs.mean()) / scale,
        "order3_recovered": recovered,
        "order3_list_size": len(result.entries),
        "order1_chosen_contaminated": order1_contaminated,
        "order1_chosen_total": len(chosen),
        "order1_all_chosen_contaminated": order1_contaminated == len(chosen),
        "order1_any_chosen_contaminated": order1_contaminated > 0,
        "per_vertex": contaminated,
    }


def report_json(doc) -> str:
    """Canonical JSON used for every emitted document (byte-reproducible).

    NaN or an infinity, which JSON cannot hold, raises InternalInvariantError.
    """
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InternalInvariantError(f"document is not valid JSON: {exc}") from None
