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

from . import solver
from .cliquelist import CliqueList
from .errors import (InputError, InternalInvariantError, ParameterError, check_int,
                     check_positive, check_probability)
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


def evaluate(instance: Instance, clique_list: CliqueList) -> EvalResult:
    """Score a solve output against the instance's hidden planted set.

    A ``stats`` that holds a ``config`` is replayed for ``max_spurious``
    (0 without one); the replay takes n, k and p from ``stats``, or from the
    instance where a key is absent.  An entry with a repeated vertex or a
    vertex outside [0, n), a ``stats.config`` that lacks a key or holds a bad
    value (an echoed threshold other than :func:`solver.threshold_for`
    (k, p, order) too), or a ``stats`` n, k or p that does not fit the
    graph, or a ``stats.oracle_calls`` that is not an object of integers
    >= 0, raises :class:`InputError`.
    """
    clique_list.check_vertices(instance.n)
    stats = clique_list.stats
    oracle_calls = stats.get("oracle_calls", {})
    planted = tuple(sorted(instance.planted))
    matching = sum(1 for e in clique_list.entries if e.vertices == planted)
    valid = all(len(e.vertices) >= instance.k and instance.graph.is_clique(e.vertices)
                for e in clique_list.entries)
    stage_counts = {key: stats.get(key) for key in
                    ("rounds", "rounds_index_not_clique", "rounds_nonempty",
                     "rounds_short_skipped", "raw_size_max", "distinct_raw",
                     "refined_size_max", "distinct_refined", "closure_added_max",
                     "rounds_accepted", "accepted_distinct", "pruned_size")}
    replay = "config" in stats
    try:
        if not isinstance(oracle_calls, dict):
            raise ParameterError(f"oracle_calls must be an object, got {oracle_calls!r}")
        for stage, calls in oracle_calls.items():
            check_int(f"oracle_calls.{stage}", calls, 0)
        if replay:
            n, k, p = (stats.get(key, getattr(instance, key)) for key in ("n", "k", "p"))
            config_doc = stats["config"]
            check_int("n", n, instance.n, instance.n)
            if not isinstance(config_doc, dict):
                raise ParameterError(f"config must be an object, got {config_doc!r}")
            config = solver.SolverConfig.from_dict(config_doc)
            config.num_rounds(n, k)  # refuses a k outside [1, n] and a round count past the limit
            tau = solver.threshold_for(k, p, config.order)
            echoed = config_doc.get("threshold")
            if echoed is not None and check_positive("threshold", echoed) != tau:
                raise ParameterError(f"threshold must be the model's k * p_plus**(order+1) / 2 "
                                     f"= {tau!r}, got {echoed!r}")
    except KeyError as exc:
        raise InputError(f"stats.config is missing key {exc}") from None
    except ParameterError as exc:
        raise InputError(f"stats: {exc}") from None
    spurious = max_spurious_members(instance, config, k, p) if replay else 0
    return EvalResult(recovered=matching > 0, list_size=len(clique_list.entries),
                      stage_counts=stage_counts, max_spurious=spurious,
                      entries_matching_planted=matching,
                      all_entries_valid_cliques=valid,
                      oracle_calls=dict(oracle_calls))


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
    try:
        k = c * root * (math.log(n) ** int(m.group("e") or 0))
    except OverflowError:  # log(n)**e past the float range
        k = math.inf
    if not math.isfinite(k):
        raise ParameterError(f"k rule {rule!r} gives no finite k at n={n}")
    return math.ceil(k)


GRID_KEYS = ("ns", "k_rules", "ps", "solvers", "adversaries", "trials", "seed")
GRID_SOLVER_KEYS = ("order", "reps", "c_rounds")


def _grid_solver(entry: dict) -> solver.SolverConfig:
    """A grid config's solver entry; a key outside GRID_SOLVER_KEYS is refused."""
    if not isinstance(entry, dict):
        raise ParameterError(f"grid solvers entry must be an object, got {entry!r}")
    for key in entry:
        if key not in GRID_SOLVER_KEYS:
            raise ParameterError(f"grid solver entry has unknown key {key!r}")
    return solver.SolverConfig(**entry)


def _grid_adversary(entry: dict) -> tuple[str, dict]:
    """A grid config's adversary entry as (name, params)."""
    if not isinstance(entry, dict):
        raise ParameterError(f"grid adversaries entry must be an object, got {entry!r}")
    return entry["name"], {k: v for k, v in entry.items() if k != "name"}


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
        for name, params in self.adversaries:
            try:
                strategy_by_name(name, **params)
            except ParameterError as exc:
                raise ParameterError(
                    f"grid adversaries entry {name!r} with {params!r}: {exc}") from None
        for index, cell in enumerate(self.cells()):
            n, k, cfg = cell["n"], cell["k"], cell["solver"]
            try:
                cfg.num_rounds(n, k)
                strategy_by_name(cell["adversary"], **cell["adversary_params"]).check(n, k)
            except ParameterError as exc:
                raise ParameterError(
                    f"grid cell {index} (n={n}, k={k}, p={cell['p']}, "
                    f"adversary {cell['adversary']}, order={cfg.order}, reps={cfg.reps}): "
                    f"{exc}") from None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentGrid":
        """The grid of a config document; a key outside GRID_KEYS is refused."""
        for key in doc:
            if key not in GRID_KEYS:
                raise ParameterError(f"grid config has unknown key {key!r}")

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
        return [{"n": n, "k_rule": rule, "k": resolve_k_rule(rule, n), "p": p, "solver": cfg,
                 "adversary": name, "adversary_params": params}
                for n in self.ns for rule in self.k_rules for p in self.ps
                for cfg in self.solvers for name, params in self.adversaries]


def _trial_seed(root: int, cell_index: int, trial: int) -> int:
    ss = np.random.SeedSequence(root, spawn_key=(cell_index, trial))
    return int(ss.generate_state(1)[0])


def _run_trial(cell: dict, root_seed: int, cell_index: int,
               trial: int) -> tuple[EvalResult | None, tuple[str, str] | None]:
    """(result, None), or (None, (exception class name, formatted traceback))
    when the trial raises."""
    try:
        seed = _trial_seed(root_seed, cell_index, trial)
        strategy = strategy_by_name(cell["adversary"], **cell["adversary_params"])
        inst = generate(cell["n"], cell["k"], cell["p"], strategy, seed)
        cfg = replace(cell["solver"], seed=seed + 1)
        result = solver.solve(inst.graph, cell["k"], cell["p"], cfg)
        return evaluate(inst, result), None
    except Exception as exc:
        return None, (type(exc).__name__, traceback.format_exc())


GRID_COLUMNS = ["cell", "n", "k_rule", "k", "p", "adversary", "order", "reps",
                "trials", "successes", "errors", "error_kinds", "success_rate",
                "mean_list_size", "mean_max_spurious", "mean_oracle_calls"]


def run_grid(grid: ExperimentGrid, threads: int = 1) -> list[dict]:
    """One row per cell; trials are independent and individually seeded.

    A trial that raises counts as a failure and in the cell's ``errors``
    column rather than aborting the grid; ``error_kinds`` holds the sorted,
    distinct exception class names joined by ``;`` (empty when none raised),
    and the first traceback of each such cell goes to stderr.
    """
    check_int("threads", threads, 1)
    rows = []
    for index, cell in enumerate(grid.cells()):
        trial = partial(_run_trial, cell, grid.seed, index)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(trial, range(grid.trials)))
        done = [r for r, _ in outcomes if r is not None]
        errors = [error for _, error in outcomes if error is not None]
        if errors:
            print(f"grid cell {index}: {len(errors)} of {grid.trials} trials raised; "
                  f"first traceback:\n{errors[0][1]}", file=sys.stderr, end="")
        successes = sum(1 for r in done if r.recovered)

        def mean(vals):
            return sum(vals) / len(vals) if vals else 0.0

        rows.append({
            "cell": index, "n": cell["n"], "k_rule": cell["k_rule"],
            "k": cell["k"], "p": cell["p"], "adversary": cell["adversary"],
            "order": cell["solver"].order, "reps": cell["solver"].reps,
            "trials": grid.trials, "successes": successes, "errors": len(errors),
            "error_kinds": ";".join(sorted({kind for kind, _ in errors})),
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


def adversary_demo(n: int, k: int, m: int, seed: int) -> dict:
    """Majority-adversary study: correlation constants plus paired solver runs.

    The correlation half follows the abstract construction (m random sign
    vectors of length n, w their coordinate-wise majority); the instance
    half builds the actual adversarial graph, runs order 3 end to end,
    scored by :func:`evaluate`, and checks each chosen planted vertex's raw
    order-1 candidate set for decoy contamination.  Edges have p = 1/2,
    where the order-1 sign inner products are the ones the solver
    thresholds.
    """
    p = 0.5
    cfg = solver.SolverConfig(order=3, reps=1, seed=seed + 1)
    inst = generate(n, k, p, strategy_majority_adversary(m), seed)  # checks n, k, m first
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1000,)))
    vectors = rng.choice(np.array([-1, 1], dtype=np.int64), size=(m, n))
    w = majority_vector(vectors)
    corrs = vectors @ w.astype(np.int64)
    scale = n / math.sqrt(m)
    min_corr = int(corrs.min())

    chosen = inst.details["chosen"]
    table = solver.batched_inner_products(inst.graph, [(i,) for i in chosen])
    admitted = (table[:, inst.details["decoys"]] >= solver.threshold_for(k, p, 1)).sum(axis=1)
    contaminated = [{"vertex": i, "decoys_admitted": int(a)} for i, a in zip(chosen, admitted)]
    order1_contaminated = int(np.count_nonzero(admitted))

    result = solver.solve(inst.graph, k, p, cfg)
    # without stats the list is scored without a replay of the candidate stage
    recovered = evaluate(inst, CliqueList(result.entries)).recovered

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
