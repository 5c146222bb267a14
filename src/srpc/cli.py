"""Command-line interface.

Exit codes: 0 success, 2 parameter/input error, 3 I/O error, 4 internal
invariant violation.  Every emitted file is byte-reproducible from its
seeds; wall-clock timing is reported on stderr (or to a --timings
sidecar), never inside the result documents.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import click
import numpy as np

from . import harness, linalg, pruning, riplab, solver
from .cliquelist import CliqueList
from .errors import (InputError, InternalInvariantError, NonConvergenceError,
                     ParameterError)
from .graphs import read_graph
from .instances import generate, read_instance, strategy_by_name, write_instance


def _write(path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _finite_object(pairs: list) -> dict:
    """json object hook that refuses ``NaN``, ``Infinity`` and overflows like ``1e999``."""
    def finite(value):  # nested objects went through this hook already
        return (all(map(finite, value)) if isinstance(value, list)
                else not isinstance(value, float) or math.isfinite(value))
    for key, value in pairs:
        if not finite(value):
            raise InputError(f"{key!r} holds NaN or an infinity, which is not a JSON number")
    return dict(pairs)


def _read_doc(path, parse):
    """parse() of a file's JSON object; malformed content, a non-finite number or
    a bad parameter raises InputError naming the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_finite_object)
        except (json.JSONDecodeError, InputError) as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        return parse(doc)
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (InputError, ParameterError) as exc:
        raise InputError(f"{path}: {exc}") from None


# Seeds feed np.random.SeedSequence, which takes only non-negative integers.
SEED = click.IntRange(min=0)


def _seed_option():
    """A subcommand's --seed; unset, it falls back to the group's --seed."""
    return click.option("--seed", type=SEED, default=None,
                        callback=lambda ctx, _, seed: ctx.obj["seed"] if seed is None else seed)


def _backend_from_ctx(ctx, override: str | None) -> linalg.Backend:
    return linalg.Backend(override or ctx.obj.get("backend") or "naive")


@click.group()
@click.option("--seed", type=SEED, default=0, show_default=True,
              help="Default seed for subcommands that do not set their own.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for independent trials.")
@click.option("--backend", type=click.Choice(["naive", "blocked", "recursive"]),
              default=None, help="Default matrix-multiplication backend.")
@click.pass_context
def cli(ctx, seed, threads, backend):
    """Planted-clique list decoding, adversarial instances, and the RIP lab."""
    ctx.obj = {"seed": seed, "threads": threads, "backend": backend}


@cli.command("generate")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--adversary", type=click.Choice(["erdos_renyi", "clique_union", "majority"]),
              default="erdos_renyi", show_default=True)
@click.option("--m", type=int, default=None, help="Majority adversary row count (odd).")
@click.option("--decoys", type=int, default=None, help="Majority adversary decoy count.")
@_seed_option()
@click.option("--out-graph", required=True)
@click.option("--out-meta", required=True)
def generate_cmd(n, k, p, adversary, m, decoys, seed, out_graph, out_meta):
    """Generate an instance; the planted set goes only to the metadata sidecar."""
    params = {}
    if adversary == "majority":
        if m is None:
            raise ParameterError("--m is required for the majority adversary")
        params = {"m": m, "decoy_count": decoys}
    strategy = strategy_by_name(adversary, **params)
    inst = generate(n, k, p, strategy, seed)
    write_instance(inst, out_graph, out_meta)


@cli.command("solve")
@click.option("--graph", "graph_path", required=True)
@click.option("--k", type=int, required=True)
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--order", type=click.Choice(["1", "2", "3"]), default="3",
              show_default=True)
@click.option("--reps", type=int, default=1, show_default=True)
@click.option("--rounds-const", type=float, default=10.0, show_default=True)
@click.option("--rounds", type=int, default=None, help="Override the round count.")
@_seed_option()
@click.option("--backend", type=click.Choice(["naive", "blocked", "recursive"]),
              default=None)
@click.option("--out", required=True)
@click.option("--timings", default=None,
              help="Optional sidecar path for stage wall times and oracle seconds.")
@click.pass_context
def solve_cmd(ctx, graph_path, k, p, order, reps, rounds_const, rounds, seed,
              backend, out, timings):
    """List-decode cliques from a graph file (never reads the planted set)."""
    graph = read_graph(graph_path)
    cfg = solver.SolverConfig(order=int(order), reps=reps, c_rounds=rounds_const,
                              rounds=rounds, seed=seed,
                              backend=_backend_from_ctx(ctx, backend))
    result = solver.solve(graph, k, p, cfg)
    wall = result.stats.pop("wall_times")
    oracle = result.stats.pop("oracle_seconds")
    doc = result.to_dict()
    doc["format"] = "srpc-solve v1"
    _write(out, harness.report_json(doc))
    for stage in sorted(wall):
        click.echo(f"{stage}: {wall[stage]:.3f}s", err=True)
    if timings:
        _write(timings, harness.report_json(dict(wall, oracle_seconds=oracle)))


@cli.command("prune")
@click.option("--list", "list_path", required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--mode", type=click.Choice(["naive", "fast"]), default="fast",
              show_default=True)
@click.option("--out", default="-")
@click.pass_context
def prune_cmd(ctx, list_path, n, p, mode, out):
    """Prune a clique-list document by pairwise intersection."""
    clique_list = _read_doc(list_path, CliqueList.from_dict)
    params = pruning.PruneParams.for_model(n, p)
    if mode == "naive":
        pruned = pruning.prune_naive(clique_list, params)
    else:
        pruned = pruning.prune_fast(clique_list, params,
                                    backend=_backend_from_ctx(ctx, None))
    doc = pruned.to_dict()
    doc["format"] = "srpc-prune v1"
    _write(out, harness.report_json(doc))


@cli.command("evaluate")
@click.option("--graph", "graph_path", required=True)
@click.option("--meta", "meta_path", required=True)
@click.option("--result", "result_path", required=True)
@click.option("--out", default="-")
def evaluate_cmd(graph_path, meta_path, result_path, out):
    """Score a solve document against an instance's hidden planted set."""
    inst = read_instance(graph_path, meta_path)
    clique_list = _read_doc(result_path, CliqueList.from_dict)
    try:
        result = harness.evaluate(inst, clique_list)
    except InputError as exc:
        raise InputError(f"{result_path}: {exc}") from None
    doc = result.to_dict()
    doc["format"] = "srpc-eval v1"
    _write(out, harness.report_json(doc))


@cli.command("grid")
@click.option("--config", "config_path", required=True,
              help="JSON grid description (ns, k_rules, ps, solvers, adversaries, trials, seed).")
@click.option("--out-csv", required=True)
@click.option("--out-config", default=None,
              help="Optional JSON sidecar echoing the resolved grid.")
@click.option("--threads", type=int, default=None)
@click.pass_context
def grid_cmd(ctx, config_path, out_csv, out_config, threads):
    """Run a Monte-Carlo grid of generate -> solve -> evaluate trials."""
    doc, grid = _read_doc(config_path, lambda d: (d, harness.ExperimentGrid.from_dict(d)))
    rows = harness.run_grid(grid, threads=threads or ctx.obj["threads"])
    _write(out_csv, harness.grid_csv(rows))
    if out_config:
        echo = dict(doc)
        echo["cells"] = [{k: v for k, v in cell.items() if k != "solver"}
                         | {"solver": cell["solver"].to_dict()}
                         for cell in grid.cells()]
        _write(out_config, harness.report_json(echo))


@cli.command("adversary-demo")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--m", type=int, required=True)
@_seed_option()
@click.option("--rounds-const", type=float, default=10.0, show_default=True)
@click.option("--out", default="-")
def adversary_demo_cmd(n, k, m, seed, rounds_const, out):
    """Majority-adversary correlation study plus paired order-1/order-3 runs."""
    report = harness.adversary_demo(n, k, m, seed, c_rounds=rounds_const)
    report["format"] = "srpc-adversary-demo v1"
    _write(out, harness.report_json(report))


@cli.group()
def rip():
    """Tensored-matrix isotropy, sparse operator norms, and deviations."""


def _base_dist(base: str, p: str | None):
    if base == "rademacher":
        if p is not None:
            raise ParameterError(f"--p {p} applies only to --base pbiased; "
                                 "the Rademacher base has p = 1/2")
        return riplab.RademacherBase()
    if p is None:
        raise ParameterError("--p is required for the p-biased base")
    try:
        frac = Fraction(p)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"--p must be a fraction such as 4/5, got {p!r}") from None
    return riplab.PBiasedBase(frac)


_shared_rip = [
    click.option("--k", type=int, required=True),
    click.option("--t", type=int, required=True),
    click.option("--q", type=int, required=True),
    click.option("--base", type=click.Choice(["rademacher", "pbiased"]),
                 default="rademacher", show_default=True),
    click.option("--p", default=None, help="Base-law p as a fraction, e.g. 4/5."),
    _seed_option(),
    click.option("--out", default="-"),
]


def _with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@rip.command("build")
@_with_options(_shared_rip)
def rip_build(k, t, q, base, p, seed, out):
    """Build a tensored matrix and report its shape and entry bound."""
    h = riplab.build_tensored(k, t, q, _base_dist(base, p), seed)
    doc = {"format": "srpc-rip-build v1", "q": h.q, "k": h.k, "t": h.t,
           "columns": len(h.columns), "entry_bound": h.entry_bound,
           "base": h.base.name, "seed": h.seed}
    _write(out, harness.report_json(doc))


@rip.command("isotropy")
@_with_options(_shared_rip)
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]),
              default="sampled", show_default=True)
@click.option("--tol", type=float, default=None)
def rip_isotropy(k, t, q, base, p, seed, out, mode, tol):
    """Check zero-mean / unit-variance / uncorrelated column moments."""
    h = riplab.build_tensored(k, t, q, _base_dist(base, p), seed)
    report = riplab.isotropy_check(h, mode=mode, tol=tol)
    doc = {"format": "srpc-rip-isotropy v1", "mode": report.mode, "ok": report.ok,
           "max_abs_mean": report.max_abs_mean, "max_abs_cross": report.max_abs_cross,
           "max_diag_err": report.max_diag_err, "tol": report.tol,
           "exact": report.exact}
    _write(out, harness.report_json(doc))


@rip.command("opnorm")
@_with_options(_shared_rip)
@click.option("--r", type=int, required=True)
@click.option("--method", type=click.Choice(["exhaustive", "sampled"]),
              default="exhaustive", show_default=True)
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--budget", type=int, default=riplab.DEFAULT_SUPPORT_BUDGET,
              show_default=True)
@click.option("--normalize/--no-normalize", default=True, show_default=True,
              help="Scale the matrix by 1/sqrt(q) first.")
def rip_opnorm(k, t, q, base, p, seed, out, r, method, trials, budget, normalize):
    """Sparse operator norm over all (or sampled) size-r supports."""
    h = riplab.build_tensored(k, t, q, _base_dist(base, p), seed)
    mat = h.values / np.sqrt(q) if normalize else h.values
    if method == "exhaustive":
        report = riplab.sparse_opnorm_exhaustive(mat, r, budget=budget)
    else:
        report = riplab.sparse_opnorm_sampled(mat, r, trials=trials, seed=seed)
    doc = {"format": "srpc-rip-opnorm v1", "r": report.r, "value": report.value,
           "method": report.method, "support": list(report.support),
           "supports_checked": report.supports_checked,
           "residual": report.residual, "normalized": normalize, "seed": seed}
    _write(out, harness.report_json(doc))


@rip.command("deviation")
@_with_options(_shared_rip)
@click.option("--r", type=int, required=True)
@click.option("--trials", type=int, default=10000, show_default=True)
def rip_deviation(k, t, q, base, p, seed, out, r, trials):
    """Sampled two-sided RIP deviation of H/sqrt(q)."""
    h = riplab.build_tensored(k, t, q, _base_dist(base, p), seed)
    deviation = riplab.rip_deviation_sampled(h.values / np.sqrt(q), r,
                                             trials=trials, seed=seed)
    doc = {"format": "srpc-rip-deviation v1", "r": r, "trials": trials,
           "deviation": deviation, "q": q, "seed": seed}
    _write(out, harness.report_json(doc))


@rip.command("corrcount")
@_with_options(_shared_rip)
@click.option("--tau", type=float, required=True)
@click.option("--w-seed", type=SEED, default=0, show_default=True)
def rip_corrcount(k, t, q, base, p, seed, out, tau, w_seed):
    """Count columns correlated with a seeded random sign vector."""
    h = riplab.build_tensored(k, t, q, _base_dist(base, p), seed)
    rng = np.random.default_rng(np.random.SeedSequence(w_seed))
    w = rng.choice(np.array([-1.0, 1.0]), size=q)
    count, columns = riplab.correlated_column_count(h.values, w, tau)
    doc = {"format": "srpc-rip-corrcount v1", "tau": tau, "count": count,
           "columns": columns, "w_seed": w_seed, "seed": seed}
    _write(out, harness.report_json(doc))


@cli.command()
@click.option("--sizes", default="128,256", show_default=True,
              help="Comma-separated square sizes.")
@click.option("--backends", default="naive,blocked,recursive", show_default=True)
@click.option("--kind", type=click.Choice(["int", "float"]), default="int",
              show_default=True)
@_seed_option()
@click.option("--out", default="-",
              help="Deterministic counter report (wall times go to stderr).")
def bench(sizes, backends, kind, seed, out):
    """Time the multiplication backends and report oracle counters."""
    rng = np.random.default_rng(seed)
    if not all(s.strip().isdecimal() and int(s) > 0 for s in sizes.split(",")):
        raise ParameterError(f"--sizes must be comma-separated positive integers, got {sizes!r}")
    report = []
    for size in [int(s) for s in sizes.split(",")]:
        if kind == "int":
            a = rng.integers(-8, 9, size=(size, size)).astype(np.int64)
            b = rng.integers(-8, 9, size=(size, size)).astype(np.int64)
        else:
            a = rng.standard_normal((size, size))
            b = rng.standard_normal((size, size))
        for name in backends.split(","):
            counters = linalg.Counters()
            linalg.matmul(a, b, linalg.Backend(name), counters)
            click.echo(f"n={size} backend={name}: {counters.seconds:.4f}s", err=True)
            report.append({"n": size, "backend": name, "kind": kind,
                           "oracle_calls": counters.oracle_calls,
                           "madds": counters.madds})
    _write(out, harness.report_json({"format": "srpc-bench v1", "cases": report}))


def main():
    try:
        cli(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.exceptions.ClickException as exc:
        exc.show()
        sys.exit(2)
    except (ParameterError, InputError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(3)
    except (InternalInvariantError, NonConvergenceError) as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(4)


if __name__ == "__main__":
    main()
