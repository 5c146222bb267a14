"""Command-line interface.

Exit codes: 0 success, 2 parameter/input error, 3 I/O error, 4 internal
invariant violation.  Every emitted file is byte-reproducible from its
seeds; wall-clock timing is reported on stderr (or to a --timings
sidecar), never inside the result documents.

Start-up loads only the graph, instance and error modules.  Each command
imports the rest of srpc (the solver, harness, pruning, linalg, riplab)
at the top of its own body, so ``generate`` and ``--help`` never load
them.  ``read_graph`` and ``generate`` stay module-level names: the
benchmark's tracer rebinds them here (``tests/test_perfbench_targets.py``
checks that every name it rebinds exists), and the commands look up every
other traced function through its module object (``solver.solve``,
``harness.evaluate``, ``harness.report_json``) for the same reason.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

import click
import numpy as np

from .errors import InputError, InternalInvariantError, ParameterError
from .graphs import read_graph
from .instances import generate, read_instance, strategy_by_name, write_instance


def _write(path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(out, kind: str, doc: dict) -> None:
    """Write ``doc`` to ``out`` as a ``srpc-<kind> v1`` document."""
    from . import harness
    _write(out, harness.report_json(dict(doc, format=f"srpc-{kind} v1")))


def _given(name: str) -> bool:
    """Whether the running command's option ``name`` was set on the command line."""
    return click.get_current_context().get_parameter_source(name).name != "DEFAULT"


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
    """parse() of a file's JSON object; malformed content (a byte that is not UTF-8
    too), a non-finite number or a bad parameter raises InputError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_finite_object)
        except (json.JSONDecodeError, UnicodeDecodeError, InputError) as exc:
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
_seed_option = click.option("--seed", type=SEED, default=0, show_default=True)
# Largest `bench --sizes` entry: its two int64 operands then hold 256 MiB.
MAX_BENCH_SIZE = 4096


@click.group()
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker threads for the independent trials of `grid`.")
@click.pass_context
def cli(ctx, threads):
    """Planted-clique list decoding, adversarial instances, and the RIP lab."""
    ctx.obj = {"threads": threads}


@cli.command("generate")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--adversary", type=click.Choice(["erdos_renyi", "clique_union", "majority"]),
              default="erdos_renyi", show_default=True)
@click.option("--m", type=int, default=None, help="Majority adversary row count (odd).")
@_seed_option
@click.option("--out-graph", required=True)
@click.option("--out-meta", required=True)
def generate_cmd(n, k, p, adversary, m, seed, out_graph, out_meta):
    """Generate an instance; the planted set goes only to the metadata sidecar."""
    given = {} if m is None else {"m": m}
    inst = generate(n, k, p, strategy_by_name(adversary, **given), seed)
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
@_seed_option
@click.option("--backend", type=click.Choice(["naive"]), default="naive", show_default=True,
              help="Kept only so that existing command lines parse; the solve always "
                   "multiplies naively. It goes once the benchmark stops passing it.")
@click.option("--out", required=True)
@click.option("--timings", default=None,
              help="Optional sidecar path for stage wall times and oracle seconds.")
def solve_cmd(graph_path, k, p, order, reps, rounds_const, rounds, seed, backend, out,
              timings):
    """List-decode cliques from a graph file (never reads the planted set)."""
    from . import harness, solver
    if rounds is not None and _given("rounds_const"):
        raise ParameterError("--rounds-const does not apply with --rounds, "
                             "which sets the round count itself")
    cfg = solver.SolverConfig(order=int(order), reps=reps, c_rounds=rounds_const,
                              rounds=rounds, seed=seed)
    solver.threshold_for(k, p, cfg.order)  # refuses k and p before the n^2 read
    graph = read_graph(graph_path)
    result = solver.solve(graph, k, p, cfg)
    wall = result.stats.pop("wall_times")
    oracle = result.stats.pop("oracle_seconds")
    _emit(out, "solve", result.to_dict())
    for stage in sorted(wall):
        click.echo(f"{stage}: {wall[stage]:.3f}s", err=True)
    if timings:
        _write(timings, harness.report_json(dict(wall, oracle_seconds=oracle)))


@cli.command("prune")
@click.option("--list", "list_path", required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--out", default="-")
def prune_cmd(list_path, n, p, out):
    """Prune a clique-list document by pairwise intersection.

    Intersection counts come from exact 0/1 Gram products; the document is
    the one the reference set-intersection filter writes.
    """
    from . import pruning
    from .cliquelist import CliqueList
    params = pruning.PruneParams.for_model(n, p)
    pruned = pruning.prune_fast(_read_doc(list_path, CliqueList.from_dict), params)
    _emit(out, "prune", pruned.to_dict())


@cli.command("evaluate")
@click.option("--graph", "graph_path", required=True)
@click.option("--meta", "meta_path", required=True)
@click.option("--result", "result_path", required=True)
@click.option("--out", default="-")
def evaluate_cmd(graph_path, meta_path, result_path, out):
    """Score a solve document against an instance's hidden planted set."""
    from . import harness
    from .cliquelist import CliqueList
    clique_list = _read_doc(result_path, CliqueList.from_dict)  # before the n^2 read
    inst = read_instance(graph_path, meta_path)
    try:
        result = harness.evaluate(inst, clique_list)
    except InputError as exc:
        raise InputError(f"{result_path}: {exc}") from None
    _emit(out, "eval", result.to_dict())


@cli.command("grid")
@click.option("--config", "config_path", required=True,
              help="JSON grid description (ns, k_rules, ps, solvers, adversaries, trials, seed).")
@click.option("--out-csv", required=True)
@click.option("--out-config", default=None,
              help="Optional JSON sidecar echoing the resolved grid.")
@click.pass_context
def grid_cmd(ctx, config_path, out_csv, out_config):
    """Run a Monte-Carlo grid of generate -> solve -> evaluate trials.

    The group's --threads (`srpc --threads 4 grid ...`) sets how many trials
    run at once; the CSV and the echo are the same for every thread count.
    """
    from . import harness
    doc, grid = _read_doc(config_path, lambda d: (d, harness.ExperimentGrid.from_dict(d)))
    rows = harness.run_grid(grid, threads=ctx.obj["threads"])
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
@_seed_option
@click.option("--out", default="-")
def adversary_demo_cmd(n, k, m, seed, out):
    """Majority-adversary correlation study plus paired order-1/order-3 runs."""
    from . import harness
    _emit(out, "adversary-demo", harness.adversary_demo(n, k, m, seed))


@cli.group()
def rip():
    """Tensored-matrix isotropy, sparse operator norms, and deviations."""


def _base_dist(base: str, p: str | None):
    from fractions import Fraction

    from . import riplab
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


_RIP_OPTIONS = [
    click.option("--k", type=int, required=True),
    click.option("--t", type=int, required=True),
    click.option("--q", type=int, required=True),
    click.option("--base", type=click.Choice(["rademacher", "pbiased"]),
                 default="rademacher", show_default=True),
    click.option("--p", default=None, help="Base-law p as a fraction, e.g. 4/5."),
    _seed_option,
    click.option("--out", default="-"),
]


def _rip_command(name: str):
    """Register ``fn(h, **own_options) -> dict`` as ``srpc rip <name>``.

    The shared options come first; they build the tensored matrix ``h``
    once, and the returned document goes to ``--out``.
    """
    def wrap(fn):
        def command(k, t, q, base, p, seed, out, **own):
            from . import riplab
            h = riplab.build_tensored(k, t, q, _base_dist(base, p), seed)
            _emit(out, f"rip-{name}", fn(h, **own))
        command.__doc__ = fn.__doc__
        command.__click_params__ = list(getattr(fn, "__click_params__", []))
        for option in reversed(_RIP_OPTIONS):
            command = option(command)
        return rip.command(name)(command)
    return wrap


@_rip_command("build")
def rip_build(h):
    """Build a tensored matrix and report its shape and entry bound."""
    return {"q": h.q, "k": h.k, "t": h.t, "columns": len(h.columns),
            "entry_bound": h.entry_bound, "base": h.base.name, "seed": h.seed}


@_rip_command("isotropy")
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]),
              default="sampled", show_default=True)
def rip_isotropy(h, mode):
    """Check zero-mean / unit-variance / uncorrelated column moments, to 5/sqrt(q) when sampled."""
    from . import riplab
    report = riplab.isotropy_check(h, mode)
    return {"mode": report.mode, "ok": report.ok, "max_abs_mean": report.max_abs_mean,
            "max_abs_cross": report.max_abs_cross, "max_diag_err": report.max_diag_err,
            "tol": report.tol, "exact": report.exact}


@_rip_command("opnorm")
@click.option("--r", type=int, required=True)
@click.option("--method", type=click.Choice(["exhaustive", "sampled"]),
              default="exhaustive", show_default=True)
@click.option("--trials", type=int, default=10000, show_default=True)
def rip_opnorm(h, r, method, trials):
    """Sparse operator norm of H/sqrt(q) over all (or sampled) size-r supports."""
    from . import riplab
    mat = h.values / np.sqrt(h.q)
    if method == "exhaustive":
        if _given("trials"):
            raise ParameterError("--trials does not apply to --method exhaustive")
        report = riplab.sparse_opnorm_exhaustive(mat, r)
    else:
        report = riplab.sparse_opnorm_sampled(mat, r, trials=trials, seed=h.seed)
    return {"r": report.r, "value": report.value, "method": report.method,
            "support": list(report.support), "supports_checked": report.supports_checked,
            "residual": report.residual, "normalized": True, "seed": h.seed}


@_rip_command("deviation")
@click.option("--r", type=int, required=True)
@click.option("--trials", type=int, default=10000, show_default=True)
def rip_deviation(h, r, trials):
    """Sampled two-sided RIP deviation of H/sqrt(q)."""
    from . import riplab
    deviation = riplab.rip_deviation_sampled(h.values / np.sqrt(h.q), r,
                                             trials=trials, seed=h.seed)
    return {"r": r, "trials": trials, "deviation": deviation, "q": h.q, "seed": h.seed}


@_rip_command("corrcount")
@click.option("--tau", type=float, required=True)
@click.option("--w-seed", type=SEED, default=0, show_default=True)
def rip_corrcount(h, tau, w_seed):
    """Count columns correlated with a seeded random sign vector."""
    from . import riplab
    rng = np.random.default_rng(np.random.SeedSequence(w_seed))
    w = rng.choice(np.array([-1.0, 1.0]), size=h.q)
    count, columns = riplab.correlated_column_count(h.values, w, tau)
    return {"tau": tau, "count": count, "columns": columns, "w_seed": w_seed, "seed": h.seed}


@cli.command()
@click.option("--sizes", default="128,256", show_default=True,
              help="Comma-separated square sizes.")
@_seed_option
@click.option("--out", default="-",
              help="Deterministic counter report (wall times go to stderr).")
def bench(sizes, seed, out):
    """Time the three multiplication backends on int64 operands and report oracle counters."""
    from . import linalg
    rng = np.random.default_rng(seed)
    if not all(s.strip().isdecimal() and 0 < int(s) <= MAX_BENCH_SIZE for s in sizes.split(",")):
        raise ParameterError(f"--sizes must be comma-separated integers in [1, "
                             f"MAX_BENCH_SIZE={MAX_BENCH_SIZE}], got {sizes!r}")
    report = []
    for size in [int(s) for s in sizes.split(",")]:
        a = rng.integers(-8, 9, size=(size, size)).astype(np.int64)
        b = rng.integers(-8, 9, size=(size, size)).astype(np.int64)
        for backend in (linalg.NAIVE, linalg.BLOCKED, linalg.RECURSIVE):
            counters = linalg.Counters()
            linalg.matmul(a, b, backend, counters)
            click.echo(f"n={size} backend={backend.kind}: {counters.seconds:.4f}s", err=True)
            report.append({"n": size, "backend": backend.kind, "kind": "int",
                           "oracle_calls": counters.oracle_calls,
                           "madds": counters.madds})
    _emit(out, "bench", {"cases": report})


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one ``warning: <message>`` line on stderr, without source lines."""
    click.echo(f"warning: {message}", err=True)


def main():
    with warnings.catch_warnings():  # restores showwarning for an in-process caller
        warnings.showwarning = _show_warning
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
        except InternalInvariantError as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(4)


if __name__ == "__main__":
    main()
