"""Which srpc functions the traced run wraps, and the per-layer metrics.

Every function is rebound under the name its caller looks it up by, so a
call from the CLI, the harness or the solver goes through the wrapper.
Stage times (candidate, refine, verify, prune) are the program's own
``wall_times`` from the solve stats, not spans.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

import srpc.bits
import srpc.cli
import srpc.harness
import srpc.instances
import srpc.linalg
import srpc.pruning
import srpc.riplab
import srpc.solver

from tracing import Tracer, has_ancestor, self_times

ORACLES = ("linalg.sign_matmul", "linalg.matmul")


def _file_bytes(sp, args, kwargs, result):
    path = args[1] if sp.name == "graphs.write_graph" else args[0]
    sp.attrs["bytes"] = os.path.getsize(path)


def _sign_shape(sp, args, kwargs, result):
    a, b, n = args[0], args[1], args[2]
    a = np.atleast_2d(a)
    sp.attrs.update(m=a.shape[0], inner=n, cols=np.atleast_2d(b).shape[0],
                    real_rows=int(np.count_nonzero(a.any(axis=1))))


def _matmul_shape(sp, args, kwargs, result):
    a, b = args[0], args[1]
    sp.attrs.update(m=a.shape[0], inner=a.shape[1], cols=b.shape[1],
                    real_rows=int(np.count_nonzero(a.any(axis=1))))


def _solve_stats(sp, args, kwargs, result):
    stats = result.stats
    sp.attrs.update({key: stats[key] for key in
                     ("rounds", "rounds_nonempty", "rounds_short_skipped", "distinct_raw",
                      "rounds_accepted", "oracle_calls")})
    sp.attrs["wall_times"] = dict(stats["wall_times"])


def _prune_input(sp, args, kwargs, result):
    sp.attrs["input"] = len(args[0].entries)


def _supports(sp, args, kwargs, result):
    sp.attrs["supports"] = result.supports_checked


# (module, name the caller looks up, span name, result hook)
TARGETS = [
    (srpc.instances, "write_graph", "graphs.write_graph", _file_bytes),
    (srpc.cli, "read_graph", "graphs.read_graph", _file_bytes),
    (srpc.instances, "read_graph", "graphs.read_graph", _file_bytes),
    (srpc.solver, "hadamard_rows", "graphs.hadamard_rows", None),
    (srpc.cli, "generate", "instances.generate", None),
    (srpc.harness, "generate", "instances.generate", None),
    (srpc.bits, "sign_inner_popcount", "bits.sign_inner_popcount", None),
    (srpc.bits, "unpack_sign_rows", "bits.unpack_sign_rows", None),
    (srpc.linalg, "sign_matmul", "linalg.sign_matmul", _sign_shape),
    (srpc.linalg, "matmul", "linalg.matmul", _matmul_shape),
    (srpc.linalg, "power_iteration", "linalg.power_iteration", None),
    (srpc.solver, "solve", "solver.solve", _solve_stats),
    (srpc.solver, "batched_membership_degrees", "solver.batched_membership_degrees", None),
    (srpc.pruning, "prune_fast", "pruning.prune_fast", _prune_input),
    (srpc.harness, "evaluate", "harness.evaluate", None),
    (srpc.harness, "max_spurious_members", "harness.max_spurious_members", None),
    (srpc.harness, "report_json", "harness.report_json", None),
    (srpc.riplab, "build_tensored", "riplab.build_tensored", None),
    (srpc.riplab, "sparse_opnorm_exhaustive", "riplab.sparse_opnorm_exhaustive", _supports),
    (srpc.riplab, "sparse_opnorm_sampled", "riplab.sparse_opnorm_sampled", _supports),
    (srpc.riplab, "rip_deviation_sampled", "riplab.rip_deviation_sampled", None),
    (srpc.riplab, "isotropy_check", "riplab.isotropy_check", None),
]
GENERATORS = [(srpc.solver, "iter_round_members", "solver.iter_round_members")]


def install(tracer: Tracer) -> None:
    for module, attr, name, hook in TARGETS:
        tracer.patch(module, attr, tracer.wrap(getattr(module, attr), name, hook))
    for module, attr, name in GENERATORS:
        tracer.patch(module, attr, tracer.wrap_generator(getattr(module, attr), name))


# Per-layer metric name -> unit.  Every name is emitted on every workload;
# a layer a workload never reaches reads 0.
UNITS = {
    "graphs.write_graph_s": "s", "graphs.read_graph_s": "s",
    "graphs.read_graph_calls": "count", "graphs.file_mb": "MB",
    "graphs.hadamard_rows_s": "s", "graphs.hadamard_rows_calls": "count",
    "instances.generate_s": "s",
    "bits.sign_inner_popcount_s": "s", "bits.unpack_sign_rows_s": "s",
    "linalg.sign_matmul_s": "s", "linalg.sign_matmul_calls": "count",
    "linalg.matmul_s": "s", "linalg.matmul_calls": "count",
    "linalg.oracle_calls": "count", "linalg.madds": "count", "linalg.oracle_fill": "ratio",
    "linalg.gmadds_per_s": "Gmadd/s", "linalg.power_iteration_s": "s",
    "solver.solve_s": "s", "solver.candidate_s": "s", "solver.refine_s": "s",
    "solver.verify_s": "s", "solver.prune_s": "s", "solver.round_loop_self_s": "s",
    "solver.degrees_s": "s", "solver.rounds": "count", "solver.rounds_nonempty": "count",
    "solver.rounds_short_skipped": "count", "solver.distinct_raw": "count",
    "solver.rounds_accepted": "count", "solver.accept_ratio": "ratio",
    "pruning.prune_fast_s": "s", "pruning.input": "count",
    "harness.evaluate_s": "s", "harness.replay_s": "s",
    "harness.report_json_s": "s",
    "cli.self_s": "s",
    "riplab.build_tensored_s": "s", "riplab.opnorm_exhaustive_s": "s",
    "riplab.opnorm_sampled_s": "s", "riplab.supports_per_s": "1/s",
    "riplab.deviation_s": "s", "riplab.isotropy_s": "s",
}


def trial_layers(spans, self_time) -> tuple[dict, list[str]]:
    """Per-layer values of one traced trial, plus cross-check failures."""
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def busy(name):
        return sum(sp.busy for sp in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in by_name.get(name, []))

    oracles = [sp for name in ORACLES for sp in by_name.get(name, [])]
    madds = sum(sp.attrs["m"] * sp.attrs["inner"] * sp.attrs["cols"] for sp in oracles)
    rows = sum(sp.attrs["m"] for sp in oracles)
    oracle_s = busy("linalg.sign_matmul") + busy("linalg.matmul")
    solves = by_name.get("solver.solve", [])
    walls = [sp.attrs["wall_times"] for sp in solves]
    rounds = attr_sum("solver.solve", "rounds")
    supports = (attr_sum("riplab.sparse_opnorm_exhaustive", "supports")
                + attr_sum("riplab.sparse_opnorm_sampled", "supports"))
    opnorm_s = busy("riplab.sparse_opnorm_exhaustive") + busy("riplab.sparse_opnorm_sampled")
    writes = by_name.get("graphs.write_graph", [])
    values = {
        "graphs.write_graph_s": busy("graphs.write_graph"),
        "graphs.read_graph_s": busy("graphs.read_graph"),
        "graphs.read_graph_calls": calls("graphs.read_graph"),
        "graphs.file_mb": max((sp.attrs["bytes"] for sp in writes), default=0) / 1e6,
        "graphs.hadamard_rows_s": busy("graphs.hadamard_rows"),
        "graphs.hadamard_rows_calls": calls("graphs.hadamard_rows"),
        "instances.generate_s": busy("instances.generate"),
        "bits.sign_inner_popcount_s": busy("bits.sign_inner_popcount"),
        "bits.unpack_sign_rows_s": busy("bits.unpack_sign_rows"),
        "linalg.sign_matmul_s": busy("linalg.sign_matmul"),
        "linalg.sign_matmul_calls": calls("linalg.sign_matmul"),
        "linalg.matmul_s": busy("linalg.matmul"),
        "linalg.matmul_calls": calls("linalg.matmul"),
        "linalg.oracle_calls": len(oracles),
        "linalg.madds": madds,
        "linalg.oracle_fill": sum(sp.attrs["real_rows"] for sp in oracles) / rows if rows else 0.0,
        "linalg.gmadds_per_s": madds / oracle_s / 1e9 if oracle_s else 0.0,
        "linalg.power_iteration_s": busy("linalg.power_iteration"),
        "solver.solve_s": busy("solver.solve"),
        **{f"solver.{stage}_s": sum(w[stage] for w in walls)
           for stage in ("candidate", "refine", "verify", "prune")},
        "solver.round_loop_self_s": sum(self_time[sp.id] for sp in
                                        by_name.get("solver.iter_round_members", [])),
        "solver.degrees_s": busy("solver.batched_membership_degrees"),
        **{f"solver.{key}": attr_sum("solver.solve", key) for key in
           ("rounds", "rounds_nonempty", "rounds_short_skipped", "distinct_raw",
            "rounds_accepted")},
        "solver.accept_ratio": attr_sum("solver.solve", "rounds_accepted") / rounds
        if rounds else 0.0,
        "pruning.prune_fast_s": busy("pruning.prune_fast"),
        "pruning.input": attr_sum("pruning.prune_fast", "input"),
        "harness.evaluate_s": busy("harness.evaluate"),
        "harness.replay_s": busy("harness.max_spurious_members"),
        "harness.report_json_s": busy("harness.report_json"),
        "cli.self_s": sum(self_time[sp.id] for sp in spans if sp.name.startswith("cli.")),
        "riplab.build_tensored_s": busy("riplab.build_tensored"),
        "riplab.opnorm_exhaustive_s": busy("riplab.sparse_opnorm_exhaustive"),
        "riplab.opnorm_sampled_s": busy("riplab.sparse_opnorm_sampled"),
        "riplab.supports_per_s": supports / opnorm_s if opnorm_s else 0.0,
        "riplab.deviation_s": busy("riplab.rip_deviation_sampled"),
        "riplab.isotropy_s": busy("riplab.isotropy_check"),
    }
    return values, candidate_call_mismatches(spans, by_name)


def candidate_call_mismatches(spans, by_name) -> list[str]:
    """Oracle calls seen under each solve's round loop vs. its own count."""
    by_id = {sp.id: sp for sp in spans}
    problems = []
    for solve in by_name.get("solver.solve", []):
        loops = {sp.id for sp in by_name.get("solver.iter_round_members", [])
                 if sp.parent == solve.id}
        seen = sum(1 for name in ORACLES for sp in by_name.get(name, [])
                   if has_ancestor(sp, by_id, lambda a: a.id in loops))
        claimed = solve.attrs["oracle_calls"]["candidate"]
        if seen != claimed:
            problems.append(f"candidate oracle calls: wrapper saw {seen}, solve stats say "
                            f"{claimed}")
    return problems


def per_layer(tracer: Tracer, trial_ids) -> tuple[dict, dict, list[tuple[int, str]]]:
    """Median over traced trials of each per-layer value, per-trial values, failures."""
    self_time = self_times(tracer.spans)
    by_trial: dict = {}
    for sp in tracer.spans:
        by_trial.setdefault(sp.trial, []).append(sp)
    per_trial, problems = {}, []
    for tid in trial_ids:
        per_trial[tid], bad = trial_layers(by_trial.get(tid, []), self_time)
        problems += [(tid, msg) for msg in bad]
    # A count is reported as one trial's value, never as the mean of two.
    medians = {name: (statistics.median_low if unit == "count" else statistics.median)(
                   [values[name] for values in per_trial.values()]) if per_trial else 0.0
               for name, unit in UNITS.items()}
    return medians, per_trial, problems
