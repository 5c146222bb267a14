"""The two benchmark workloads and their output checks.

Each workload drives srpc only through its click group (in process) and
its public functions.  One trial is one closed-loop unit of work; the
benchmark starts the next trial when the previous one has finished.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import srpc.cli
import srpc.solver
from srpc import riplab

from envinfo import working_set
from checks import (check_cliques, check_witness, max_pair_opnorm,
                    read_graph_file, require)


@dataclass
class Outcome:
    """What one trial produced, before the benchmark's checks."""

    seed: int = 0
    seconds: float = 0.0
    cpu_seconds: float = 0.0  # process CPU time (all threads) over the same interval
    phases: dict = field(default_factory=dict)  # CLI command -> wall seconds
    stages: dict = field(default_factory=dict)  # the program's own solve stage times
    recovered: int = 0
    attempts: int = 0  # trials that had a planted set to recover
    list_sizes: list = field(default_factory=list)
    docs: dict = field(default_factory=dict)  # output name -> bytes, for the repeat check
    solves: list = field(default_factory=list)  # (adjacency, k, entries, stats) per solve


def invoke(args: list[str], span_name: str, tracer) -> float:
    """Run one srpc command through the click group; wall seconds."""
    with tracer.span(span_name) if tracer else nullcontext():
        t0 = time.perf_counter()
        code = srpc.cli.cli.main(args=[str(a) for a in args], standalone_mode=False)
        elapsed = time.perf_counter() - t0
    # Without standalone mode click raises on errors but returns an explicit exit code.
    if code not in (None, 0):
        raise RuntimeError(f"srpc {args[0]} exited with code {code}")
    return elapsed


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    name = ""
    why = ""
    params: dict = {}
    smoke_params: dict = {}

    def __init__(self, smoke: bool = False):
        self.p = self.smoke_params if smoke else self.params
        self.workdir = None
        self._captured: list = []
        self._original_solve = None

    # -- set-up --------------------------------------------------------
    def prepare(self, workdir) -> None:
        """Put this set-up's files (inputs and outputs of every trial) in ``workdir``."""
        self.workdir = workdir

    def capture_solves(self) -> None:
        """Keep each in-memory solve's graph and result for the checks.

        srpc.solver.solve is looked up by name on every call from the CLI
        and the harness, so rebinding it here sees every solve.
        """
        original = self._original_solve = srpc.solver.solve

        def solve(graph, k, p, cfg, counters=None):
            result = original(graph, k, p, cfg, counters)
            # A copy: the CLI pops wall_times from the stats after solve returns.
            self._captured.append((graph, k, [e.vertices for e in result.entries],
                                   dict(result.stats)))
            return result
        srpc.solver.solve = solve

    def release(self) -> None:
        if self._original_solve is not None:
            srpc.solver.solve = self._original_solve
            self._original_solve = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # -- one trial -----------------------------------------------------
    def trial(self, seeds: tuple[int, int], tracer=None) -> Outcome:
        self._captured.clear()
        cpu0 = time.process_time()
        out = self.run(seeds, tracer)
        out.cpu_seconds = time.process_time() - cpu0
        out.seed = seeds[0]
        out.solves = [(graph.signs > 0, k, entries, stats)
                      for graph, k, entries, stats in self._captured]
        self._captured.clear()
        return out

    def run(self, seeds, tracer) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> None:
        """Raise CheckFailed when an output is wrong."""
        for adj, k, entries, stats in out.solves:
            check_cliques(adj, entries, k)
            check_oracle_arithmetic(stats)

    def working_set(self, l3_bytes: int | None) -> dict:
        """Computed sizes of the n x n arrays this workload's solver touches."""
        return working_set(self.p["n"], l3_bytes)


def check_oracle_arithmetic(stats: dict) -> None:
    """The candidate stage makes ceil(rounds / floor(n / reps)) oracle calls.

    Each call multiplies n rows, which hold floor(n / reps) whole rounds.
    """
    cfg = stats["config"]
    expected = math.ceil(stats["rounds"] / (stats["n"] // cfg["reps"]))
    got = stats["oracle_calls"]["candidate"]
    require(got == expected, f"candidate oracle calls {got} != ceil(rounds/(n//t)) = {expected}")


class CliErN2000(Workload):
    name = "cli-er-n2000"
    why = ("srpc generate -> solve -> evaluate through files at n=2000, k=360, p=1/2: "
           "graph I/O, the packed-popcount sign oracle and the evaluation replay")
    params = {"n": 2000, "k": 360}
    smoke_params = {"n": 200, "k": 120}

    def run(self, seeds, tracer):
        n, k = self.p["n"], self.p["k"]
        graph, meta = self.path("g.txt"), self.path("g.meta")
        solve_doc, timings, eval_doc = (self.path("solve.json"), self.path("timings.json"),
                                        self.path("eval.json"))
        out = Outcome()
        t0 = time.perf_counter()
        out.phases["generate"] = invoke(
            ["generate", "--n", n, "--k", k, "--p", "0.5", "--adversary", "erdos_renyi",
             "--seed", seeds[0], "--out-graph", graph, "--out-meta", meta],
            "cli.generate", tracer)
        out.phases["solve"] = invoke(
            ["solve", "--graph", graph, "--k", k, "--p", "0.5", "--order", "3", "--reps", "1",
             "--rounds-const", "10", "--seed", seeds[1], "--backend", "naive",
             "--out", solve_doc, "--timings", timings],
            "cli.solve", tracer)
        # Only evaluate reads the planted-set sidecar.
        out.phases["evaluate"] = invoke(
            ["evaluate", "--graph", graph, "--meta", meta, "--result", solve_doc,
             "--out", eval_doc], "cli.evaluate", tracer)
        out.seconds = time.perf_counter() - t0
        out.docs = {name: _read(path) for name, path in
                    (("graph", graph), ("meta", meta), ("solve", solve_doc),
                     ("evaluate", eval_doc))}
        out.stages = json.loads(_read(timings))
        return out

    def check(self, out):
        super().check(out)
        solve = json.loads(out.docs["solve"])
        report = json.loads(out.docs["evaluate"])
        entries = [e["vertices"] for e in solve["cliques"]]
        check_cliques(read_graph_file(self.path("g.txt")), entries, self.p["k"])
        require(report["all_entries_valid_cliques"] is True,
                "evaluate reports an entry that is not a valid clique")
        require(report["list_size"] == len(entries), "evaluate list size differs from solve")
        out.recovered, out.attempts = int(report["recovered"]), 1
        out.list_sizes = [len(entries)]


class RiplabOpnorm(Workload):
    name = "riplab-opnorm"
    why = ("srpc rip opnorm (exhaustive and sampled), deviation and exhaustive isotropy: "
           "the RIP lab and batched power iteration, no graph code")
    # The exhaustive opnorm runs at r=2, where the benchmark knows the answer in closed form.
    params = {"k": 12, "t": 3, "q": 256, "r_smp": 8, "smp_trials": 20000,
              "q_dev": 512, "r_dev": 16, "dev_trials": 10000,
              "iso": (6, 3), "iso_pb": (5, 2)}
    smoke_params = {"k": 8, "t": 3, "q": 64, "r_smp": 4, "smp_trials": 200,
                    "q_dev": 64, "r_dev": 4, "dev_trials": 200,
                    "iso": (5, 3), "iso_pb": (4, 2)}

    def run(self, seeds, tracer):
        p, seed = self.p, seeds[0]
        shape = ["--k", p["k"], "--t", p["t"]]
        out = Outcome()
        t0 = time.perf_counter()
        invoke(["rip", "opnorm", *shape, "--q", p["q"], "--r", 2, "--seed", seed,
                "--out", self.path("exhaustive.json")], "cli.rip-opnorm", tracer)
        invoke(["rip", "opnorm", *shape, "--q", p["q"], "--r", p["r_smp"], "--method",
                "sampled", "--trials", p["smp_trials"], "--seed", seed,
                "--out", self.path("sampled.json")], "cli.rip-opnorm", tracer)
        invoke(["rip", "deviation", *shape, "--q", p["q_dev"], "--r", p["r_dev"],
                "--trials", p["dev_trials"], "--seed", seed,
                "--out", self.path("deviation.json")], "cli.rip-deviation", tracer)
        k, t = p["iso"]
        invoke(["rip", "isotropy", "--k", k, "--t", t, "--q", 4, "--mode", "exhaustive",
                "--out", self.path("iso-rademacher.json")], "cli.rip-isotropy", tracer)
        k, t = p["iso_pb"]
        invoke(["rip", "isotropy", "--k", k, "--t", t, "--q", 4, "--base", "pbiased",
                "--p", "4/5", "--mode", "exhaustive", "--out", self.path("iso-pbiased.json")],
               "cli.rip-isotropy", tracer)
        out.seconds = time.perf_counter() - t0
        out.docs = {name: _read(self.path(name + ".json")) for name in
                    ("exhaustive", "sampled", "deviation", "iso-rademacher", "iso-pbiased")}
        return out

    def check(self, out):
        p = self.p
        h = riplab.build_tensored(p["k"], p["t"], p["q"], riplab.RademacherBase(), out.seed)
        mat = h.values / np.sqrt(p["q"])
        exhaustive = json.loads(out.docs["exhaustive"])
        check_witness(mat, exhaustive)
        require(exhaustive["supports_checked"] == math.comb(len(h.columns), 2),
                "exhaustive opnorm skipped supports")
        best = max_pair_opnorm(mat)
        require(abs(best - exhaustive["value"]) <= 1e-6 * max(best, 1.0),
                f"exhaustive opnorm {exhaustive['value']} != closed-form max {best}")
        sampled = json.loads(out.docs["sampled"])
        check_witness(mat, sampled)
        require(sampled["supports_checked"] == p["smp_trials"], "sampled opnorm trial count")
        deviation = json.loads(out.docs["deviation"])["deviation"]
        require(math.isfinite(deviation) and deviation >= 0, f"bad deviation {deviation}")
        for name in ("iso-rademacher", "iso-pbiased"):
            report = json.loads(out.docs[name])
            require(report["ok"] is True and report["exact"] is True,
                    f"exhaustive isotropy report {name} is not ok")

    def working_set(self, l3_bytes):
        """Computed size of the largest float64 tensored matrix."""
        p = self.p
        size = 8 * max(p["q"], p["q_dev"]) * math.comb(p["k"], p["t"])
        out = {"label": "computed", "tensored_float64_bytes": size}
        if l3_bytes:
            out["fits_l3"] = size <= l3_bytes
        return out


WORKLOADS = {w.name: w for w in (CliErN2000, RiplabOpnorm)}
