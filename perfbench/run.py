"""srpc benchmark: one workload, one seed, a closed loop of trials.

    python3 perfbench/run.py --workload cli-er-n2000 --seed 1 --seconds 20 --trace 0

Run from the repository root; srpc is imported from ./src.  Human-readable
lines go first and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones from a traced run.
Per-run records and spans are written under ./.perfbench_out/.

OpenBLAS runs one thread, so the benchmark keeps to one core of the
shared host and leaves the other to the rest of the machine.  Times are
reported at a reference machine speed, measured by the probe in speed.py.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 5
MIN_TRIALS = 2  # the first seed always runs twice, for the byte-identical check
OUT_DIR = ".perfbench_out"


def _import_srpc() -> None:
    """Import srpc from ./src, never from anywhere else."""
    src = Path.cwd() / "src"
    if not (src / "srpc" / "__init__.py").is_file():
        raise ImportError(f"srpc sources not found under {src}")
    sys.path.insert(0, str(src))
    import srpc.cli
    if not Path(srpc.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"srpc was imported from {srpc.cli.__file__}, not {src}")


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import numpy and srpc from the same sources."""
    import srpc
    src = str(Path(srpc.__file__).resolve().parent.parent)
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import numpy, srpc.cli; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def trial_seeds(seed: int, workload_index: int, trial: int) -> tuple[int, int]:
    """(instance seed, solver seed) of one trial; trial 1 repeats trial 0's seeds."""
    import numpy as np
    ss = np.random.SeedSequence(seed, spawn_key=(workload_index, max(trial - 1, 0)))
    a, b = (int(x) % 2**31 for x in ss.generate_state(2))
    return a, b


class Run:
    """One benchmark run: set-up, closed-loop trials, checks, metrics."""

    def __init__(self, workload_name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, out_dir: str = OUT_DIR):
        import workloads
        self.names = list(workloads.WORKLOADS)
        self.workload = workloads.WORKLOADS[workload_name](smoke=smoke)
        self.seed, self.seconds, self.trace, self.smoke = seed, seconds, trace, smoke
        self.out_dir = Path(out_dir)
        self.records: list[dict] = []
        self.failures: list[str] = []
        self._first_docs = None
        self._workdirs: list[str] = []
        from speed import SpeedProbe
        self.probe = SpeedProbe()

    # -- set-up --------------------------------------------------------
    def setup_once(self) -> float:
        """Imports (in a fresh interpreter), temp dir and one small warm-up trial.

        Seconds at the reference speed.
        """
        import workloads
        imports = fresh_import_s()
        t0 = time.perf_counter()
        workdir = tempfile.mkdtemp(prefix="run-", dir=self.out_dir)
        self._workdirs.append(workdir)
        self.workload.prepare(workdir)
        warm = workloads.WORKLOADS[self.workload.name](smoke=True)
        warm.prepare(workdir)
        warm.capture_solves()
        try:
            warm.check(warm.trial((1, 2)))
        finally:
            warm.release()
        return self.probe.scaled(imports + time.perf_counter() - t0)[1]

    # -- trials --------------------------------------------------------
    def one_trial(self, index: int, seeds, tracer=None) -> None:
        from checks import CheckFailed
        record = {"trial": index, "seeds": list(seeds), "traced": tracer is not None}
        try:
            if tracer is not None:
                with tracer.trial_span(index):
                    out = self.workload.trial(seeds, tracer)
            else:
                out = self.workload.trial(seeds)
            record["seconds"] = out.seconds
            record["unit_s"], record["ref_seconds"] = self.probe.scaled(out.seconds)
            record["cpu_seconds"] = out.cpu_seconds
            record["phases"] = out.phases
            record["stages"] = out.stages
            self.workload.check(out)
            self._check_repeat(index, out)
        except CheckFailed as exc:
            record["failure"] = f"check: {exc}"
        except Exception as exc:  # a command that raises is a failed trial
            record["failure"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc()
        else:
            record.update(recovered=out.recovered, attempts=out.attempts,
                          list_sizes=out.list_sizes)
        if "failure" in record:
            self.failures.append(f"trial {index}: {record['failure']}")
        self.records.append(record)

    def _check_repeat(self, index: int, out) -> None:
        from checks import require
        if index == 0:
            self._first_docs = out.docs
        elif index == 1 and self._first_docs is not None:
            for name, data in out.docs.items():
                require(data == self._first_docs.get(name),
                        f"{name} output differs between two runs of one seed")

    def measure(self):
        """Closed loop until the time is up; the tracer when the run is traced."""
        import layers
        from tracing import Tracer
        index = self.names.index(self.workload.name)
        tracer = None
        t_start = time.perf_counter()
        i = 0
        try:
            while i < MIN_TRIALS or time.perf_counter() - t_start < self.seconds:
                if self.trace and i == 1:  # trial 0 runs untraced, for the overhead figure
                    tracer = Tracer()
                    layers.install(tracer)
                self.one_trial(i, trial_seeds(self.seed, index, i), tracer)
                i += 1
        finally:
            if tracer is not None:
                tracer.unpatch()
        return tracer

    # -- whole run -----------------------------------------------------
    def execute(self) -> dict:
        from envinfo import environment
        self.out_dir.mkdir(exist_ok=True)
        env = environment()
        try:
            self.probe.sample()
            setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
            setup_s = statistics.median(setups)
            self.workload.capture_solves()
            try:
                traced = self.measure()
            finally:
                self.workload.release()
        finally:
            for workdir in self._workdirs:
                shutil.rmtree(workdir, ignore_errors=True)
        tag = f"{self.workload.name}-seed{self.seed}-trace{int(self.trace)}"
        result = {"workload": self.workload.name, "seed": self.seed, "trace": self.trace,
                  "smoke": self.smoke, "environment": env,
                  "working_set": self.workload.working_set(env["l3_bytes"]),
                  "setup_repeats_ref_s": setups, "probe_unit_s": self.probe.samples,
                  "trials": self.records}
        if traced is None:
            metrics = self.end_to_end(setup_s)
        else:
            metrics = self.per_layer(traced)
            traced.write(self.out_dir / f"{tag}-spans.jsonl")
        result["metrics"] = metrics
        result["failures"] = self.failures
        with open(self.out_dir / f"{tag}.json", "w") as fh:
            json.dump(result, fh, indent=1, default=str)
        return result

    def _times(self, traced: bool | None = None) -> list[float]:
        """Trial seconds at the reference speed."""
        return [r["ref_seconds"] for r in self._ok(traced)]

    def _ok(self, traced: bool | None = None) -> list[dict]:
        return [r for r in self.records if "failure" not in r
                and (traced is None or r["traced"] == traced)]

    def end_to_end(self, setup_s: float) -> dict:
        times = self._times()
        return {
            "setup_s": (setup_s, "s"),
            "trial_s": (statistics.median(times) if times else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self, tracer) -> dict:
        import layers
        traced = self._ok(traced=True)
        medians, per_trial, problems = layers.per_layer(tracer, [r["trial"] for r in traced])
        for record in traced:
            record["layers"] = per_trial[record["trial"]]
        for tid, msg in problems:  # a cost-model mismatch fails its trial
            record = next(r for r in self.records if r["trial"] == tid)
            record.setdefault("failure", msg)
            self.failures.append(f"trial {tid}: {msg}")
        traced = self._ok(traced=True)
        metrics = {name: (value, layers.UNITS[name]) for name, value in medians.items()}
        for phase in ("generate", "solve", "evaluate"):
            vals = [r["phases"][phase] for r in traced if phase in r["phases"]]
            metrics[f"{phase}_s"] = (statistics.median(vals) if vals else 0.0, "s")
        attempts = sum(r["attempts"] for r in traced)
        metrics["recovery_rate"] = (sum(r["recovered"] for r in traced) / attempts
                                    if attempts else 0.0, "ratio")
        metrics["list_size_max"] = (max((n for r in traced for n in r["list_sizes"]),
                                        default=0), "count")
        untraced, traced_s = self._times(False), self._times(True)
        overhead = (statistics.median(traced_s) - statistics.median(untraced)
                    if untraced and traced_s else 0.0)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / statistics.median(untraced)
                                           if untraced else 0.0, "ratio")
        return metrics


def report(result: dict) -> None:
    """Human-readable lines; the JSON line follows them."""
    import speed
    env, ws = result["environment"], result["working_set"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
          f"  closed loop, 1 client")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("working set (computed): " + ", ".join(f"{k}={v}" for k, v in ws.items()))
    ok = [r for r in result["trials"] if "failure" not in r]
    times = sorted(r["seconds"] for r in ok)
    if times:
        print(f"trials: {len(result['trials'])} attempted, {len(ok)} ok; trial seconds "
              f"min {times[0]:.3f} median {statistics.median(times):.3f} max {times[-1]:.3f}; "
              f"process CPU seconds median "
              f"{statistics.median(r['cpu_seconds'] for r in ok):.3f}")
        print(f"speed probe: unit median {statistics.median(result['probe_unit_s']):.4f} s "
              f"(reference {speed.REF_UNIT_S} s); trial seconds at the reference speed "
              f"median {statistics.median(r['ref_seconds'] for r in ok):.3f}")
    for phase in ("generate", "solve", "evaluate"):
        vals = [r["phases"][phase] for r in ok if phase in r.get("phases", {})]
        if vals:
            print(f"  {phase}: median {statistics.median(vals):.3f} s over {len(vals)}")
    for stage in ("candidate", "refine", "verify", "prune"):
        vals = [r["stages"][stage] for r in ok if stage in r.get("stages", {})]
        if vals:
            print(f"  solve stage {stage} (program's --timings): "
                  f"median {statistics.median(vals):.3f} s")
    attempts = sum(r["attempts"] for r in ok)
    if attempts:
        print(f"  recovered {sum(r['recovered'] for r in ok)}/{attempts} planted sets; "
              f"largest list {max(n for r in ok for n in r['list_sizes'])}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_srpc()
    except ImportError as exc:
        print(f"perfbench: cannot import srpc: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    report(result)
    attempted = len(result["trials"])
    failed = sum(1 for r in result["trials"] if "failure" in r)
    print(json.dumps({"correct": failed == 0 and not result["failures"],
                      "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
