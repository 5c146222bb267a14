"""Self-tests for the benchmark, at smoke size.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root (srpc is imported from ./src).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import srpc.solver  # noqa: E402
from srpc.cliquelist import CliqueEntry, CliqueList  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name: str, trace: bool, tmp_path) -> dict:
    return run.Run(name, seed=7, seconds=0, trace=trace, smoke=True,
                   out_dir=str(tmp_path)).execute()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(name, tmp_path):
    result = smoke(name, False, tmp_path)
    assert result["failures"] == []
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == expected
    assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_emits_every_per_layer_metric(name, tmp_path):
    result = smoke(name, True, tmp_path)
    assert result["failures"] == []
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in result["metrics"].items()} == expected
    assert (tmp_path / f"{name}-seed7-trace1-spans.jsonl").is_file()


def test_benchmark_json_names_every_workload_and_layer_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layer_names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(layers.UNITS) <= layer_names


def test_non_clique_entry_fails_the_trial(tmp_path, monkeypatch):
    original = srpc.solver.solve

    def solve_with_bogus_entry(graph, k, p, cfg, counters=None):
        result = original(graph, k, p, cfg, counters)
        # k vertices including 0 and one of its non-neighbours: not a clique.
        stranger = int((graph.signs[0] < 0).nonzero()[0][0])
        rest = [v for v in range(1, graph.n) if v != stranger][:k - 2]
        bogus = CliqueEntry(tuple([0, stranger] + rest))
        return CliqueList(result.entries + [bogus], result.stats)

    monkeypatch.setattr(srpc.solver, "solve", solve_with_bogus_entry)
    bench = run.Run("cli-er-n2000", seed=7, seconds=0, trace=False, smoke=True,
                    out_dir=str(tmp_path))
    bench.out_dir.mkdir(exist_ok=True)
    bench.workload.prepare(str(tmp_path))
    bench.one_trial(0, (11, 12))
    assert len(bench.failures) == 1
    assert "is not a clique" in bench.records[0]["failure"]


def test_speed_probe_scales_by_the_units_around_the_work():
    probe = speed.SpeedProbe()
    probe.samples = [0.02]
    unit, ref = probe.scaled(3.0)
    assert unit == pytest.approx((0.02 + probe.samples[-1]) / 2)
    assert ref == pytest.approx(3.0 * speed.REF_UNIT_S / unit)
    assert len(probe.samples) == 2
