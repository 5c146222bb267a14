import hashlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from srpc import (CliqueList, PruneParams, SolverConfig, generate, harness, prune_naive,
                  read_instance, riplab, strategy_erdos_renyi, write_instance)
from srpc.cli import cli, main
from srpc.harness import report_json
from srpc.solver import iter_round_members


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_generate_solve_evaluate_pipeline(runner, tmp_path):
    g = tmp_path / "graph.txt"
    meta = tmp_path / "meta.txt"
    out = tmp_path / "solve.json"
    ev = tmp_path / "eval.json"
    invoke(runner, ["generate", "--n", "200", "--k", "70", "--p", "0.5",
                    "--seed", "3", "--out-graph", str(g), "--out-meta", str(meta)])
    assert g.read_text().startswith("srpc-graph v1 n=200")
    invoke(runner, ["solve", "--graph", str(g), "--k", "70", "--p", "0.5",
                    "--order", "3", "--seed", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["format"] == "srpc-solve v1"
    assert len(doc["cliques"]) == 1
    invoke(runner, ["evaluate", "--graph", str(g), "--meta", str(meta),
                    "--result", str(out), "--out", str(ev)])
    ev_doc = json.loads(ev.read_text())
    assert ev_doc["recovered"] is True


def test_evaluate_replays_at_the_solve_p(runner, tmp_path):
    # An instance drawn at p = 0.3 but solved at p = 0.5: the spurious-membership
    # replay must rerun the solve's own rounds, at its k and p.
    g, meta, out, ev = (tmp_path / name for name in ("g.txt", "m.txt", "s.json", "e.json"))
    invoke(runner, ["generate", "--n", "300", "--k", "120", "--p", "0.3", "--seed", "1",
                    "--out-graph", str(g), "--out-meta", str(meta)])
    invoke(runner, ["solve", "--graph", str(g), "--k", "120", "--p", "0.5", "--seed", "2",
                    "--out", str(out)])
    invoke(runner, ["evaluate", "--graph", str(g), "--meta", str(meta),
                    "--result", str(out), "--out", str(ev)])
    inst = read_instance(g, meta)
    cfg = SolverConfig.from_dict(json.loads(out.read_text())["stats"]["config"])
    outside = np.ones(300, dtype=bool)
    outside[list(inst.planted)] = False

    def replay(p):
        return max(int((members & outside).sum(axis=1).max(initial=0))
                   for _, members in iter_round_members(inst.graph, 120, p, cfg))
    assert json.loads(ev.read_text())["max_spurious"] == replay(0.5) == 2
    assert replay(0.3) == 1  # a replay at the instance's p reads otherwise


def test_solve_output_has_no_wall_times(runner, tmp_path):
    g, meta, out = tmp_path / "g.txt", tmp_path / "m.txt", tmp_path / "s.json"
    invoke(runner, ["generate", "--n", "60", "--k", "60", "--seed", "1",
                    "--out-graph", str(g), "--out-meta", str(meta)])
    invoke(runner, ["solve", "--graph", str(g), "--k", "60", "--seed", "2",
                    "--out", str(out), "--timings", str(tmp_path / "t.json")])
    doc = json.loads(out.read_text())
    assert "wall_times" not in doc["stats"] and "oracle_seconds" not in doc["stats"]
    timings = json.loads((tmp_path / "t.json").read_text())
    stages = {"candidate", "refine", "verify", "prune"}
    assert set(timings) == stages | {"oracle_seconds"}
    assert set(timings["oracle_seconds"]) == stages
    assert all(seconds >= 0 for seconds in timings["oracle_seconds"].values())


# (adversary, extra generate flags, n, k, p, order, reps, seed): generate at the
# seed, solve at seed + 1, prune at the instance's n and p, evaluate the solve.
# SHA-256 of the solve, prune and evaluate documents.
GOLDEN_DOCUMENTS = [
    (("erdos_renyi", [], 150, 50, 0.5, 3, 1, 11),
     "2a48531e80a1270e5b3502ed1afca5234c499c57a399aa6f598c042a50c94ddc",
     "ff07cebcf685fea491f6cb1012aac89ee2ad1ca3467a815f242fb18c6f25e1c0",
     "2557de826a7b41e25a97f58454b35d0fe952049eb7fc5f542d8a90776c693abc"),
    (("erdos_renyi", [], 150, 50, 0.5, 1, 2, 12),
     "0ba4b3b4f5d76c1bd80406f5cea7303370d88bef542c95dc77d226046e49b567",
     "1f68e634fe7905b5095a831766f38ee6b8262eb3d33711c316bdb04598457d20",
     "c177b1589b775fec076a53dd9edaf24f25b1733f5e9c93cd172abb55356087ea"),
    (("erdos_renyi", [], 300, 120, 0.3, 2, 1, 13),
     "2cf66972a01155b6d30887bb4cc97f72d57aa1cf55ad65d6df4e370095639bc4",
     "a81b2dc673eddf5923f6bd80a4469167fad43e98b8e0e09775493f0725d208fd",
     "2cdecb9b8e0dd12e62e29c01d144c92373824be7eca41d643d3f5117ba184a32"),
    (("clique_union", [], 300, 100, 0.7, 1, 2, 14),
     "c673df815e2059203c4279556987e2aaf685e09fdc65cdc4086c39adee70b634",
     "332717e9211ca862fcb3715ecac9eceefd969edcb6259fbb117f74d1e224482a",
     "5263bb45ab91d587afb653b865291f41dd760a2eabb9fc82094aad64fe7a7893"),
    (("clique_union", [], 300, 100, 0.7, 3, 1, 15),
     "0c628be637dc16f535dfbdbc1429e2643d7a8c0a53db75a8c4f6e8edc776ebf6",
     "16998a431319db6140df24ef06eb5d66978b8d3b9c53bf0878fb1597bf164689",
     "b4c1fb0209b38fb0b5688d19a19431c1a743b692276292d0d35eb7cb32697ed0"),
    (("majority", ["--m", 5], 120, 24, 0.5, 2, 2, 16),
     "a5db60898aa6a46e08ff90bd6fb24e6f3220325836bf52ae4f107d8c30fc84d8",
     "332717e9211ca862fcb3715ecac9eceefd969edcb6259fbb117f74d1e224482a",
     "8a30fc97a6dfdaf3256e4559fa2d892d46a3beb76bac33e05526b668db15cd91"),
]


def generate_and_solve(runner, case, g, m, s):
    adversary, flags, n, k, p, order, reps, seed = case
    for args in (["generate", "--n", n, "--k", k, "--p", p, "--adversary", adversary, *flags,
                  "--seed", seed, "--out-graph", g, "--out-meta", m],
                 ["solve", "--graph", g, "--k", k, "--p", p, "--order", order, "--reps", reps,
                  "--seed", seed + 1, "--out", s]):
        invoke(runner, [str(a) for a in args])


@pytest.mark.parametrize("case, solve_digest, prune_digest, eval_digest", GOLDEN_DOCUMENTS,
                         ids=[f"{c[0][0]}-p{c[0][4]}-order{c[0][5]}-reps{c[0][6]}"
                              for c in GOLDEN_DOCUMENTS])
def test_cli_documents_match_golden_digests(runner, tmp_path, case, solve_digest,
                                            prune_digest, eval_digest):
    g, m, s, pr, ev = (str(tmp_path / name) for name in ("g", "m", "s", "pr", "ev"))
    generate_and_solve(runner, case, g, m, s)
    n, p = case[2], case[4]
    for args in (["prune", "--list", s, "--n", n, "--p", p, "--out", pr],
                 ["evaluate", "--graph", g, "--meta", m, "--result", s, "--out", ev]):
        invoke(runner, [str(a) for a in args])
    digests = [hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in (s, pr, ev)]
    assert digests == [solve_digest, prune_digest, eval_digest]


def test_solve_document_with_an_old_backend_key_evaluates_the_same(runner, tmp_path):
    # solve documents once echoed a multiplication backend in stats.config
    case, _, _, eval_digest = next(c for c in GOLDEN_DOCUMENTS if c[0][4] == 0.3)
    g, m, s, old = (str(tmp_path / name) for name in ("g", "m", "s", "old"))
    generate_and_solve(runner, case, g, m, s)
    doc = json.loads(Path(s).read_text())
    doc["stats"]["config"]["backend"] = "blocked"
    Path(old).write_text(json.dumps(doc))
    scored = []
    for path in (s, old):
        invoke(runner, ["evaluate", "--graph", g, "--meta", m, "--result", path,
                        "--out", path + ".ev"])
        scored.append(Path(path + ".ev").read_bytes())
    assert scored[0] == scored[1]
    assert hashlib.sha256(scored[0]).hexdigest() == eval_digest


def test_solve_document_bytes_do_not_depend_on_timings(runner, tmp_path):
    g, meta = tmp_path / "g.txt", tmp_path / "m.txt"
    invoke(runner, ["generate", "--n", "80", "--k", "40", "--seed", "3",
                    "--out-graph", str(g), "--out-meta", str(meta)])
    docs = []
    # --backend naive, the one value it accepts, changes no byte either
    for extra in ([], ["--timings", str(tmp_path / "t.json")], ["--backend", "naive"]):
        out = tmp_path / f"s{len(docs)}.json"
        invoke(runner, ["solve", "--graph", str(g), "--k", "40", "--seed", "4",
                        "--out", str(out), *extra])
        docs.append(out.read_bytes())
    assert docs[0] == docs[1] == docs[2]
    assert set(json.loads(docs[0])["stats"]) == {
        "n", "k", "p", "config", "rounds", "threshold", "rounds_index_not_clique",
        "rounds_nonempty", "rounds_short_skipped", "raw_size_max", "distinct_raw",
        "refined_size_max", "distinct_refined", "closure_added_max", "rounds_accepted",
        "accepted_distinct", "pruned_size", "prune", "oracle_calls", "madds"}


def test_prune_command_matches_prune_naive(runner, tmp_path):
    doc = {"cliques": [{"vertices": list(range(10)), "alphas": []},
                       {"vertices": list(range(4, 14)), "alphas": []},
                       {"vertices": list(range(20, 30)), "alphas": []}]}
    src = tmp_path / "list.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "pruned.json"
    # p = 0.01 gives Delta = 2 < |overlap| = 6 so the filter is active
    invoke(runner, ["prune", "--list", str(src), "--n", "64", "--p", "0.01", "--out", str(out)])
    reference = prune_naive(CliqueList.from_dict(doc), PruneParams.for_model(64, 0.01)).to_dict()
    assert out.read_text() == report_json(dict(reference, format="srpc-prune v1"))
    kept = [tuple(c["vertices"]) for c in reference["cliques"]]
    assert kept == [tuple(range(20, 30))]  # the overlapping pair removed itself


def test_grid_command(runner, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "ns": [40], "k_rules": ["40"], "ps": [0.5],
        "solvers": [{"order": 3}], "adversaries": [{"name": "erdos_renyi"}],
        "trials": 2, "seed": 5}))
    out_csv = tmp_path / "grid.csv"
    invoke(runner, ["grid", "--config", str(config), "--out-csv", str(out_csv),
                    "--out-config", str(tmp_path / "echo.json")])
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("cell,n,k_rule,k,p,adversary")
    assert len(lines) == 2
    assert ",1.0," in lines[1]  # n = k cell always recovers


def test_adversary_demo_command(runner, tmp_path):
    out = tmp_path / "demo.json"
    invoke(runner, ["adversary-demo", "--n", "64", "--k", "16", "--m", "1",
                    "--seed", "7", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["min_correlation"] == 64


def test_rip_subcommands(runner, tmp_path):
    out = tmp_path / "r.json"
    invoke(runner, ["rip", "build", "--k", "6", "--t", "3", "--q", "32",
                    "--seed", "1", "--out", str(out)])
    assert json.loads(out.read_text())["columns"] == 20

    invoke(runner, ["rip", "isotropy", "--k", "6", "--t", "3", "--q", "4",
                    "--mode", "exhaustive", "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["exact"] is True

    # C(40, 3) = 9880 columns: the exact check reads one column pair per overlap class
    invoke(runner, ["rip", "isotropy", "--k", "40", "--t", "3", "--q", "4",
                    "--mode", "exhaustive", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["exact"] is True
    assert (doc["max_abs_mean"], doc["max_abs_cross"], doc["max_diag_err"]) == (0, 0, 0)

    invoke(runner, ["rip", "isotropy", "--k", "5", "--t", "2", "--q", "4",
                    "--base", "pbiased", "--p", "4/5", "--mode", "exhaustive",
                    "--seed", "1", "--out", str(out)])
    assert json.loads(out.read_text())["ok"] is True

    invoke(runner, ["rip", "opnorm", "--k", "6", "--t", "2", "--q", "64",
                    "--r", "2", "--seed", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["method"] == "exhaustive" and doc["value"] >= 1.0

    invoke(runner, ["rip", "deviation", "--k", "6", "--t", "2", "--q", "64",
                    "--r", "1", "--trials", "50", "--seed", "3", "--out", str(out)])
    assert json.loads(out.read_text())["deviation"] == 0.0

    invoke(runner, ["rip", "corrcount", "--k", "6", "--t", "2", "--q", "32",
                    "--tau", "0.2", "--seed", "4", "--out", str(out)])
    assert json.loads(out.read_text())["count"] >= 0


def test_rip_documents_name_the_matrix_they_came_from(runner, tmp_path):
    # exhaustive isotropy is exact for every isotropic shape, so only the shape
    # fields tell two such documents apart
    docs = []
    for k, t in ((6, 3), (7, 2)):
        out = tmp_path / f"iso-{k}-{t}.json"
        invoke(runner, ["rip", "isotropy", "--k", str(k), "--t", str(t), "--q", "4",
                        "--mode", "exhaustive", "--out", str(out)])
        docs.append(out.read_bytes())
    assert docs[0] != docs[1]
    shape = {"k": 6, "t": 3, "q": 4, "base": "rademacher", "p": "1/2", "seed": 0}
    assert json.loads(docs[0]).items() >= shape.items()
    out = tmp_path / "build.json"
    invoke(runner, ["rip", "build", "--k", "5", "--t", "2", "--q", "8", "--base", "pbiased",
                    "--p", "0.8", "--seed", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc == {"format": "srpc-rip-build v1", "k": 5, "t": 2, "q": 8, "base": "pbiased",
                   "p": "4/5", "seed": 3, "columns": 10, "entry_bound": 4.0}


def test_bench_command(runner, tmp_path):
    out = tmp_path / "bench.json"
    invoke(runner, ["bench", "--sizes", "16,33", "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert len(doc["cases"]) == 6
    assert all(case["oracle_calls"] == 1 for case in doc["cases"])


# SHA-256 of the rip, adversary-demo and bench documents; the same bytes at
# OPENBLAS_NUM_THREADS 1 and 2.
GOLDEN_REPORTS = [
    (["rip", "build", "--k", 6, "--t", 3, "--q", 32, "--seed", 1],
     "4b9038cc1157c859ee45b04c65e52af83c419cb2e928798b00d7fc6d16444fec"),
    (["rip", "isotropy", "--k", 5, "--t", 2, "--q", 4, "--base", "pbiased", "--p", "4/5",
      "--mode", "exhaustive", "--seed", 1],
     "5e84275d90d1a85536defd22a897458e3fe27e934fa496851879e9c64fa71f10"),
    (["rip", "isotropy", "--k", 6, "--t", 2, "--q", 64, "--mode", "sampled", "--seed", 2],
     "4642c9f6b69a516561c332079a4df884921094d0c75f0715bbd98a3ecfa5ceae"),
    (["rip", "opnorm", "--k", 6, "--t", 2, "--q", 64, "--r", 2, "--seed", 2],
     "03953c37630a937fe7434833db7464753f231d959bb0a565c41ce182c895ada6"),
    (["rip", "opnorm", "--k", 8, "--t", 3, "--q", 64, "--r", 4, "--method", "sampled",
      "--trials", 200, "--seed", 3],
     "d6e91768286ace7b1479b9d88e3146cc5e5244cb91078d49a9120185232071ba"),
    (["rip", "deviation", "--k", 6, "--t", 2, "--q", 64, "--r", 3, "--trials", 200,
      "--seed", 3],
     "0e0c2d68e22ae4cee39d478440c39c785f1da3278b5dab066108737290b185df"),
    (["rip", "corrcount", "--k", 6, "--t", 2, "--q", 32, "--tau", 0.2, "--w-seed", 5,
      "--seed", 4],
     "efbb7b2469de5d79df832278a2218c53e85bfdcbf2caf28dbad58e6e4cf80760"),
    (["adversary-demo", "--n", 200, "--k", 60, "--m", 3, "--seed", 1],
     "68d1a022f13681b8542d307c7dcb0ec87d8c0b28f6bd0a89e3de021e5f06eb69"),
    (["bench", "--sizes", "16,33", "--seed", 1],
     "6ad39187d282b4cbb89e2482083207d1d84eb7c36c222497b08e38d8fe225564"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_REPORTS,
                         ids=["rip-build", "rip-isotropy-exhaustive", "rip-isotropy-sampled",
                              "rip-opnorm-exhaustive", "rip-opnorm-sampled", "rip-deviation",
                              "rip-corrcount", "adversary-demo", "bench"])
def test_report_documents_match_golden_digests(runner, tmp_path, args, digest):
    out = tmp_path / "doc.json"
    invoke(runner, [*map(str, args), "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_documents_pass_the_traced_module_functions(runner, tmp_path, monkeypatch):
    # perfbench times report_json and build_tensored by rebinding them on their
    # modules, so every document and every rip matrix must go through one such call.
    calls = Counter()
    for module, name in ((harness, "report_json"), (riplab, "build_tensored")):
        def counted(*args, original=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    g, m, s, t, pr, ev, cfg = (str(tmp_path / name) for name in
                               ("g", "m", "s", "t", "pr", "ev", "cfg.json"))
    Path(cfg).write_text(json.dumps({"ns": [30], "k_rules": ["30"], "trials": 1}))
    rip_shape = [str(a) for a in RIP_SHAPE]
    commands = [  # (arguments, report_json calls, build_tensored calls)
        (["generate", "--n", "60", "--k", "20", "--out-graph", g, "--out-meta", m], 0, 0),
        (["solve", "--graph", g, "--k", "20", "--out", s, "--timings", t], 2, 0),
        (["prune", "--list", s, "--n", "60", "--p", "0.5", "--out", pr], 1, 0),
        (["evaluate", "--graph", g, "--meta", m, "--result", s, "--out", ev], 1, 0),
        (["grid", "--config", cfg, "--out-csv", str(tmp_path / "csv"),
          "--out-config", str(tmp_path / "echo")], 1, 0),
        (["adversary-demo", "--n", "64", "--k", "16", "--m", "1"], 1, 0),
        (["bench", "--sizes", "8"], 1, 0),
        (["rip", "build", *rip_shape], 1, 1),
        (["rip", "isotropy", *rip_shape], 1, 1),
        (["rip", "opnorm", *rip_shape, "--r", "2"], 1, 1),
        (["rip", "deviation", *rip_shape, "--r", "2", "--trials", "20"], 1, 1),
        (["rip", "corrcount", *rip_shape, "--tau", "0.5"], 1, 1),
    ]
    for args, reports, builds in commands:
        calls.clear()
        invoke(runner, args)
        assert (calls["report_json"], calls["build_tensored"]) == (reports, builds), args


@pytest.mark.parametrize("text, line", [
    ("srpc-graph v1 n=4\n0 1\n1 2 3\n", 3),
    ("srpc-graph v1 n=five\n0 1\n", 1),
    ("srpc-graph v1 n=4\n0 x\n", 2),
    ("srpc-graph v1 n=4\n0 1\n0 1\n", 3),
    ("srpc-graph v1 n=4\n0 1\n2 1\n", 3),
    ("srpc-graph v1 n=4\n1 2\n0 3\n", 3),
    ("srpc-graph v1 n=20\n0 1\n1_0 11\n", 3),
    ("srpc-graph v1 n=4\n0 +3\n", 2),
    ("srpc-graph v1 n=4\n0 \u0663\n", 2),
    ("srpc-graph v1 n=4\n0 1\n\n1 4\n", 4),
    ("srpc-graph v1 n=4\n2 2\n", 2),
    ("srpc-graph v1 n=4\n0 1\n99999999999999999999 1\n", 3),
    ("srpc-graph v1 n=4\n0 1\n\udcff 1\n", 3),
    ("srpc-graph v1 n=100000000\n0 1\n", 1),
    ("srpc-graph v1 n=\u0663\n0 1\n", 1),
    ("srpc-graph v1 extra n=3\n0 1\n", 1),
    ("srpc-graph v1 n=3 n=4\n0 1\n", 1),
], ids=["three-fields", "non-integer-n", "non-integer-vertex", "duplicate", "reversed",
        "unsorted", "underscore", "plus-sign", "non-ascii-digit", "out-of-range",
        "self-loop", "past-int64", "not-utf-8", "n-above-limit", "header-non-ascii-n",
        "header-extra-field", "header-repeated-n"])
def test_malformed_graph_file_exits_2(tmp_path, text, line):
    graph = tmp_path / "bad.txt"
    graph.write_bytes(text.encode("utf-8", "surrogateescape"))
    proc = subprocess.run(
        [sys.executable, "-m", "srpc.cli", "solve", "--graph", str(graph),
         "--k", "2", "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"line {line}:" in proc.stderr


@pytest.mark.parametrize("body", ["", "\n \n\t\n"], ids=["empty", "blank-lines"])
def test_graph_file_with_n_zero_exits_2(tmp_path, body):
    graph = tmp_path / "g.txt"
    graph.write_text(f"srpc-graph v1 n=0\n{body}")
    proc = run_cli("solve", "--graph", graph, "--k", 1, "--out", tmp_path / "o")
    assert_input_error(proc)
    assert proc.stderr == "error: n must be >= 1\n"


def test_library_warning_reaches_stderr_as_one_line():
    # Delta = 9 >= k = 5 makes prune vacuous; the warning names no srpc source line
    proc = subprocess.run(
        [sys.executable, "-m", "srpc.cli", "adversary-demo", "--n", "10", "--k", "5", "--m", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("warning: intersection threshold 9 >= smallest clique size 5; "
                           "pruning is vacuous\n"), proc.stderr


def test_exit_codes_via_subprocess(tmp_path):
    # parameter error -> 2
    proc = subprocess.run(
        [sys.executable, "-m", "srpc.cli", "generate", "--n", "5", "--k", "9",
         "--out-graph", str(tmp_path / "g"), "--out-meta", str(tmp_path / "m")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    # missing file -> 3
    proc = subprocess.run(
        [sys.executable, "-m", "srpc.cli", "solve", "--graph",
         str(tmp_path / "missing.txt"), "--k", "5", "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 3
    # bad usage -> 2
    proc = subprocess.run([sys.executable, "-m", "srpc.cli", "solve"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def run_cli(*args):
    """``python -m srpc.cli *args`` run in this process, as a CompletedProcess.

    main() runs with its own argv, captured stdout and stderr, and numpy's
    error state and the warnings filters restored afterwards; its SystemExit
    becomes the return code.  An exception that escapes main() fails the test.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = ["srpc", *map(str, args)]
    with mock.patch.object(sys, "argv", argv), redirect_stdout(out), redirect_stderr(err), \
            np.errstate(), warnings.catch_warnings():
        try:
            main()
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def assert_input_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_bad_solver_setting_exits_2_before_the_graph_is_read(tmp_path):
    proc = run_cli("solve", "--graph", tmp_path / "missing.txt", "--k", 5, "--reps", 0,
                   "--out", tmp_path / "o")
    assert_input_error(proc)
    assert "reps must be" in proc.stderr, proc.stderr


@pytest.mark.parametrize("const", ["3", "10"])
def test_rounds_const_with_rounds_exits_2_before_the_graph_is_read(tmp_path, const):
    # --rounds sets the round count, so a --rounds-const beside it would go unused;
    # given explicitly, even at its default value, it is refused
    proc = run_cli("solve", "--graph", tmp_path / "missing.txt", "--k", 30, "--rounds", 50,
                   "--rounds-const", const, "--out", tmp_path / "o")
    assert_input_error(proc)
    assert "--rounds-const does not apply with --rounds" in proc.stderr, proc.stderr


@pytest.mark.parametrize("command, args, name", [
    ("solve", ["--graph", "missing.txt", "--k", 0], "k"),
    ("solve", ["--graph", "missing.txt", "--k", 5, "--p", 0], "p"),
    ("prune", ["--list", "missing.json", "--n", 1, "--p", 0.5], "n"),
    ("prune", ["--list", "missing.json", "--n", 10, "--p", 2], "p")],
    ids=["solve-k", "solve-p", "prune-n", "prune-p"])
def test_bad_model_exits_2_before_the_input_is_read(tmp_path, command, args, name):
    proc = run_cli(command, *[tmp_path / a if str(a).startswith("missing") else a
                              for a in args], "--out", tmp_path / "o")
    assert_input_error(proc)
    assert proc.stderr.startswith(f"error: {name} "), proc.stderr


@pytest.fixture
def instance_files(tmp_path):
    graph, meta = tmp_path / "g.txt", tmp_path / "m.txt"
    write_instance(generate(60, 10, 0.5, strategy_erdos_renyi(), seed=5), graph, meta)
    result = tmp_path / "r.json"
    result.write_text('{"cliques": [], "stats": {}}')
    return graph, meta, result


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                   "\u0665\u0666\u0667\u0668\u0669")


@pytest.mark.parametrize("key, edit", [
    ("k", lambda v: None),
    ("k", lambda v: "x"),
    ("p", lambda v: "half"),
    ("planted", lambda v: " ".join(v.split()[:9] + ["999"])),
    ("n", lambda v: "100"),
    ("n", lambda v: "9" * 15),  # checked against the planted set in O(k), not range(n)
    ("planted", lambda v: " ".join(v.split()[:9] + v.split()[:1])),
    ("planted", lambda v: " ".join(v.split()[:9])),
    ("planted", lambda v: " ".join(t[:1] + "_" + t[1:] if t[1:] else t for t in v.split())),
    ("planted", lambda v: v.translate(ARABIC_INDIC_DIGITS)),
    ("planted", lambda v: "+" + v),
    ("k", lambda v: v.translate(ARABIC_INDIC_DIGITS)),
    ("seed", lambda v: "+" + v),
    ("p", lambda v: "nan"),
    ("p", lambda v: "inf"),
    ("p", lambda v: "1.5"),
    ("p", lambda v: v.translate(ARABIC_INDIC_DIGITS)),
    ("adversary", lambda v: v + "\udcff"),  # the byte 0xff, written by surrogateescape
], ids=["missing-k", "non-integer-k", "non-float-p", "planted-out-of-range",
        "n-differs-from-graph", "n-huge", "planted-repeated", "planted-not-size-k",
        "planted-underscore", "planted-non-ascii-digits", "planted-plus-sign",
        "k-non-ascii-digits", "seed-plus-sign", "p-nan", "p-infinite", "p-above-one",
        "p-non-ascii-digits", "adversary-not-utf8"])
def test_malformed_instance_meta_exits_2(instance_files, key, edit):
    graph, meta, result = instance_files
    header, *lines = meta.read_text().splitlines()
    kept = [header]
    for line in lines:
        name, _, value = line.partition(" = ")
        value = edit(value) if name == key else value
        if value is not None:
            kept.append(f"{name} = {value}")
    meta.write_text("\n".join(kept) + "\n", errors="surrogateescape")
    assert_input_error(run_cli("evaluate", "--graph", graph, "--meta", meta,
                               "--result", result))


@pytest.mark.parametrize("extra, message", [
    ("garbage line", "line 9: expected 'key = value', got 'garbage line'"),
    ("seed = 1", "line 9: key 'seed' is given twice"),
], ids=["line-without-separator", "repeated-key"])
def test_strict_instance_meta_exits_2(instance_files, extra, message):
    graph, meta, result = instance_files
    lines = meta.read_text().splitlines()
    assert len(lines) == 7  # header, n, k, p, adversary, seed, planted
    meta.write_text("\n".join(lines + ["", extra]) + "\n")
    proc = run_cli("evaluate", "--graph", graph, "--meta", meta, "--result", result)
    assert_input_error(proc)
    assert proc.stderr == f"error: {meta}: {message}\n"


@pytest.mark.parametrize("bad", ["meta", "result"])
def test_evaluate_refuses_a_bad_sidecar_or_result_before_the_graph_is_read(instance_files,
                                                                          bad):
    # the graph file is missing, so reading it first would exit 3
    graph, meta, result = instance_files
    broken = {"meta": meta, "result": result}[bad]
    broken.write_text("srpc-instance v1\nk = x\n" if bad == "meta" else "not json")
    proc = run_cli("evaluate", "--graph", graph.with_name("missing.txt"), "--meta", meta,
                   "--result", result)
    assert_input_error(proc)
    assert proc.stderr.startswith(f"error: {broken}: "), proc.stderr


@pytest.mark.parametrize("command, text", [
    ("evaluate", "not json"),
    ("evaluate", '{"cliques": [{"alphas": []}]}'),
    ("prune", "{"),
    ("prune", '{"cliques": [{"alphas": []}]}'),
    ("prune", "[1, 2]"),
    ("grid", '{"k_rules": ["8"]}'),
    ("evaluate", '{"cliques": [{"vertices": [0, 60]}]}'),
    ("evaluate", '{"cliques": [{"vertices": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}]}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"reps": 1, "c_rounds": 10.0, '
                 '"seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 7, "reps": 1, '
                 '"c_rounds": 10.0, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": "1", '
                 '"c_rounds": 10.0, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": true, "reps": 1, '
                 '"c_rounds": 10.0, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": "10", "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "threshold": false, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "seed": -1}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": 1e308, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": 1e12, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 2, '
                 '"c_rounds": 10.0, "rounds": 33554433, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"n": 61, "config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"k": 0, "config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"k": 10.5, "config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"p": 1.0, "config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "seed": 0}}}'),
    ("evaluate", '{"cliques": [{"vertices": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, '
                 '9.0]}]}'),
    ("prune", '{"cliques": [{"vertices": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]}, '
              '{"vertices": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]}]}'),
    ("evaluate", '{"cliques": [{"vertices": [1, "a"]}]}'),
    ("prune", '{"cliques": [{"vertices": [1, "a"]}]}'),
    ("evaluate", '{"cliques": [{"vertices": [true, 2]}]}'),
    ("prune", '{"cliques": [3]}'),
    ("prune", '{"cliques": 5}'),
    ("prune", '{"cliques": [{"vertices": [1, 2], "alphas": [1]}]}'),
    ("prune", '{"cliques": [], "stats": [1]}'),
    ("evaluate", '{"cliques": [3]}'),
    ("evaluate", '{"cliques": 5}'),
    ("evaluate", '{"cliques": [{"vertices": [1, 2], "alphas": [1]}]}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "threshold": Infinity, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "threshold": NaN, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "threshold": 1e999, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"rounds": -Infinity}}'),
    ("prune", '{"cliques": [{"vertices": [1, NaN]}]}'),
    ("evaluate", '{"cliques": [], "stats": {"config": {"order": 3, "reps": 1, '
                 '"c_rounds": 10.0, "threshold": 4.0, "seed": 0}}}'),
    ("evaluate", '{"cliques": [], "stats": {"config": [3, 1]}}'),
    ("evaluate", '{"cliques": [], "stats": {"oracle_calls": [1]}}'),
    ("evaluate", '{"cliques": [], "stats": {"oracle_calls": 5}}'),
    ("evaluate", '{"cliques": [], "stats": {"oracle_calls": {"candidate": -1}}}'),
    ("evaluate", '{"cliques": [{"vertices": [1, 2], "alphas": [[1, "a"]]}]}'),
    ("prune", '{"cliques": [{"vertices": [1, 2], "alphas": [[1, "a"]]}]}'),
    ("evaluate", b'{"cliques": [], "stats": {"note": "\xff"}}'),
    ("prune", b'{"cliques": [], "stats": {"note": "\xff"}}'),
    ("grid", b'{"ns": [30], "k_rules": ["10"], "note": "\xff"}'),
], ids=["evaluate-not-json", "evaluate-no-vertices", "prune-not-json",
        "prune-no-vertices", "prune-not-an-object", "grid-no-ns",
        "evaluate-vertex-out-of-range", "evaluate-repeated-vertex",
        "evaluate-config-no-order", "evaluate-config-bad-order",
        "evaluate-config-string-reps", "evaluate-config-bool-order",
        "evaluate-config-string-c-rounds", "evaluate-config-bool-threshold",
        "evaluate-config-negative-seed", "evaluate-config-infinite-rounds",
        "evaluate-config-rounds-past-limit", "evaluate-config-explicit-rounds-past-limit",
        "evaluate-stats-n-differs", "evaluate-stats-k-zero", "evaluate-stats-k-not-integer",
        "evaluate-stats-p-one",
        "evaluate-float-vertices", "prune-float-vertices", "evaluate-string-vertex",
        "prune-string-vertex", "evaluate-bool-vertex", "prune-entry-not-object",
        "prune-cliques-not-list", "prune-alphas-not-lists", "prune-stats-not-object",
        "evaluate-entry-not-object", "evaluate-cliques-not-list",
        "evaluate-alphas-not-lists", "evaluate-config-infinite-threshold",
        "evaluate-config-nan-threshold", "evaluate-config-overflowing-threshold",
        "evaluate-stats-infinite-echo", "prune-nan-vertex",
        "evaluate-config-threshold-not-the-models", "evaluate-config-not-object",
        "evaluate-oracle-calls-list", "evaluate-oracle-calls-number",
        "evaluate-oracle-calls-negative",
        "evaluate-string-alpha-index", "prune-string-alpha-index",
        "evaluate-not-utf8", "prune-not-utf8", "grid-not-utf8"])
def test_malformed_json_input_exits_2(instance_files, tmp_path, command, text):
    graph, meta, _ = instance_files
    doc = tmp_path / "doc.json"
    (doc.write_bytes if isinstance(text, bytes) else doc.write_text)(text)
    args = {"evaluate": ["--graph", graph, "--meta", meta, "--result", doc],
            "prune": ["--list", doc, "--n", 60, "--p", 0.5],
            "grid": ["--config", doc, "--out-csv", tmp_path / "grid.csv"]}[command]
    proc = run_cli(command, *args)
    assert_input_error(proc)
    assert str(doc) in proc.stderr


@pytest.mark.parametrize("args, name", [
    (["solve", "--graph", "{graph}", "--k", 0, "--out", "{tmp}/s.json"], "k"),
    (["solve", "--graph", "{graph}", "--k", 61, "--out", "{tmp}/s.json"], "k"),
    (["generate", "--n", 100000, "--k", 10, "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"],
     "n"),
    (["adversary-demo", "--n", -5, "--k", 3, "--m", 1], "n"),
    (["adversary-demo", "--n", 100000000, "--k", 100, "--m", 63], "n"),
    (["adversary-demo", "--n", 50, "--k", 0, "--m", 1], "k"),
    (["prune", "--list", "{tmp}/l.json", "--n", 1000000000000, "--p", 0.5], "n"),
    (["prune", "--list", "{tmp}/l.json", "--n", 32769, "--p", 0.5], "n"),
], ids=["solve-k-zero", "solve-k-above-n", "generate-n-above-max", "adversary-demo-negative-n",
        "adversary-demo-n-above-max", "adversary-demo-k-zero",
        "prune-huge-n", "prune-n-above-max"])
def test_bad_size_exits_2(instance_files, tmp_path, args, name):
    graph = instance_files[0]
    # two overlapping 130-vertex cliques, whose indicator rows are n wide
    (tmp_path / "l.json").write_text(json.dumps(
        {"cliques": [{"vertices": list(range(130))}, {"vertices": list(range(1, 131))}]}))
    proc = run_cli(*(str(a).format(graph=graph, tmp=tmp_path) for a in args))
    assert_input_error(proc)
    assert f"{name} must be" in proc.stderr, proc.stderr


@pytest.mark.parametrize("const", ["0", "-1", "nan"])
def test_non_positive_rounds_const_exits_2(instance_files, tmp_path, const):
    graph = instance_files[0]
    assert_input_error(run_cli("solve", "--graph", graph, "--k", 10, "--rounds-const", const,
                               "--out", tmp_path / "s.json"))


@pytest.mark.parametrize("args", [
    ["--rounds-const", "1e308"], ["--rounds-const", "1e12"], ["--rounds", "67108865"],
    ["--rounds", "33554433", "--reps", "2"], ["--reps", "100000"]],
    ids=["infinite", "huge", "explicit", "explicit-with-reps", "overflowing-reps"])
def test_round_count_past_limit_exits_2(instance_files, tmp_path, args):
    graph = instance_files[0]
    proc = run_cli("solve", "--graph", graph, "--k", 10, *args, "--out", tmp_path / "s.json")
    assert_input_error(proc)
    assert "MAX_ALPHA_ROWS" in proc.stderr or "not finite" in proc.stderr


def test_round_count_past_limit_error_stays_short(instance_files, tmp_path):
    # n = 60, k = 10: 10 * 6**300 rounds, a finite float of 235 digits
    proc = run_cli("solve", "--graph", instance_files[0], "--k", 10, "--reps", 100,
                   "--out", tmp_path / "s.json")
    assert_input_error(proc)
    assert "rounds * reps exceeds the limit MAX_ALPHA_ROWS=67108864" in proc.stderr
    assert len(proc.stderr) < 120, proc.stderr


RIP_SHAPE = ["--k", 4, "--t", 2, "--q", 8]


@pytest.mark.parametrize("args, flag", [
    (["generate", "--n", 50, "--k", 10, "--seed", -1, "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"],
     "--seed"),
    (["solve", "--graph", "{tmp}/g", "--k", 10, "--seed", -1, "--out", "{tmp}/s"], "--seed"),
    (["adversary-demo", "--n", 60, "--k", 10, "--m", 3, "--seed", -2], "--seed"),
    (["rip", "build", *RIP_SHAPE, "--seed", -1], "--seed"),
    (["rip", "isotropy", *RIP_SHAPE, "--seed", -1], "--seed"),
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--seed", -1], "--seed"),
    (["rip", "deviation", *RIP_SHAPE, "--r", 2, "--seed", -1], "--seed"),
    (["rip", "corrcount", *RIP_SHAPE, "--tau", 0.5, "--seed", -1], "--seed"),
    (["rip", "corrcount", *RIP_SHAPE, "--tau", 0.5, "--w-seed", -1], "--w-seed"),
    (["bench", "--sizes", 4, "--seed", -1], "--seed"),
], ids=["generate", "solve", "adversary-demo", "rip-build", "rip-isotropy",
        "rip-opnorm", "rip-deviation", "rip-corrcount", "rip-corrcount-w-seed", "bench"])
def test_negative_seed_exits_2(tmp_path, args, flag):
    proc = run_cli(*(str(a).format(tmp=tmp_path) for a in args))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"'{flag}'" in proc.stderr and ">=0" in proc.stderr, proc.stderr


@pytest.mark.parametrize("args, flag", [
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--base", "pbiased", "--p", "abc"], "--p"),
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--base", "pbiased", "--p", "1/0"], "--p"),
    (["rip", "isotropy", *RIP_SHAPE, "--base", "pbiased", "--p", "4//5"], "--p"),
    (["rip", "build", *RIP_SHAPE, "--p", "4/5"], "--p"),
    (["rip", "isotropy", *RIP_SHAPE, "--base", "rademacher", "--p", "4/5"], "--p"),
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--p", "1/2"], "--p"),
    (["rip", "deviation", *RIP_SHAPE, "--r", 2, "--p", "4/5"], "--p"),
    (["rip", "corrcount", *RIP_SHAPE, "--tau", 0.5, "--p", "4/5"], "--p"),
    (["bench", "--sizes", "a"], "--sizes"),
    (["bench", "--sizes", "8,,16"], "--sizes"),
    (["bench", "--sizes", "0"], "--sizes"),
    (["bench", "--sizes", "8,60000"], "MAX_BENCH_SIZE"),
    (["bench", "--sizes", "4097"], "MAX_BENCH_SIZE"),
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--method", "exhaustive", "--trials", 0],
     "--trials"),
], ids=["p-not-a-number", "p-zero-denominator", "p-malformed-fraction",
        "p-with-rademacher-build", "p-with-rademacher-isotropy", "p-with-rademacher-opnorm",
        "p-with-rademacher-deviation", "p-with-rademacher-corrcount", "sizes-not-a-number",
        "sizes-empty-entry", "sizes-zero", "sizes-huge", "sizes-above-max",
        "trials-with-exhaustive-opnorm"])
def test_bad_cli_value_exits_2_naming_the_flag(args, flag):
    proc = run_cli(*args)
    assert_input_error(proc)
    assert flag in proc.stderr


@pytest.mark.parametrize("args, name", [
    (["rip", "corrcount", *RIP_SHAPE, "--tau", "nan"], "tau"),
    (["rip", "corrcount", *RIP_SHAPE, "--tau", "inf"], "tau"),
    (["rip", "build", *RIP_SHAPE, "--base", "pbiased", "--p", "1e-400"], "p = 1/1000"),
    (["rip", "build", "--k", 4, "--t", 3, "--q", 8, "--base", "pbiased", "--p", "1e-300"],
     "p = 1/1000"),
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--base", "pbiased", "--p", "1e-300"],
     "below the normal float range at t = 2"),
    (["rip", "deviation", *RIP_SHAPE, "--r", 2, "--base", "pbiased", "--p", "1e-300"],
     "below the normal float range at t = 2"),
], ids=["tau-nan", "tau-inf", "pbiased-p-overflows",
        "pbiased-entries-overflow", "pbiased-gram-underflows-opnorm",
        "pbiased-gram-underflows-deviation"])
def test_non_finite_rip_thresholds_exit_2(args, name):
    proc = run_cli(*args)
    assert_input_error(proc)
    assert name in proc.stderr


def test_tiny_pbiased_p_with_normal_gram_terms_keeps_its_norm(runner):
    # at p = 1e-100 each Gram term, about 1e-200, is a normal float: the norm
    # of H / sqrt(8) is sqrt(2) * 1e-100, not an underflowed 0
    doc = json.loads(invoke(runner, ["rip", "opnorm", *map(str, RIP_SHAPE), "--r", "2",
                                     "--base", "pbiased", "--p", "1e-100"]).output)
    assert doc["value"] == pytest.approx(math.sqrt(2) * 1e-100, rel=1e-9)


def test_exhaustive_opnorm_past_the_support_entry_limit_exits_2():
    # C(k, t) = C(12, 3) = 220 columns, and C(220, 4) * 4 = 379867180 > 2**26 entries
    proc = run_cli("rip", "opnorm", "--k", 12, "--t", 3, "--q", 8, "--r", 4)
    assert_input_error(proc)
    assert ("C(220, 4) * r = 94966795 * 4 exceeds the limit MAX_SUPPORT_ENTRIES=67108864"
            in proc.stderr), proc.stderr


@pytest.mark.parametrize("args, limit", [
    (["rip", "deviation", "--k", 6, "--t", 3, "--q", 8, "--r", 2, "--trials", 3_000_000_000],
     "MAX_SUPPORT_ENTRIES"),
    (["rip", "opnorm", "--k", 6, "--t", 3, "--q", 8, "--r", 2, "--method", "sampled",
      "--trials", 3_000_000_000], "MAX_SUPPORT_ENTRIES"),
    (["rip", "build", "--k", 400, "--t", 3, "--q", 2000], "MAX_TENSORED_ENTRIES"),
    (["rip", "opnorm", "--k", 100000, "--t", 3, "--q", 1, "--r", 2], "MAX_TENSORED_ENTRIES"),
    # C(40, 3) = 9880 columns: q * d fits, but a 9880 x 9880 Gram is past d * d <= 2**26
    (["rip", "opnorm", "--k", 40, "--t", 3, "--q", 4, "--r", 2, "--method", "sampled"],
     "d * d <= MAX_TENSORED_ENTRIES"),
    (["rip", "deviation", "--k", 40, "--t", 3, "--q", 4, "--r", 2],
     "d * d <= MAX_TENSORED_ENTRIES"),
    (["rip", "isotropy", "--k", 40, "--t", 3, "--q", 4, "--mode", "sampled"],
     "d * d <= MAX_TENSORED_ENTRIES"),
    (["rip", "opnorm", "--k", 40, "--t", 3, "--q", 4, "--r", 1],
     "d * d <= MAX_TENSORED_ENTRIES"),
], ids=["deviation", "opnorm-sampled", "build-many-entries", "opnorm-many-columns",
        "opnorm-sampled-gram", "deviation-gram", "isotropy-sampled-gram",
        "opnorm-exhaustive-gram"])
def test_oversized_sampled_rip_run_exits_2(args, limit):
    proc = run_cli(*args)
    assert_input_error(proc)
    assert limit in proc.stderr


@pytest.mark.parametrize("extra, name", [
    ({"trials": 0}, "trials"),
    ({"trials": -2}, "trials"),
    ({"trials": True}, "trials"),
    ({"solvers": [{"rounds": 5}]}, "'rounds'"),
    ({"solvers": [{"order": 3, "bogus": 1}]}, "'bogus'"),
    ({"solvers": [{"backend": "blocked"}]}, "'backend'"),
    ({"solvers": [3]}, "solvers"),
    ({"ns": 60}, "'ns'"),
    ({"k_rules": "10"}, "'k_rules'"),
    ({"ps": 0.5}, "'ps'"),
    ({"ps": [float("nan")]}, "ps"),
    ({"ps": [1.5]}, "ps"),
    ({"ps": [0]}, "ps"),
    ({"ns": ["a"]}, "ns"),
    ({"ns": [0]}, "ns"),
    ({"ns": [30.0]}, "ns"),
    ({"ns": [100000]}, "ns"),
    ({"adversaries": [{"name": "bogus"}]}, "adversaries"),
    ({"adversaries": [{"name": "majority"}]}, "adversaries"),
    ({"adversaries": [{"name": "majority", "m": 3, "decoy_count": -1}]}, "adversaries"),
    ({"adversaries": [{"name": "erdos_renyi", "m": 3}]}, "adversaries"),
    ({"adversaries": ["erdos_renyi"]}, "adversaries"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"k_rules": ["0"]}, "k_rules"),
    ({"k_rules": ["31"]}, "k_rules"),
    ({"k_rules": ["8*ceilsqrt"]}, "k_rules"),
    ({"k_rules": ["0*sqrt"]}, "k_rules"),
    ({"k_rules": ["9" * 400 + "*sqrt"]}, "no finite k"),
    ({"k_rules": ["8*sqrt*log^1000"]}, "no finite k at n=30"),
    ({"k_rules": ["\u00b2"]}, "k rule '\u00b2'"),
    ({"k_rules": ["\uff13\uff10"]}, "k rule '\uff13\uff10'"),
    ({"k_rules": ["\uff13*sqrt"]}, "k rule '\uff13*sqrt'"),
    ({"adversaries": [{"name": "majority", "m": 3.0}]}, "adversaries"),
    ({"adversaries": [{"name": "majority", "m": 3, "decoy_count": 1.5}]}, "adversaries"),
    ({"adversaries": [{"name": "majority", "m": 11}]}, "grid cell 0"),
    ({"solvers": [{"reps": 40}]}, "grid cell 0"),
    ({"ns": [2], "k_rules": ["1"], "solvers": [{"order": 3}]}, "grid cell 0"),
    ({"ns": [2], "k_rules": ["1"], "solvers": [{"order": 1, "reps": 3}]}, "grid cell 0"),
    ({"ps": [1e-300]}, "grid cell 0"),
    ({"trails": 1, "sead": 3}, "unknown key 'trails'"),
], ids=["trials-zero", "trials-negative", "trials-bool", "solver-rounds", "solver-bogus",
         "solver-backend",
        "solvers-not-objects", "ns-not-a-list", "k-rules-not-a-list", "ps-not-a-list",
        "p-nan", "p-above-one", "p-zero", "n-string", "n-zero", "n-float", "n-above-max",
        "adversary-unknown", "majority-without-m", "majority-negative-decoys",
        "adversary-bad-param", "adversary-not-an-object", "seed-negative", "seed-float",
        "k-zero", "k-above-n", "formula-k-above-n", "formula-k-zero", "formula-k-infinite",
        "formula-k-overflowing", "k-superscript-digit", "k-fullwidth-digits",
        "formula-fullwidth-digit",
        "majority-float-m", "majority-float-decoys", "majority-m-above-k",
        "solver-rounds-past-limit", "solver-order-above-n", "solver-reps-above-n",
        "threshold-not-finite", "misspelled-top-level-keys"])
def test_bad_grid_config_exits_2(tmp_path, extra, name):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"ns": [30], "k_rules": ["10"], **extra}))
    out = tmp_path / "grid.csv"
    proc = run_cli("grid", "--config", config, "--out-csv", out)
    assert_input_error(proc)
    assert name in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("adversary, flags, named", [
    ("erdos_renyi", ["--m", 3], "'m'"),
    ("clique_union", ["--m", 3], "'m'"),
    ("majority", [], "'m'"),
], ids=["erdos-renyi-m", "clique-union-m", "majority-without-m"])
def test_generate_refuses_adversary_flags_it_does_not_take(tmp_path, adversary, flags, named):
    out = tmp_path / "g"
    proc = run_cli("generate", "--n", 50, "--k", 10, "--adversary", adversary, *flags,
                   "--out-graph", out, "--out-meta", tmp_path / "m")
    assert_input_error(proc)
    assert f"adversary '{adversary}'" in proc.stderr and named in proc.stderr, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -1])
def test_bad_thread_count_exits_2(tmp_path, threads):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"ns": [30], "k_rules": ["30"], "trials": 1}))
    out = tmp_path / "grid.csv"
    proc = run_cli("--threads", threads, "grid", "--config", config, "--out-csv", out)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "'--threads'" in proc.stderr, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["generate", "--n", 40, "--k", 10, "--adversary", "majority", "--m", 3,
     "--out-graph", "{out}", "--out-meta", "{out}.meta"],
    ["solve", "--graph", "{graph}", "--k", 10, "--order", 1, "--out", "{out}"],
    ["adversary-demo", "--n", 64, "--k", 16, "--m", 3, "--out", "{out}"],
    ["rip", "build", *RIP_SHAPE, "--out", "{out}"],
    ["rip", "isotropy", *RIP_SHAPE, "--out", "{out}"],
    ["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--method", "sampled", "--trials", 20,
     "--out", "{out}"],
    ["rip", "deviation", *RIP_SHAPE, "--r", 2, "--trials", 20, "--out", "{out}"],
    ["rip", "corrcount", *RIP_SHAPE, "--tau", 0.5, "--out", "{out}"],
], ids=["generate", "solve", "adversary-demo", "rip-build", "rip-isotropy", "rip-opnorm",
        "rip-deviation", "rip-corrcount"])
def test_seed_changes_the_output(runner, instance_files, tmp_path, args):
    # bench is left out: it reports only counters, which no seed moves
    outputs = []
    for seed in (7, 8):
        out = tmp_path / f"seed{seed}"
        fields = {"graph": instance_files[0], "out": out}
        invoke(runner, [*(str(a).format(**fields) for a in args), "--seed", str(seed)])
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


# Every option of every command, as `srpc <command> --help` lists them.
OPTION_SURFACE = {
    "": ["--threads"],
    "adversary-demo": ["--n", "--k", "--m", "--seed", "--out"],
    "bench": ["--sizes", "--seed", "--out"],
    "evaluate": ["--graph", "--meta", "--result", "--out"],
    "generate": ["--n", "--k", "--p", "--adversary", "--m", "--seed", "--out-graph",
                 "--out-meta"],
    "grid": ["--config", "--out-csv", "--out-config"],
    "prune": ["--list", "--n", "--p", "--out"],
    "rip": [],
    "rip build": ["--k", "--t", "--q", "--base", "--p", "--seed", "--out"],
    "rip corrcount": ["--k", "--t", "--q", "--base", "--p", "--seed", "--out", "--tau",
                      "--w-seed"],
    "rip deviation": ["--k", "--t", "--q", "--base", "--p", "--seed", "--out", "--r",
                      "--trials"],
    "rip isotropy": ["--k", "--t", "--q", "--base", "--p", "--seed", "--out", "--mode"],
    "rip opnorm": ["--k", "--t", "--q", "--base", "--p", "--seed", "--out", "--r", "--method",
                   "--trials"],
    "solve": ["--graph", "--k", "--p", "--order", "--reps", "--rounds-const", "--rounds",
              "--seed", "--backend", "--out", "--timings"],
}


def test_option_surface():
    def walk(command, path):
        yield path, command
        for name, sub in getattr(command, "commands", {}).items():
            yield from walk(sub, f"{path} {name}".strip())
    commands = dict(walk(cli, ""))
    assert {path: [opt for param in command.params for opt in param.opts + param.secondary_opts]
            for path, command in commands.items()} == OPTION_SURFACE
    seeds = [param.default for command in commands.values() for param in command.params
             if param.name == "seed"]
    assert seeds == [0] * 9


def readme_command_lines():
    """Every ``srpc ...`` command line of README's ``sh`` blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("srpc ")]


def test_readme_command_lines_parse():
    # make_context parses each line down to its leaf command and runs nothing,
    # so a removed or misspelled flag or a missing required one fails here
    lines = readme_command_lines()
    assert len(lines) >= 10
    for argv in lines:
        command, name, ctx = cli, "srpc", None
        while True:
            ctx = command.make_context(name, argv, parent=ctx)
            if not hasattr(command, "commands"):
                break
            # a group stops parsing at its subcommand's name and leaves what follows
            name = argv[len(argv) - len(ctx.args) - 1]
            command, argv = command.commands[name], ctx.args


@pytest.mark.parametrize("args, option", [
    (["--seed", 1, "generate", "--n", 50, "--k", 10, "--out-graph", "{tmp}/g",
      "--out-meta", "{tmp}/m"], "--seed"),
    (["--backend", "blocked", "prune", "--list", "{tmp}/l", "--n", 50, "--p", 0.5], "--backend"),
    (["grid", "--threads", 2, "--config", "{tmp}/c", "--out-csv", "{tmp}/o"], "--threads"),
    (["prune", "--mode", "naive", "--list", "{tmp}/l", "--n", 50, "--p", 0.5], "--mode"),
    (["generate", "--n", 50, "--k", 10, "--adversary", "majority", "--m", 3, "--decoys", 2,
      "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"], "--decoys"),
], ids=["group-seed", "group-backend", "grid-threads", "prune-mode", "generate-decoys"])
def test_removed_spelling_is_a_usage_error(tmp_path, args, option):
    proc = run_cli(*(str(a).format(tmp=tmp_path) for a in args))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("Usage: ")
    assert proc.stderr.endswith(f"Error: No such option '{option}'.\n"), proc.stderr


@pytest.mark.parametrize("args, option", [
    (["rip", "isotropy", *RIP_SHAPE, "--tol", 0.5], "--tol"),
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--normalize"], "--normalize"),
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--no-normalize"], "--no-normalize"),
    (["bench", "--sizes", 8, "--kind", "float"], "--kind"),
    (["bench", "--sizes", 8, "--backends", "naive"], "--backends"),
    (["adversary-demo", "--n", 64, "--k", 16, "--m", 1, "--rounds-const", 4], "--rounds-const"),
    (["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--budget", 10], "--budget"),
], ids=["isotropy-tol", "opnorm-normalize", "opnorm-no-normalize", "bench-kind",
        "bench-backends", "adversary-demo-rounds-const", "opnorm-budget"])
def test_removed_setting_is_a_usage_error(args, option):
    # each of these settings had one value in use and is now a constant
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("Usage: ")
    # click may append a "Did you mean" suggestion
    assert f"Error: No such option '{option}'." in proc.stderr, proc.stderr


@pytest.mark.parametrize("backend", ["blocked", "recursive"])
def test_solve_backend_other_than_naive_is_a_usage_error(instance_files, tmp_path, backend):
    out = tmp_path / "s.json"
    proc = run_cli("solve", "--graph", instance_files[0], "--k", 10, "--backend", backend,
                   "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("Usage: ")
    assert f"Invalid value for '--backend': '{backend}' is not 'naive'." in proc.stderr
    assert not out.exists()
