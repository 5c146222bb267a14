import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from srpc import SolverConfig, generate, read_instance, strategy_erdos_renyi, write_instance
from srpc.cli import cli
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
    assert replay(0.3) == 10  # a replay at the instance's p reads otherwise


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
     "d7c0ba5d29ded52e6fc2d90e66609d0512cf5ecce50f2d798e4ba879512a2649",
     "bfdb2cffd248401f9ac67455202bb02ae862dab674b56258e639069e19b54b68",
     "20d0d44cbd48c851ea9b4b9383bb6a5b9b9ef004ccdcbc03dc4c1abbe9079c05"),
    (("erdos_renyi", [], 150, 50, 0.5, 1, 2, 12),
     "919c4b6236be711cbc293aa6943161d3226deef06a0cb123bd89312a96b3cb58",
     "1f68e634fe7905b5095a831766f38ee6b8262eb3d33711c316bdb04598457d20",
     "8b989216b8055094891f6fea0e5bbbda7c9304871835b7fc36cb637e507f1c08"),
    (("erdos_renyi", [], 300, 120, 0.3, 2, 1, 13),
     "99f037eb4f56fe3257ce45cfe9dfb60ecb6f1ac0155bf03bc4f0db8e5c9dca9d",
     "a81b2dc673eddf5923f6bd80a4469167fad43e98b8e0e09775493f0725d208fd",
     "8beef0f3c3d935f7a2acd05229eba5977ea4f9b765489043307a07f6143c18dd"),
    (("clique_union", [], 300, 100, 0.7, 1, 2, 14),
     "6c9070fd11ab72c079984c3313c027aab18245b3bf4ef7fdaa3f126049d901ae",
     "ecd1c72f4a351e8414b3d44673d0cc13d73f465587489dd2b3691483d0ce4333",
     "b5e33c6aa0d86801804d56b32cd539551aa5396e51ed254ee18c36f28be1e060"),
    (("clique_union", [], 300, 100, 0.7, 3, 1, 15),
     "25bb4dbb56b9fac510fe57d0df9ba69399eebf8724cdca8dcdbaef1faa9cba3b",
     "332717e9211ca862fcb3715ecac9eceefd969edcb6259fbb117f74d1e224482a",
     "cbaa86dbfabbba7b8a4f6921bb6cfcdf57a1c04aa1e124081264ac9a01afa697"),
    (("majority", ["--m", 5], 120, 24, 0.5, 2, 2, 16),
     "ce059156e94b13a220cd06c36fd3a9ed99c61aed10db0715c97180ec75cfca13",
     "332717e9211ca862fcb3715ecac9eceefd969edcb6259fbb117f74d1e224482a",
     "d0153fd90c6d811b98a5966be1341b6f945a0a1736e8d48c5ebfa3b37f358475"),
]


@pytest.mark.parametrize("case, solve_digest, prune_digest, eval_digest", GOLDEN_DOCUMENTS,
                         ids=[f"{c[0][0]}-p{c[0][4]}-order{c[0][5]}-reps{c[0][6]}"
                              for c in GOLDEN_DOCUMENTS])
def test_cli_documents_match_golden_digests(runner, tmp_path, case, solve_digest,
                                            prune_digest, eval_digest):
    adversary, flags, n, k, p, order, reps, seed = case
    g, m, s, pr, ev = (str(tmp_path / name) for name in ("g", "m", "s", "pr", "ev"))
    for args in (["generate", "--n", n, "--k", k, "--p", p, "--adversary", adversary, *flags,
                  "--seed", seed, "--out-graph", g, "--out-meta", m],
                 ["solve", "--graph", g, "--k", k, "--p", p, "--order", order, "--reps", reps,
                  "--seed", seed + 1, "--out", s],
                 ["prune", "--list", s, "--n", n, "--p", p, "--out", pr],
                 ["evaluate", "--graph", g, "--meta", m, "--result", s, "--out", ev]):
        invoke(runner, [str(a) for a in args])
    digests = [hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in (s, pr, ev)]
    assert digests == [solve_digest, prune_digest, eval_digest]


def test_solve_document_bytes_do_not_depend_on_timings(runner, tmp_path):
    g, meta = tmp_path / "g.txt", tmp_path / "m.txt"
    invoke(runner, ["generate", "--n", "80", "--k", "40", "--seed", "3",
                    "--out-graph", str(g), "--out-meta", str(meta)])
    docs = []
    for extra in ([], ["--timings", str(tmp_path / "t.json")]):
        out = tmp_path / f"s{len(docs)}.json"
        invoke(runner, ["solve", "--graph", str(g), "--k", "40", "--seed", "4",
                        "--out", str(out), *extra])
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
    assert set(json.loads(docs[0])["stats"]) == {
        "n", "k", "p", "config", "rounds", "threshold", "rounds_index_not_clique",
        "rounds_nonempty", "rounds_short_skipped", "raw_size_max", "distinct_raw",
        "refined_size_max", "distinct_refined", "rounds_accepted", "accepted_distinct",
        "pruned_size", "prune", "oracle_calls", "madds"}


def test_prune_command_modes_agree(runner, tmp_path):
    doc = {"cliques": [{"vertices": list(range(10)), "alphas": []},
                       {"vertices": list(range(4, 14)), "alphas": []},
                       {"vertices": list(range(20, 30)), "alphas": []}]}
    src = tmp_path / "list.json"
    src.write_text(json.dumps(doc))
    outs = []
    for mode in ("naive", "fast"):
        out = tmp_path / f"{mode}.json"
        # p = 0.01 gives Delta = 2 < |overlap| = 6 so the filter is active
        invoke(runner, ["prune", "--list", str(src), "--n", "64", "--p", "0.01",
                        "--mode", mode, "--out", str(out)])
        outs.append(json.loads(out.read_text()))
    assert outs[0]["cliques"] == outs[1]["cliques"]
    kept = [tuple(c["vertices"]) for c in outs[0]["cliques"]]
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
                    "--seed", "7", "--rounds-const", "4", "--out", str(out)])
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


def test_bench_command(runner, tmp_path):
    out = tmp_path / "bench.json"
    invoke(runner, ["bench", "--sizes", "16,33", "--kind", "int",
                    "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert len(doc["cases"]) == 6
    assert all(case["oracle_calls"] == 1 for case in doc["cases"])


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
    return subprocess.run([sys.executable, "-m", "srpc.cli", *map(str, args)],
                          capture_output=True, text=True)


def assert_input_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


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
], ids=["missing-k", "non-integer-k", "non-float-p", "planted-out-of-range",
        "n-differs-from-graph", "planted-repeated", "planted-not-size-k",
        "planted-underscore", "planted-non-ascii-digits", "planted-plus-sign",
        "k-non-ascii-digits", "seed-plus-sign", "p-nan", "p-infinite", "p-above-one",
        "p-non-ascii-digits"])
def test_malformed_instance_meta_exits_2(instance_files, key, edit):
    graph, meta, result = instance_files
    header, *lines = meta.read_text().splitlines()
    kept = [header]
    for line in lines:
        name, _, value = line.partition(" = ")
        value = edit(value) if name == key else value
        if value is not None:
            kept.append(f"{name} = {value}")
    meta.write_text("\n".join(kept) + "\n")
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
        "evaluate-stats-infinite-echo", "prune-nan-vertex"])
def test_malformed_json_input_exits_2(instance_files, tmp_path, command, text):
    graph, meta, _ = instance_files
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    args = {"evaluate": ["--graph", graph, "--meta", meta, "--result", doc],
            "prune": ["--list", doc, "--n", 60, "--p", 0.5],
            "grid": ["--config", doc, "--out-csv", tmp_path / "grid.csv"]}[command]
    proc = run_cli(command, *args)
    assert_input_error(proc)
    assert str(doc) in proc.stderr


@pytest.mark.parametrize("args", [
    ["solve", "--graph", "{graph}", "--k", 0, "--out", "{tmp}/s.json"],
    ["solve", "--graph", "{graph}", "--k", 61, "--out", "{tmp}/s.json"],
    ["generate", "--n", 100000, "--k", 10, "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"],
    ["generate", "--n", 50, "--k", 10, "--adversary", "majority", "--m", 3, "--decoys", -1,
     "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"],
], ids=["solve-k-zero", "solve-k-above-n", "generate-n-above-max", "generate-negative-decoys"])
def test_bad_size_exits_2(instance_files, tmp_path, args):
    graph = instance_files[0]
    assert_input_error(run_cli(*(str(a).format(graph=graph, tmp=tmp_path) for a in args)))


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


RIP_SHAPE = ["--k", 4, "--t", 2, "--q", 8]


@pytest.mark.parametrize("args, flag", [
    (["--seed", -1, "generate", "--n", 50, "--k", 10, "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"],
     "--seed"),
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
], ids=["group", "generate", "solve", "adversary-demo", "rip-build", "rip-isotropy",
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
], ids=["p-not-a-number", "p-zero-denominator", "p-malformed-fraction",
        "p-with-rademacher-build", "p-with-rademacher-isotropy", "p-with-rademacher-opnorm",
        "p-with-rademacher-deviation", "p-with-rademacher-corrcount", "sizes-not-a-number",
        "sizes-empty-entry", "sizes-zero"])
def test_bad_cli_value_exits_2_naming_the_flag(args, flag):
    proc = run_cli(*args)
    assert_input_error(proc)
    assert flag in proc.stderr


@pytest.mark.parametrize("args, name", [
    (["rip", "corrcount", *RIP_SHAPE, "--tau", "nan"], "tau"),
    (["rip", "corrcount", *RIP_SHAPE, "--tau", "inf"], "tau"),
    (["rip", "isotropy", *RIP_SHAPE, "--tol", "nan"], "tol"),
    (["rip", "isotropy", *RIP_SHAPE, "--tol", "inf"], "tol"),
    (["rip", "isotropy", *RIP_SHAPE, "--tol", "-1"], "tol"),
], ids=["tau-nan", "tau-inf", "tol-nan", "tol-inf", "tol-negative"])
def test_non_finite_rip_thresholds_exit_2(args, name):
    proc = run_cli(*args)
    assert_input_error(proc)
    assert name in proc.stderr


@pytest.mark.parametrize("args", [
    ["rip", "deviation", "--k", 6, "--t", 3, "--q", 8, "--r", 2, "--trials", 3_000_000_000],
    ["rip", "opnorm", "--k", 6, "--t", 3, "--q", 8, "--r", 2, "--method", "sampled",
     "--trials", 3_000_000_000],
], ids=["deviation", "opnorm-sampled"])
def test_oversized_sampled_rip_run_exits_2(args):
    proc = run_cli(*args)
    assert_input_error(proc)
    assert "MAX_SAMPLED_ENTRIES" in proc.stderr


@pytest.mark.parametrize("extra, name", [
    ({"trials": 0}, "trials"),
    ({"trials": -2}, "trials"),
    ({"trials": True}, "trials"),
    ({"solvers": [{"rounds": 5}]}, "'rounds'"),
    ({"solvers": [{"order": 3, "bogus": 1}]}, "'bogus'"),
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
    ({"adversaries": [{"name": "majority", "m": 3.0}]}, "adversaries"),
    ({"adversaries": [{"name": "majority", "m": 3, "decoy_count": 1.5}]}, "adversaries"),
    ({"adversaries": [{"name": "majority", "m": 11}]}, "grid cell 0"),
    ({"solvers": [{"reps": 40}]}, "grid cell 0"),
], ids=["trials-zero", "trials-negative", "trials-bool", "solver-rounds", "solver-bogus",
        "solvers-not-objects", "ns-not-a-list", "k-rules-not-a-list", "ps-not-a-list",
        "p-nan", "p-above-one", "p-zero", "n-string", "n-zero", "n-float", "n-above-max",
        "adversary-unknown", "majority-without-m", "majority-negative-decoys",
        "adversary-bad-param", "adversary-not-an-object", "seed-negative", "seed-float",
        "k-zero", "k-above-n", "majority-float-m", "majority-float-decoys", "majority-m-above-k",
        "solver-rounds-past-limit"])
def test_bad_grid_config_exits_2(tmp_path, extra, name):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"ns": [30], "k_rules": ["10"], **extra}))
    out = tmp_path / "grid.csv"
    proc = run_cli("grid", "--config", config, "--out-csv", out)
    assert_input_error(proc)
    assert name in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["generate", "--n", 40, "--k", 10, "--adversary", "majority", "--m", 3,
     "--out-graph", "{out}", "--out-meta", "{out}.meta"],
    ["solve", "--graph", "{graph}", "--k", 10, "--order", 1, "--out", "{out}"],
    ["adversary-demo", "--n", 64, "--k", 16, "--m", 3, "--rounds-const", 1, "--out", "{out}"],
    ["rip", "build", *RIP_SHAPE, "--out", "{out}"],
    ["rip", "isotropy", *RIP_SHAPE, "--out", "{out}"],
    ["rip", "opnorm", *RIP_SHAPE, "--r", 2, "--method", "sampled", "--trials", 20,
     "--out", "{out}"],
    ["rip", "deviation", *RIP_SHAPE, "--r", 2, "--trials", 20, "--out", "{out}"],
    ["rip", "corrcount", *RIP_SHAPE, "--tau", 0.5, "--out", "{out}"],
    ["bench", "--sizes", 8, "--out", "{out}"],
], ids=["generate", "solve", "adversary-demo", "rip-build", "rip-isotropy", "rip-opnorm",
        "rip-deviation", "rip-corrcount", "bench"])
def test_group_seed_is_the_subcommand_default(runner, instance_files, tmp_path, args):
    # `srpc --seed 7 <cmd>` writes what `srpc <cmd> --seed 7` writes; where the
    # seed shows in the output, another seed changes it, so neither side ignores it
    outputs = {}
    for tag, before, after in (("group", ["--seed", 7], []), ("flag", [], ["--seed", 7]),
                               ("other", [], ["--seed", 8])):
        out = tmp_path / tag
        fields = {"graph": instance_files[0], "out": out}
        invoke(runner, [*map(str, before), *(str(a).format(**fields) for a in args),
                        *map(str, after)])
        outputs[tag] = out.read_bytes()
    assert outputs["group"] == outputs["flag"]
    if args[0] != "bench":  # bench reports only counters, which no seed moves
        assert outputs["flag"] != outputs["other"]
