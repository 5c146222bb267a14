"""Start-up loads only what the command runs.

``import srpc`` loads no submodule, and ``import srpc.cli`` loads only the
modules that every command needs; each command imports the rest of srpc
itself.  These tests compare module sets in a fresh interpreter, never
timings.
"""

import subprocess
import sys

import pytest

# What `import srpc.cli` loads: the CLI, the graph reader and the instance
# generator that perfbench's tracer rebinds there, and the error types.
CLI_MODULES = {"srpc", "srpc.cli", "srpc.errors", "srpc.graphs", "srpc.instances"}


def srpc_modules_after(code: str) -> set[str]:
    """The srpc modules a fresh interpreter holds after running ``code``."""
    report = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'srpc'))"
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{report}"],
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())  # the last line: help text comes first


def run_cli_code(tmp_path, args) -> str:
    """Code that runs srpc/cli.py as __main__ with ``args``, through runpy."""
    argv = ["srpc", *(a.format(tmp=tmp_path) for a in args)]
    return (f"import runpy\nsys.argv = {argv!r}\n"
            "runpy.run_module('srpc.cli', run_name='__main__', alter_sys=True)")


def test_import_srpc_loads_no_submodule():
    assert srpc_modules_after("import srpc") == {"srpc"}


def test_import_srpc_cli_loads_only_the_start_up_modules():
    assert srpc_modules_after("import srpc.cli") == CLI_MODULES


@pytest.mark.parametrize("args", [
    ["--help"],
    ["generate", "--n", "20", "--k", "5", "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"],
], ids=["help", "generate"])
def test_command_that_needs_no_solver_loads_none(tmp_path, args):
    # srpc.cli runs as __main__, as `python -m srpc.cli` does, so it is never imported
    assert srpc_modules_after(run_cli_code(tmp_path, args)) == CLI_MODULES - {"srpc.cli"}


@pytest.mark.parametrize("adversary", [["erdos_renyi"], ["clique_union"], ["majority", "--m", "3"]],
                         ids=lambda a: a[0])
def test_generate_leaves_numpy_ma_unloaded(tmp_path, adversary):
    # the complements come from a boolean mask; np.setdiff1d imports numpy.ma
    args = ["generate", "--n", "40", "--k", "10", "--adversary", *adversary,
            "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"]
    code = f"import sys\n{run_cli_code(tmp_path, args)}\nprint('numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split()[-1] == "False"
