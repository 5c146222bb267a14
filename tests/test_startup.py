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


def test_import_srpc_loads_no_submodule():
    assert srpc_modules_after("import srpc") == {"srpc"}


def test_import_srpc_cli_loads_only_the_start_up_modules():
    assert srpc_modules_after("import srpc.cli") == CLI_MODULES


@pytest.mark.parametrize("args", [
    ["--help"],
    ["generate", "--n", "20", "--k", "5", "--out-graph", "{tmp}/g", "--out-meta", "{tmp}/m"],
], ids=["help", "generate"])
def test_command_that_needs_no_solver_loads_none(tmp_path, args):
    # runpy runs srpc/cli.py as __main__, as `python -m srpc.cli` does, so
    # srpc.cli itself is never imported.
    argv = ["srpc", *(a.format(tmp=tmp_path) for a in args)]
    code = (f"import runpy\nsys.argv = {argv!r}\n"
            "runpy.run_module('srpc.cli', run_name='__main__', alter_sys=True)")
    assert srpc_modules_after(code) == CLI_MODULES - {"srpc.cli"}
