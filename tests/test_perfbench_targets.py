"""perfbench's tracer looks up srpc functions by name; every name must still exist.

`perfbench/layers.py` rebinds each (module, attribute) in ``TARGETS`` and
``GENERATORS`` when a run is traced, so deleting or renaming one of them
breaks ``perfbench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports perfbench's tracing
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [(entry[0], entry[1]) for entry in layers.TARGETS + layers.GENERATORS]
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []
