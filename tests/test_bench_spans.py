"""The benchmark's tracer finds every layer function it wraps.

`bench/run.py --trace 1` looks each `bench/spans.py` LAYERS name up with
getattr on its elindep module, so a renamed or deleted function would
break traced runs.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves():
    layers = _load_spans().LAYERS
    assert layers
    for module_name, path, _group, _size in layers:
        owner = importlib.import_module(f"elindep.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"elindep.{module_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"elindep.{module_name}.{path}"
