"""The benchmark's per-layer tracer names functions of nestfold by string.

bench/layers.py rebinds every (module, function) pair in TIMED and COUNTED;
renaming or deleting one of them would break `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"nestfold.{module}.{fn}"
        for module, fn in layers.TIMED + layers.COUNTED
        if not callable(getattr(importlib.import_module(f"nestfold.{module}"), fn, None))
    ]
    assert missing == []
