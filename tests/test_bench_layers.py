"""scripts/bench_layers.py imports every name it times."""

import importlib.util
import os
from pathlib import Path


def test_bench_layers_imports():
    # loading the script resolves its imports from diracwg, so a name it
    # uses that the package no longer has fails here, not in the script
    spec = importlib.util.spec_from_file_location(
        "bench_layers", Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    saved = dict(os.environ)
    try:
        spec.loader.exec_module(module)  # sets the BLAS thread variables
    finally:
        os.environ.clear()
        os.environ.update(saved)
    assert callable(module.main)
