"""Every name the benchmark tracer wraps must exist in the program.

bench/tracing.py looks up each (module, name) of its TRACED table with
getattr on motprobe.<module> when a traced benchmark run starts, so a name
deleted or renamed in the package would otherwise fail only that run. The
tracer is loaded here by path, as a plain module, and nothing in it runs
but its definitions.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TRACED = [(module, name) for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module", tracing.MODULES)
def test_scanned_module_imports(module):
    importlib.import_module(f"motprobe.{module}")


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    home = importlib.import_module(f"motprobe.{module}")
    assert callable(getattr(home, name, None)), f"motprobe.{module} has no {name}"
