"""The traced benchmark names `gop` functions from outside the package;
each name must still resolve, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("name", SPANS.SPANS + SPANS.COUNTED)
def test_traced_name_resolves(name):
    layer, *path = name.split(".")
    owner = importlib.import_module(f"gop.{layer}")
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)
