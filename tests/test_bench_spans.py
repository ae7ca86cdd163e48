"""The traced benchmark names `gop` functions from outside the package;
each name must still resolve, and the traced child must wrap functions of
layers that load lazily, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "bench" / "spans.py"


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


@pytest.mark.parametrize("argv, span", [
    (["scan", "--catalog", "polylog:2", "--primes", "2..5"], "p_curvature.is_nilpotent"),
    (["galochkin", "--catalog", "gauss2f1", "--smax", "10"], "growth.galochkin_trace"),
    (["catalog", "list"], "cli.main"),
])
def test_traced_child_records_spans(tmp_path, argv, span):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, str(SPANS_PATH), str(out), *argv],
                           capture_output=True, text=True, timeout=60, env=env)
    assert child.returncode == 0, child.stderr
    assert span in {name for name, *_ in json.loads(out.read_text())["spans"]}
