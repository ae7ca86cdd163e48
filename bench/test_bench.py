"""Tests of the benchmark's own code; they start no `gop` child."""

import json
import sys
from pathlib import Path

import pytest

import invocations
import outputs
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
SIZE_OPTIONS = ("--primes", "--s", "--prime-bound", "--smax", "--prime", "--N", "--M")


def _sizes(inv):
    argv = inv.argv
    return argv[0], {a: argv[i + 1] for i, a in enumerate(argv[:-1]) if a in SIZE_OPTIONS}


@pytest.mark.parametrize("workload", invocations.WORKLOADS)
def test_same_seed_same_invocations(workload):
    assert invocations.build(workload, 7) == invocations.build(workload, 7)


@pytest.mark.parametrize("workload", invocations.WORKLOADS)
def test_seeds_keep_count_and_sizes(workload):
    base = [_sizes(inv) for inv in invocations.build(workload, 0)]
    lists = [invocations.build(workload, seed) for seed in range(1, 30)]
    for invs in lists:
        assert [_sizes(inv) for inv in invs] == base
    assert len({tuple(inv.argv for inv in invs) for invs in lists}) > 1


def test_canonical_digest_ignores_timing_ms_only():
    envelope = {
        "tool": "gop",
        "version": "0.1.0",
        "command": "pcurv",
        "result": {"input": "polylog:2", "prime": 5, "method_agreement": True},
        "timing_ms": 12,
    }
    digest = outputs.canonical_digest(envelope)
    assert outputs.canonical_digest(envelope | {"timing_ms": 9999}) == digest
    assert outputs.canonical_digest({k: v for k, v in envelope.items() if k != "timing_ms"}) == digest
    assert outputs.canonical_digest(dict(reversed(list(envelope.items())))) == digest
    for key in ("tool", "version", "command"):
        assert outputs.canonical_digest(envelope | {key: "other"}) != digest
    changed = envelope | {"result": envelope["result"] | {"prime": 7}}
    assert outputs.canonical_digest(changed) != digest
    nested = envelope | {"result": envelope["result"] | {"timing_ms": 1}}
    assert outputs.canonical_digest(nested) != digest


def test_self_time_on_nested_spans():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b", 6.0, 8.0, 3),
        ("leaf", 6.5, 7.0, 4),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 0.5])
    agg = spans.aggregate(tree)
    assert agg["root"] == pytest.approx({"s": 10.0, "self_s": 3.0, "calls": 1})
    # the inner "b" lies inside the outer one: counted in calls, not twice in s
    assert agg["b"] == pytest.approx({"s": 4.0, "self_s": 3.5, "calls": 2})
    assert agg["leaf"] == pytest.approx({"s": 1.5, "self_s": 1.5, "calls": 2})


def test_self_time_clips_overlapping_children():
    tree = [("p", 0.0, 4.0, -1), ("c", 1.0, 3.0, 0), ("c", 2.0, 5.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def _envelope(command, result):
    return json.dumps({"tool": "gop", "version": "0.1.0", "command": command, "result": result, "timing_ms": 3}).encode()


def test_checker_flags_wrong_outputs():
    checker = outputs.Checker(ROOT / "src" / "gop" / "schemas", references={})
    pcurv = invocations.Invocation(("pcurv", "--catalog", "polylog:2", "--prime", "5"))
    good = {"input": "polylog:2", "prime": 5, "status": "Nilpotent", "nilpotence_index": 2, "method_agreement": True}
    reasons, digest = checker.check(pcurv, 0, _envelope("pcurv", good))
    assert reasons == [] and digest
    assert checker.check(pcurv, 0, _envelope("pcurv", good | {"method_agreement": False}))[0]
    assert checker.check(pcurv, 0, _envelope("pcurv", {"input": "polylog:2"}))[0]
    assert checker.check(pcurv, 1, b"")[0] == ["exit code 1"]
    checker.references = {pcurv.key: "0" * 64}
    assert checker.check(pcurv, 0, _envelope("pcurv", good))[0]

    exps = invocations.Invocation(("exponents", "D", "--point=inf"), {"inf": ["1/2"]})
    result = {"input": "D", "point": "inf", "rational_exponents": ["1/3"], "nonrational_factors": []}
    assert checker.check(exps, 0, _envelope("exponents", result))[0]
    result["rational_exponents"] = ["1/2"]
    assert checker.check(exps, 0, _envelope("exponents", result))[0] == []


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(invocations.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()


def test_children_run_single_threaded(monkeypatch):
    monkeypatch.setenv("GOP_THREADS", "4")
    env = run.child_env()
    assert "GOP_THREADS" not in env and env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_run_child_kills_a_hang():
    run.OUT.mkdir(exist_ok=True)
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], {}, timeout=0.5)
    assert child.timed_out and child.code != 0 and child.wall_s < 10
