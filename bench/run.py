"""End-to-end benchmark of the `gop` CLI.

    python3 bench/run.py --workload scan --seed 0 --seconds 36 --trace 0

Run from a checkout of the repository; `gop` is imported from its `src/`.
One client runs one `python -m gop.cli ...` child at a time (a closed loop),
with GOP_THREADS unset and OPENBLAS_NUM_THREADS=1.  The workload's invocation list (bench/invocations.py)
is replayed back to back until --seconds have passed, and every output is
checked (bench/outputs.py).

--trace 0 prints the end-to-end metrics: `wall_s`, the sum over the list
of each invocation's median child wall time; `call_max_s`, the largest of
those medians; `setup_s`, the median wall time of a child that only imports
gop.cli, started twice before every pass; `peak_rss_mb`, the largest
peak RSS of any child.  Medians over passes, and set-up children spread over
the run, keep short slowdowns of a shared machine out of the figures.

--trace 1 alternates an untraced pass with a traced one, whose children run
bench/spans.py, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it itemize every
failure.  A full record of the run goes to .bench_out/.

    python3 bench/run.py --record

re-records bench/reference.json, the output digests of every workload on
the default seed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import invocations
import outputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPANS_SCRIPT = Path(__file__).resolve().with_name("spans.py")

SETUP_RUNS_PER_PASS = 2
CALL_TIMEOUT_S = 30.0
# every child is started before this many seconds into the run, so the
# benchmark ends well within three minutes even when children hang
RUN_BUDGET_S = 140.0

END_TO_END_UNITS = {"wall_s": "s", "call_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


def run_child(cmd: list[str], env: dict, timeout: float) -> Child:
    """Run one child to completion; its own peak RSS comes from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        timed_out = False
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                timed_out = True
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read(), err.read(), timed_out)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GOP_THREADS", None)
    # gop does no BLAS work; numpy's OpenBLAS pool, started at import with
    # one spinning thread per core, cost 0.07 s of CPU per child on 2 cores
    # and moved set-up time by a quarter between runs
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "GOP_THREADS": {"benchmark": os.environ.get("GOP_THREADS"), "children": "unset"},
        "OPENBLAS_NUM_THREADS": {"benchmark": os.environ.get("OPENBLAS_NUM_THREADS"), "children": "1"},
    }


def _git_sha():
    """HEAD read from .git without running git, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# passes over an invocation list


@dataclass
class Call:
    label: str
    wall_s: float
    peak_rss_mb: float
    reasons: list
    trace: dict | None = None


@dataclass
class Runner:
    invs: list
    checker: outputs.Checker
    deadline: float
    env: dict = field(default_factory=child_env)
    digests: dict = field(default_factory=dict)
    passes: list = field(default_factory=list)  # (traced, [Call])

    def run_pass(self, traced: bool) -> list:
        calls = []
        for i, inv in enumerate(self.invs):
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                calls.append(Call(inv.label, 0.0, 0.0, ["not run: run budget spent"]))
                continue
            spans_path = None
            if traced:
                spans_path = OUT / f"spans-{os.getpid()}-{i}.json"
                cmd = [sys.executable, str(SPANS_SCRIPT), str(spans_path), *inv.argv]
            else:
                cmd = [sys.executable, "-m", "gop.cli", *inv.argv]
            timeout = min(CALL_TIMEOUT_S, remaining)
            child = run_child(cmd, self.env, timeout)
            if child.timed_out:
                reasons, digest = [f"timed out after {timeout:.0f} s"], None
            else:
                reasons, digest = self.checker.check(inv, child.code, child.stdout)
                if child.code != 0 and child.stderr.strip():
                    reasons.append("stderr: " + child.stderr.decode(errors="replace").strip().splitlines()[-1][:200])
            if digest is not None:
                first = self.digests.setdefault(inv.key, digest)
                if first != digest:
                    reasons.append("output differs from an earlier pass")
            trace = None
            if spans_path is not None and spans_path.is_file():
                # a child killed at its timeout may have left a partial file
                if not child.timed_out:
                    trace = json.loads(spans_path.read_text())
                spans_path.unlink()
            calls.append(Call(inv.label, child.wall_s, child.peak_rss_mb, reasons, trace))
        self.passes.append((traced, calls))
        return calls

    def all_calls(self):
        return [c for _, cs in self.passes for c in cs]

    def walls(self, traced: bool) -> list:
        return [sum(c.wall_s for c in cs) for t, cs in self.passes if t == traced]


def setup_times(env: dict) -> list:
    """Wall times of children that only start Python and import gop.cli,
    which builds the catalog."""
    cmd = [sys.executable, "-c", "import gop.cli"]
    times = []
    for _ in range(SETUP_RUNS_PER_PASS):
        child = run_child(cmd, env, CALL_TIMEOUT_S)
        if child.code != 0 or child.timed_out:
            raise SystemExit(f"bench: importing gop.cli failed: {child.stderr.decode(errors='replace')[-500:]}")
        times.append(child.wall_s)
    return times


def end_to_end(runner: Runner, setup: list) -> dict:
    call_medians = [
        statistics.median(cs[i].wall_s for t, cs in runner.passes if not t) for i in range(len(runner.invs))
    ]
    values = {
        "wall_s": sum(call_medians),
        "call_max_s": max(call_medians),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(c.peak_rss_mb for c in runner.all_calls()),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def pass_layers(calls: list) -> dict:
    """Per-layer values of one traced pass, summed over its invocations."""
    values = dict.fromkeys(spans.metric_units(), 0.0)
    hits = calls_cs = 0
    for call in calls:
        if call.trace is None:
            continue
        trace = call.trace
        for name, row in spans.aggregate(trace["spans"]).items():
            for key in ("s", "self_s", "calls"):
                values[f"{name}.{key}"] += row[key]
        for name, n in trace["counts"].items():
            values[f"{name}.calls"] += n
        values["import.s"] += trace["import_s"]
        growth = trace["growth"]
        hits += growth["cleared_system_hits"]
        calls_cs += growth["cleared_system_calls"]
        values["growth.recurrence_steps"] += growth["recurrence_steps"]
        values["growth.h_max_degree"] = max(values["growth.h_max_degree"], growth["h_max_degree"])
        values["growth.h_max_bits"] = max(values["growth.h_max_bits"], growth["h_max_bits"])
    values["growth.cleared_system.hit_ratio"] = hits / calls_cs if calls_cs else 0.0
    return values


def per_layer(runner: Runner) -> dict:
    units = spans.metric_units()
    traced = [pass_layers(cs) for t, cs in runner.passes if t]
    values = {name: statistics.median(v[name] for v in traced) for name in units}
    values["trace_overhead"] = statistics.median(runner.walls(True)) / statistics.median(runner.walls(False))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def trace_table(runner: Runner) -> list:
    """Per invocation of the last traced pass: child wall time against
    import.s + cli.main.s, so time outside every span shows."""
    rows = []
    for call in next(cs for t, cs in reversed(runner.passes) if t):
        if call.trace is None:
            continue
        main_s = spans.aggregate(call.trace["spans"]).get("cli.main", {"s": 0.0})["s"]
        inside = call.trace["import_s"] + main_s
        rows.append(
            {
                "invocation": call.label,
                "wall_s": call.wall_s,
                "import_s": call.trace["import_s"],
                "cli.main_s": main_s,
                "outside_spans_s": call.wall_s - inside,
            }
        )
    return rows


# ---------------------------------------------------------------------------


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=invocations.WORKLOADS)
    ap.add_argument("--seed", type=int, default=invocations.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record bench/reference.json")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    return args


def _require_checkout():
    if not (SRC / "gop" / "cli.py").is_file():
        raise SystemExit(f"bench: no gop sources under {SRC}; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)
    probe = run_child([sys.executable, "-c", "import gop.cli; print(gop.cli.__file__)"], child_env(), CALL_TIMEOUT_S)
    found = probe.stdout.decode(errors="replace").strip()
    if probe.code != 0 or Path(found).resolve() != (SRC / "gop" / "cli.py").resolve():
        raise SystemExit(f"bench: children import gop from {found or '?'}, not from {SRC}")


def record_references():
    checker = outputs.Checker(SRC / "gop" / "schemas", references={})
    digests = {}
    for workload in invocations.WORKLOADS:
        runner = Runner(invocations.build(workload, invocations.DEFAULT_SEED), checker, time.monotonic() + 600)
        for call in runner.run_pass(traced=False):
            if call.reasons:
                raise SystemExit(f"bench: {call.label}: {'; '.join(call.reasons)}")
        digests.update(runner.digests)
    data = {"seed": invocations.DEFAULT_SEED, "digests": digests}
    outputs.REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {outputs.REFERENCE_FILE}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_checkout()
    if args.record:
        record_references()
        return 0
    started = time.monotonic()
    env_record = environment(args.seed)
    checker = outputs.Checker(SRC / "gop" / "schemas", outputs.load_references())
    setup = []
    runner = Runner(invocations.build(args.workload, args.seed), checker, started + RUN_BUDGET_S)
    # repeat whole passes while the next one, as long as the last, still
    # ends within --seconds
    measure_from = time.monotonic()
    while True:
        pass_from = time.monotonic()
        if args.trace:
            runner.run_pass(traced=False)
            runner.run_pass(traced=True)
        else:
            setup.extend(setup_times(runner.env))
            runner.run_pass(traced=False)
        now = time.monotonic()
        if now - measure_from + (now - pass_from) > args.seconds or now >= runner.deadline:
            break

    calls = runner.all_calls()
    failures = [(c.label, r) for c in calls for r in c.reasons]
    failed = sum(1 for c in calls if c.reasons)
    metrics = per_layer(runner) if args.trace else end_to_end(runner, setup)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env_record,
        "passes": [
            {"traced": t, "calls": [{"invocation": c.label, "wall_s": c.wall_s, "peak_rss_mb": c.peak_rss_mb, "failures": c.reasons} for c in cs]}
            for t, cs in runner.passes
        ],
        "setup_s": setup,
        "error_rate": failed / len(calls),
        "failures": [{"invocation": label, "reason": reason} for label, reason in failures],
        "metrics": metrics,
    }
    if args.trace:
        record["trace_table"] = trace_table(runner)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("environment: " + json.dumps(env_record, sort_keys=True))
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    print(f"error_rate: {failed}/{len(calls)} = {failed / len(calls):.4f}")
    if args.trace:
        for row in record["trace_table"]:
            print(
                f"trace: wall {row['wall_s']:.3f} s = import {row['import_s']:.3f} + cli.main {row['cli.main_s']:.3f}"
                f" + outside {row['outside_spans_s']:.3f} :: {row['invocation']}"
            )
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
