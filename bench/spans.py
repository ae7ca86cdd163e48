"""Spans and counters for the traced run, recorded from outside `gop`.

Run as a script, this is the traced child: it imports `gop.cli`, wraps the
functions named in SPANS and COUNTED, calls `gop.cli.main(argv)` and writes
what it recorded to a JSON file when `main` returns:

    PYTHONPATH=src python3 bench/spans.py OUT.json scan --catalog polylog:2 --primes 2..20

A wrapper replaces the original in every `gop.*` module namespace that
holds it, because `cli` imports names such as `bombieri_report` directly
and `growth` calls `h_s_p` through its own globals.  Methods are replaced
on their class.

Imported as a module, it turns the recorded spans into per-name totals.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span names are "<module>.<function>" or "<module>.<Class>.<method>" in gop
SPANS = (
    "cli.main",
    "cli.parse_operator",
    "catalog.catalog_get",
    "diffop.companion",
    "diffop.change_basis",
    "exact_arith.Poly.rational_roots",
    "local_analysis.classify_operator",
    "local_analysis.exponents",
    "modp.ClearedSequenceMod.advance",
    "p_curvature.prime_report",
    "p_curvature.p_curvature",
    "p_curvature.is_nilpotent",
    "p_curvature.operator_nilpotence_by_division",
    "growth.cleared_system",
    "growth.galochkin_trace",
    "growth.size_estimate",
    "growth.radius_estimate",
    "growth.h_s_p",
    "growth.bombieri_report",
    "pade.pade_type2",
    "pade.derived_tower",
    "pade.shidlovskii_matrix",
    "pade.siegel_bound_report",
    "pade.residual_order",
)

# functions called too often for a span each; only their calls are counted
COUNTED = ("exact_arith.vp_int", "modp.reduce_ratfn_mod_p")

# per-layer metrics besides the three of each span: (name, unit)
EXTRA_METRICS = (
    ("exact_arith.vp_int.calls", "count"),
    ("modp.reduce_ratfn_mod_p.calls", "count"),
    ("import.s", "s"),
    ("growth.cleared_system.hit_ratio", "ratio"),
    ("growth.recurrence_steps", "count"),
    ("growth.h_max_degree", "count"),
    ("growth.h_max_bits", "bits"),
    ("trace_overhead", "ratio"),
)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(EXTRA_METRICS)
    return units


# ---------------------------------------------------------------------------
# reading spans: a span is (name, start, end, parent index or -1)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict:
    """name -> {"s", "self_s", "calls"}.  `s` sums only the outermost span
    of a name, so a call nested in a call of the same name is not counted
    twice; `self_s` and `calls` sum every span."""
    out = {}
    names_above = []
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        above = names_above[parent] if parent >= 0 else frozenset()
        names_above.append(above | {name})
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += own
        if name not in above:
            row["s"] += end - start
    return out


# ---------------------------------------------------------------------------
# recording spans inside the traced child


class Tracer:
    """Spans and call counts kept in memory for one child process."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self.systems = {}  # id -> object returned by growth.cleared_system
        self.system_calls = 0
        self.system_hits = 0
        self._stack = []

    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _seen_system(self, system):
        self.system_calls += 1
        if id(system) in self.systems:
            self.system_hits += 1
        else:
            self.systems[id(system)] = system

    def install(self):
        for name in SPANS:
            hook = self._seen_system if name == "growth.cleared_system" else None
            _replace(name, lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for name in COUNTED:
            _replace(name, lambda fn, name=name: self._counter(name, fn))

    def growth_stats(self) -> dict:
        """Read off the H_s lists of the systems cleared_system returned."""
        steps = degree = bits = 0
        for system in self.systems.values():
            steps += len(system.hs) - 1
            for h in system.hs:
                for row in h:
                    for poly in row:
                        if poly:
                            degree = max(degree, len(poly) - 1)
                            bits = max(bits, max(abs(c) for c in poly).bit_length())
        return {
            "cleared_system_calls": self.system_calls,
            "cleared_system_hits": self.system_hits,
            "recurrence_steps": steps,
            "h_max_degree": degree,
            "h_max_bits": bits,
        }


def _gop_modules():
    return [m for n, m in list(sys.modules.items()) if n == "gop" or n.startswith("gop.")]


def _replace(name: str, make):
    """Swap the function `name` for make(original) wherever gop holds it."""
    layer, *path = name.split(".")
    owner = sys.modules[f"gop.{layer}"]
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    original = getattr(owner, path[-1])
    wrapper = make(original)
    if isinstance(owner, type):
        setattr(owner, path[-1], wrapper)
        return
    for module in _gop_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _child(out_path: str, argv: list[str]) -> int:
    started = time.perf_counter()
    import gop.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    try:
        return gop.cli.main(argv)
    finally:
        sys.stdout.flush()
        record = {
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "growth": tracer.growth_stats(),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
