"""The benchmark's workloads: fixed lists of `gop` CLI invocations.

Each list has the same length, the same prime ranges and the same s/N/M
sizes for every seed.  The seed only draws operator parameters (rational
hypergeometric parameters, order-1 residues and poles) that enter through
the expression parser, plus the catalog id that `catalog get` looks up.
Invocations on catalog entries are identical for every seed.

Each invocation carries the facts its output must show beyond the schema,
derived here from the drawn parameters and not from the program:
the local exponents of a hypergeometric operator are {0, 1-c} at 0,
{0, c-a-b} at 1 and {a, b} at infinity, and those of
D - sum r_j/(z - a_j) are r_j at a_j and -sum r_j at infinity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("scan", "growth", "analysis")
DEFAULT_SEED = 0

# catalog ids that `catalog get` may draw
_CATALOG_IDS = ("polylog:1", "polylog:2", "gauss2f1", "theta2m2", "d-minus-1", "order1-half")


@dataclass(frozen=True)
class Invocation:
    """One `gop` command line and the facts its output must show.

    `expect` maps a point label ("0", "1", "inf", ...) to the sorted local
    exponents there, as strings; `exponents` invocations have one label,
    `classify` invocations several."""

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return json.dumps(list(self.argv))

    @property
    def label(self) -> str:
        return " ".join(a if " " not in a else repr(a) for a in self.argv)


def _unit_rational(rng: random.Random) -> Fraction:
    """k/d with 2 <= d <= 6 and 1 <= k < d, so strictly between 0 and 1."""
    d = rng.randint(2, 6)
    return Fraction(rng.randint(1, d - 1), d)


def _signed(q: Fraction) -> str:
    return f"+{q}" if q >= 0 else f"-{-q}"


def _exps(values) -> list[str]:
    return [str(v) for v in sorted(Fraction(v) for v in values)]


@dataclass(frozen=True)
class _Hypergeometric:
    """theta*(theta+c-1) - z*(theta+a)*(theta+b) with a, b, c in (0, 1)."""

    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def draw(rng: random.Random) -> "_Hypergeometric":
        return _Hypergeometric(_unit_rational(rng), _unit_rational(rng), _unit_rational(rng))

    @property
    def expr(self) -> str:
        return f"theta*(theta{_signed(self.c - 1)}) - z*(theta{_signed(self.a)})*(theta{_signed(self.b)})"

    def exponents(self) -> dict:
        return {
            "0": _exps([0, 1 - self.c]),
            "1": _exps([0, self.c - self.a - self.b]),
            "inf": _exps([self.a, self.b]),
        }


@dataclass(frozen=True)
class _OrderOne:
    """D - r_1/(z - a_1) - r_2/(z - a_2) with distinct nonzero poles
    a_j in {k/2 : |k| <= 6} and residues r_j = +-k/d drawn like the
    hypergeometric parameters."""

    residues: tuple[Fraction, ...]
    poles: tuple[Fraction, ...]

    @staticmethod
    def draw(rng: random.Random) -> "_OrderOne":
        candidates = [Fraction(k, 2) for k in range(-6, 7) if k]
        poles = tuple(rng.sample(candidates, 2))
        residues = tuple(rng.choice((1, -1)) * _unit_rational(rng) for _ in poles)
        return _OrderOne(residues, poles)

    @property
    def expr(self) -> str:
        terms = "".join(f" - ({r})/(z{_signed(-a)})" for r, a in zip(self.residues, self.poles))
        return "D" + terms

    def exponents(self) -> dict:
        out = {str(a): _exps([r]) for r, a in zip(self.residues, self.poles)}
        out["inf"] = _exps([-sum(self.residues)])
        return out


def _exponents_at(op, point: str) -> Invocation:
    return Invocation(("exponents", op.expr, f"--point={point}"), {point: op.exponents()[point]})


def build(workload: str, seed: int) -> list[Invocation]:
    """The invocation list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    hyp = _Hypergeometric.draw(rng)
    # sizes keep one pass near 4 s, so a run of 30-40 s times every
    # invocation about seven times and its median outlasts short slowdowns
    if workload == "scan":
        return [
            Invocation(("scan", "--catalog", "gauss2f1", "--primes", "2..30")),
            Invocation(("scan", "--catalog", "order1-half", "--primes", "2..100")),
            Invocation(("scan", "--catalog", "polylog:3", "--primes", "2..70")),
            Invocation(("scan", "--catalog", "theta2m2", "--primes", "2..40")),
            Invocation(("scan", hyp.expr, "--primes", "2..24")),
        ]
    if workload == "growth":
        return [
            Invocation(("bombieri", "--catalog", "polylog:3", "--s", "60", "--prime-bound", "61")),
            Invocation(("bombieri", "--catalog", "polylog:2", "--s", "90", "--prime-bound", "89")),
            Invocation(("size", "--catalog", "polylog:2", "--s", "80", "--prime-bound", "79")),
            Invocation(("radius", "--catalog", "polylog:3", "--prime", "3", "--smax", "110")),
            Invocation(("galochkin", "--catalog", "gauss2f1", "--smax", "150")),
            Invocation(("size", hyp.expr, "--s", "30", "--prime-bound", "31")),
        ]
    o1 = _OrderOne.draw(rng)
    pole = str(rng.choice(o1.poles))
    hyp_point = rng.choice(("0", "1"))
    return [
        Invocation(("catalog", "list")),
        Invocation(("catalog", "get", rng.choice(_CATALOG_IDS))),
        Invocation(("classify", "--catalog", "gauss2f1")),
        Invocation(("classify", "--catalog", "theta2m2")),
        Invocation(("classify", hyp.expr), hyp.exponents()),
        Invocation(("classify", o1.expr), o1.exponents()),
        _exponents_at(hyp, hyp_point),
        _exponents_at(hyp, "inf"),
        _exponents_at(o1, pole),
        _exponents_at(o1, "inf"),
        Invocation(("exponents", "--catalog", "gauss2f1", "--point", "inf")),
        Invocation(("pade", "--catalog", "polylog:2", "--N", "20", "--M", "6")),
        Invocation(("pade", "--catalog", "polylog:3", "--N", "14", "--M", "4")),
        Invocation(("pcurv", "--catalog", "polylog:2", "--prime", "13")),
        Invocation(("pcurv", hyp.expr, "--prime", "17")),
    ]
