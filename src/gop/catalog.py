"""Worked-example constructors and the catalog of named examples.

The catalog is the shared fixture set: polylogarithm chains, a Gauss
hypergeometric operator, the first-order examples, and the irrational
exponent counterexample, each with the closed-form series coefficients
(CoeffGenerator) that the tests check the analysis pipelines against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Optional, Sequence

from .diffop import Basis, DiffOp, RatMat, TruncatedSeries, op_mul, op_pow, op_sub
from .errors import InvalidParameters
from .exact_arith import Poly, RatFn, as_fraction, pochhammer


# ---------------------------------------------------------------------------
# coefficient generators


class CoeffGenerator(NamedTuple):
    """Deterministic closed-form coefficient rule a_n in Q."""

    rule: str
    params: tuple = ()

    def coeff(self, n: int) -> Fraction:
        if self.rule == "constant":
            return as_fraction(self.params[0]) if n == 0 else Fraction(0)
        if self.rule == "geometric":
            return Fraction(1)
        if self.rule == "polylog":
            s = self.params[0]
            return Fraction(0) if n == 0 else Fraction(1, n**s)
        if self.rule == "reciprocal_factorial":
            return Fraction(1, math.factorial(n))
        if self.rule == "sqrt_one_minus_z":
            # (1-z)^(1/2) = sum binom(1/2, n) (-z)^n
            num = Fraction(1)
            for k in range(n):
                num *= Fraction(1, 2) - k
            return num / math.factorial(n) * (-1) ** n
        if self.rule == "hypergeom":
            alphas, betas = self.params
            num = Fraction(1)
            for a in alphas:
                num *= pochhammer(as_fraction(a), n)
            den = Fraction(math.factorial(n))
            for b in betas:
                den *= pochhammer(as_fraction(b), n)
            return num / den
        raise ValueError(f"unknown rule {self.rule!r}")

    def series(self, order: int) -> TruncatedSeries:
        return TruncatedSeries([self.coeff(n) for n in range(order)])


# ---------------------------------------------------------------------------
# polylogarithms


def polylog_operator(s: int) -> DiffOp:
    """Operator annihilating the weight-s polylogarithm, built by composing
    ((1-z) D^2 - D) with theta^(s-1)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    log_op = DiffOp(Basis.D, [0, -1, Poly([1, -1])])
    theta_d = DiffOp(Basis.D, [0, RatFn.Z])
    return op_mul(log_op, op_pow(theta_d, s - 1))


def polylog_system(s: int) -> RatMat:
    """System matrix for the vector (1, Li_1, ..., Li_s)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    n = s + 1
    rows = [[RatFn.ZERO] * n for _ in range(n)]
    rows[1][0] = RatFn(Poly.ONE, Poly([1, -1]))  # 1/(1-z)
    for k in range(2, n):
        rows[k][k - 1] = RatFn(Poly.ONE, Poly.x())
    return RatMat(rows)


def polylog_components(s: int) -> tuple[CoeffGenerator, ...]:
    return (CoeffGenerator("constant", (1,)),) + tuple(
        CoeffGenerator("polylog", (k,)) for k in range(1, s + 1)
    )


# ---------------------------------------------------------------------------
# hypergeometric operators


def hypergeom_operator(alphas: Sequence, betas: Sequence) -> DiffOp:
    """theta-basis operator
    theta (theta+b_1-1) ... (theta+b_{n-1}-1) - z (theta+a_1) ... (theta+a_n)."""
    alphas = [as_fraction(a) for a in alphas]
    betas = [as_fraction(b) for b in betas]
    n = len(alphas)
    if n < 1 or len(betas) != n - 1:
        raise InvalidParameters("need n alphas and n-1 betas")
    for b in betas:
        if b.denominator == 1 and b <= 0:
            raise InvalidParameters(f"beta {b} is a non-positive integer")
    left = DiffOp(Basis.THETA, [0, 1])
    for b in betas:
        left = op_mul(left, DiffOp(Basis.THETA, [b - 1, 1]))
    right = DiffOp(Basis.THETA, [RatFn.Z])
    for a in alphas:
        right = op_mul(right, DiffOp(Basis.THETA, [a, 1]))
    return op_sub(left, right)


def hypergeom_series(alphas: Sequence, betas: Sequence) -> CoeffGenerator:
    return CoeffGenerator(
        "hypergeom",
        (tuple(as_fraction(a) for a in alphas), tuple(as_fraction(b) for b in betas)),
    )


# ---------------------------------------------------------------------------
# other constructors and checks


def order1_g_operator(residues: Sequence, poles: Sequence) -> DiffOp:
    """D - sum r_j / (z - a_j)."""
    residues = [as_fraction(r) for r in residues]
    poles = [as_fraction(a) for a in poles]
    if len(set(poles)) != len(poles):
        raise ValueError("poles must be distinct")
    acc = RatFn.ZERO
    for r, a in zip(residues, poles):
        acc = acc + RatFn(Poly.const(r), Poly([-a, 1]))
    return DiffOp(Basis.D, [-acc, 1])


def counterexample_theta2_minus_2() -> DiffOp:
    """theta^2 - 2: everywhere regular but with irrational exponents."""
    return DiffOp(Basis.THETA, [-2, 0, 1])


# ---------------------------------------------------------------------------
# the catalog proper


class CatalogEntry(NamedTuple):
    id: str
    description: str
    operator: DiffOp
    system: Optional[RatMat]
    components: tuple[CoeffGenerator, ...]
    solution: Optional[CoeffGenerator]
    ordinary_point: Fraction


def _polylog_entry(s: int, entry_id: Optional[str] = None) -> CatalogEntry:
    """The weight-s polylogarithm entry, under entry_id as spelled by the
    caller (default polylog:<s>)."""
    return CatalogEntry(
        id=entry_id or f"polylog:{s}",
        description=f"weight-{s} polylogarithm operator and its chain system",
        operator=polylog_operator(s),
        system=polylog_system(s),
        components=polylog_components(s),
        solution=CoeffGenerator("polylog", (s,)),
        ordinary_point=Fraction(0) if s == 1 else Fraction(1, 2),
    )


# builders of the named entries, in catalog order; each entry is built on
# first use, so a command that looks up one entry builds only that one
_NAMED = {
    "polylog:1": lambda: _polylog_entry(1),
    "polylog:2": lambda: _polylog_entry(2),
    "gauss2f1": lambda: CatalogEntry(
        id="gauss2f1",
        description="hypergeometric operator with parameters 1/2, 1/2; 1",
        operator=hypergeom_operator([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)]),
        system=None,
        components=(),
        solution=hypergeom_series([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)]),
        ordinary_point=Fraction(1, 2),
    ),
    "theta2m2": lambda: CatalogEntry(
        id="theta2m2",
        description="theta^2 - 2, regular everywhere with irrational exponents",
        operator=counterexample_theta2_minus_2(),
        system=None,
        components=(),
        solution=None,
        ordinary_point=Fraction(1),
    ),
    "d-minus-1": lambda: CatalogEntry(
        id="d-minus-1",
        description="D - 1, exponential growth with an irregular point at infinity",
        operator=DiffOp(Basis.D, [-1, 1]),
        system=RatMat([[1]]),
        components=(CoeffGenerator("reciprocal_factorial"),),
        solution=CoeffGenerator("reciprocal_factorial"),
        ordinary_point=Fraction(0),
    ),
    "order1-half": lambda: CatalogEntry(
        id="order1-half",
        description="first-order operator with residue 1/2 at z = 1",
        operator=order1_g_operator([Fraction(1, 2)], [Fraction(1)]),
        system=None,
        components=(),
        solution=CoeffGenerator("sqrt_one_minus_z"),
        ordinary_point=Fraction(0),
    ),
}


@cache
def _named_entry(entry_id: str) -> CatalogEntry:
    return _NAMED[entry_id]()


def __getattr__(name: str):
    """CATALOG, the dict id -> entry of every named entry, built on first
    access (PEP 562); only `catalog list` and the tests read it."""
    if name == "CATALOG":
        global CATALOG
        CATALOG = {entry_id: _named_entry(entry_id) for entry_id in _NAMED}
        return CATALOG
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def catalog_ids() -> list[str]:
    return list(_NAMED)


# the largest weight catalog_get builds for "polylog:<s>": the operator comes
# from composing theta^(s-1), whose cost grows fast (about 1.4 s at weight 30,
# 5 s at 60, and weight 150 does not finish in 20 s)
POLYLOG_MAX_WEIGHT = 30


def catalog_get(entry_id: str) -> CatalogEntry:
    if entry_id in _NAMED:
        return _named_entry(entry_id)
    if entry_id.startswith("polylog:"):
        s = int(entry_id.split(":", 1)[1])
        if s > POLYLOG_MAX_WEIGHT:
            raise ValueError(f"polylog weight must be <= {POLYLOG_MAX_WEIGHT}, got {s}")
        return _polylog_entry(s, entry_id)
    raise KeyError(f"unknown catalog id {entry_id!r}")
