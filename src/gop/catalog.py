"""Worked-example constructors and coefficient-growth checkers.

The catalog is the shared fixture set: polylogarithm chains, a Gauss
hypergeometric operator, the first-order examples, and the irrational
exponent counterexample, each with the series data needed to cross-check
the analysis pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .diffop import Basis, DiffOp, RatMat, TruncatedSeries, companion, op_mul, op_pow, op_sub
from .errors import InvalidParameters, UnsupportedParameters
from .exact_arith import Poly, RatFn, as_fraction, common_denominator, pochhammer


# ---------------------------------------------------------------------------
# coefficient generators


@dataclass(frozen=True)
class CoeffGenerator:
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
        if self.rule == "factorial":
            return Fraction(math.factorial(n))
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


def hypergeom_expected_exponents(alphas, betas) -> dict:
    """The three local exponent lists of the hypergeometric operator."""
    alphas = [as_fraction(a) for a in alphas]
    betas = [as_fraction(b) for b in betas]
    n = len(alphas)
    at_zero = [Fraction(0)] + [1 - b for b in betas]
    at_one = [Fraction(k) for k in range(n - 1)] + [
        -alphas[-1] + sum(betas) - sum(alphas[:-1])
    ]
    return {
        "0": sorted(at_zero),
        "1": sorted(at_one),
        "inf": sorted(alphas),
    }


# ---------------------------------------------------------------------------
# quadratic-irrational parameters


def _squarefree(d: int) -> bool:
    d = abs(d)
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class QuadParam:
    """Parameter a + b*sqrt(d) with rational a, b and squarefree d."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.b != 0:
            if self.d in (0, 1) or not _squarefree(self.d):
                raise InvalidParameters("d must be squarefree, not 0 or 1")

    @staticmethod
    def rational(q) -> "QuadParam":
        return QuadParam(as_fraction(q), Fraction(0), 2)

    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        if not isinstance(other, QuadParam):
            return NotImplemented
        if self.is_rational() and other.is_rational():
            return self.a == other.a
        return self.a == other.a and self.b == other.b and self.d == other.d


def hypergeom_is_gfunction(
    alphas: Sequence[QuadParam], betas: Sequence[QuadParam]
) -> bool:
    """Growth classification of the hypergeometric series with parameters in
    Q or a fixed real quadratic field: true iff every parameter is rational,
    or the irrational ones pair off as (alpha, beta) with alpha - beta a
    nonnegative integer."""
    alphas, betas = list(alphas), list(betas)
    radicands = {p.d for p in alphas + betas if not p.is_rational()}
    if len(radicands) > 1:
        raise UnsupportedParameters(f"mixed radicands {sorted(radicands)}")
    for b in betas:
        if b.is_rational() and b.a.denominator == 1 and b.a <= 0:
            raise InvalidParameters("non-positive integer beta")
    for a in alphas:
        for b in betas:
            if a == b:
                raise InvalidParameters("alpha equal to beta is excluded")
    irr_a = [p for p in alphas if not p.is_rational()]
    irr_b = [p for p in betas if not p.is_rational()]
    if not irr_a and not irr_b:
        return True
    if len(irr_a) != len(irr_b):
        return False

    def pairs_ok(remaining_a, remaining_b):
        if not remaining_a:
            return True
        a = remaining_a[0]
        for i, b in enumerate(remaining_b):
            diff_b = a.b - b.b
            diff_a = a.a - b.a
            if diff_b == 0 and diff_a.denominator == 1 and diff_a >= 0:
                if pairs_ok(remaining_a[1:], remaining_b[:i] + remaining_b[i + 1 :]):
                    return True
        return False

    return pairs_ok(irr_a, irr_b)


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


@dataclass(frozen=True)
class GrowthReport:
    n_max: int
    bound: Fraction
    house_ok: bool
    denominator_ok: bool
    first_house_violation: Optional[int]
    first_denominator_violation: Optional[int]
    min_c_estimate: float

    @property
    def passed(self) -> bool:
        return self.house_ok and self.denominator_ok


def gfunction_growth_check(gen: CoeffGenerator, n_max: int, c) -> GrowthReport:
    """Exact check of |a_n| <= C^(n+1) and den(a_0..a_n) <= C^(n+1) for all
    n <= n_max, plus the smallest empirical C as a float."""
    c = as_fraction(c)
    coeffs = [gen.coeff(n) for n in range(n_max + 1)]
    house_bad = den_bad = None
    min_c = 0.0
    den = 1
    power = c
    for n, a in enumerate(coeffs):
        den = math.lcm(den, a.denominator)
        if abs(a) > power and house_bad is None:
            house_bad = n
        if den > power and den_bad is None:
            den_bad = n
        worst = max(abs(a), Fraction(den))
        if worst > 1:
            min_c = max(min_c, float(worst) ** (1.0 / (n + 1)))
        power *= c
    return GrowthReport(
        n_max=n_max,
        bound=c,
        house_ok=house_bad is None,
        denominator_ok=den_bad is None,
        first_house_violation=house_bad,
        first_denominator_violation=den_bad,
        min_c_estimate=min_c,
    )


def eisenstein_check(gen: CoeffGenerator, c: int, n_max: int) -> bool:
    """True iff c^n a_n is an integer for all n <= n_max."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    scale = 1
    for n in range(n_max + 1):
        if (gen.coeff(n) * scale).denominator != 1:
            return False
        scale *= c
    return True


# ---------------------------------------------------------------------------
# the catalog proper


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    operator: DiffOp
    system: Optional[RatMat]
    components: tuple[CoeffGenerator, ...]
    solution: Optional[CoeffGenerator]
    ordinary_point: Fraction


def _entries() -> list[CatalogEntry]:
    out = []
    for s in (1, 2):
        out.append(
            CatalogEntry(
                id=f"polylog:{s}",
                description=f"weight-{s} polylogarithm operator and its chain system",
                operator=polylog_operator(s),
                system=polylog_system(s),
                components=polylog_components(s),
                solution=CoeffGenerator("polylog", (s,)),
                ordinary_point=Fraction(0) if s == 1 else Fraction(1, 2),
            )
        )
    out.append(
        CatalogEntry(
            id="gauss2f1",
            description="hypergeometric operator with parameters 1/2, 1/2; 1",
            operator=hypergeom_operator([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)]),
            system=None,
            components=(),
            solution=hypergeom_series([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)]),
            ordinary_point=Fraction(1, 2),
        )
    )
    out.append(
        CatalogEntry(
            id="theta2m2",
            description="theta^2 - 2, regular everywhere with irrational exponents",
            operator=counterexample_theta2_minus_2(),
            system=None,
            components=(),
            solution=None,
            ordinary_point=Fraction(1),
        )
    )
    out.append(
        CatalogEntry(
            id="d-minus-1",
            description="D - 1, exponential growth with an irregular point at infinity",
            operator=DiffOp(Basis.D, [-1, 1]),
            system=RatMat([[1]]),
            components=(CoeffGenerator("reciprocal_factorial"),),
            solution=CoeffGenerator("reciprocal_factorial"),
            ordinary_point=Fraction(0),
        )
    )
    out.append(
        CatalogEntry(
            id="order1-half",
            description="first-order operator with residue 1/2 at z = 1",
            operator=order1_g_operator([Fraction(1, 2)], [Fraction(1)]),
            system=None,
            components=(),
            solution=CoeffGenerator("sqrt_one_minus_z"),
            ordinary_point=Fraction(0),
        )
    )
    return out


CATALOG: dict[str, CatalogEntry] = {e.id: e for e in _entries()}


def catalog_ids() -> list[str]:
    return list(CATALOG)


# the largest weight catalog_get builds for "polylog:<s>": the operator comes
# from composing theta^(s-1), whose cost grows fast (about 1.4 s at weight 30,
# 5 s at 60, and weight 150 does not finish in 20 s)
POLYLOG_MAX_WEIGHT = 30


def catalog_get(entry_id: str) -> CatalogEntry:
    if entry_id in CATALOG:
        return CATALOG[entry_id]
    if entry_id.startswith("polylog:"):
        s = int(entry_id.split(":", 1)[1])
        if s > POLYLOG_MAX_WEIGHT:
            raise ValueError(f"polylog weight must be <= {POLYLOG_MAX_WEIGHT}, got {s}")
        return CatalogEntry(
            id=entry_id,
            description=f"weight-{s} polylogarithm operator and its chain system",
            operator=polylog_operator(s),
            system=polylog_system(s),
            components=polylog_components(s),
            solution=CoeffGenerator("polylog", (s,)),
            ordinary_point=Fraction(0) if s == 1 else Fraction(1, 2),
        )
    raise KeyError(f"unknown catalog id {entry_id!r}")


def catalog_systems() -> list[tuple[str, RatMat]]:
    """The systems exercised by system-level invariants: the polylog chain
    vectors and the polylog companion systems, plus the order-one examples.

    The theta^2 - 2 and hypergeometric companions are deliberately absent:
    their fundamental solutions are not analytic on the generic unit disk at
    inert (resp. ramified) primes, so derivative-bound checks do not apply.
    """
    out = [
        ("d-minus-1", RatMat([[1]])),
        ("order1-half", companion(order1_g_operator([Fraction(1, 2)], [Fraction(1)]))),
    ]
    for s in (1, 2):
        out.append((f"polylog:{s}:vector", polylog_system(s)))
        out.append((f"polylog:{s}:companion", companion(polylog_operator(s))))
    return out
