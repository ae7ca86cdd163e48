"""The non-commutative operator algebra Q(z)[d/dz] = Q(z)[theta].

Operators are immutable coefficient vectors over Q(z) in one of two bases:
powers of D = d/dz or powers of theta = z*d/dz, with one canonical text
rendering (operator_text).  An operator keeps the basis it was built in;
change_basis rewrites it in D, the form every analysis reads through its
companion matrix, and nothing converts D back to theta.  The module also
houses square matrices over Q(z) (RatMat, and companion matrices, computed
once per operator) and truncated power series with explicit order
bookkeeping.  It holds no series solver, does not apply operators to series
and does not translate operators to other points: local_analysis reads
every point, infinity included, off the cleared coefficients of the
companion system, and power-series solutions come from
local_analysis.regular_series_solutions.  RatMat has no arithmetic: the
derived matrices G_s of a system are never formed, and growth reads what it
needs off the cleared integer recurrence for H_s = T^s G_s.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact_arith import (
    Poly,
    RatFn,
    as_fraction,
    as_ratfn,
    ratfn_text,
)


class Basis(Enum):
    D = "D"
    THETA = "theta"


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def is_infinity(point) -> bool:
    return point is INFINITY or point == "inf"


@lru_cache(maxsize=None)
def _stirling2_row(m: int) -> tuple[int, ...]:
    """S(m, k) for k = 0..m: theta^m = sum_k S(m,k) z^k D^k."""
    if m == 0:
        return (1,)
    prev = _stirling2_row(m - 1)
    row = [0] * (m + 1)
    for k, v in enumerate(prev):
        row[k] += k * v
        row[k + 1] += v
    return tuple(row)


class DiffOp:
    """Linear differential operator: coeffs[k] multiplies the k-th power of
    the derivation symbol.  Leading coefficient nonzero; the zero operator
    has an empty coefficient tuple and order -1."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: Basis, coeffs: Sequence = ()):
        cs = [as_ratfn(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("DiffOp is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> RatFn:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else RatFn.ZERO

    def leading(self) -> RatFn:
        if self.is_zero():
            raise ValueError("zero operator")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, DiffOp)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.basis, self.coeffs))

    def __repr__(self):
        return f"DiffOp[{self.basis.value}]({operator_text(self)})"

    def scaled(self, r) -> "DiffOp":
        """Left multiplication by a rational function."""
        r = as_ratfn(r)
        return DiffOp(self.basis, [r * c for c in self.coeffs])

    def monic(self) -> "DiffOp":
        if self.is_zero():
            return self
        lead = self.leading()
        return DiffOp(self.basis, [c / lead for c in self.coeffs])


def operator_text(l: DiffOp) -> str:
    """Canonical rendering, parseable by cli.parse_operator."""
    if l.is_zero():
        return "0"
    sym = "D" if l.basis is Basis.D else "theta"
    parts = []
    for k in range(l.order, -1, -1):
        c = l.coeff(k)
        if c.is_zero():
            continue
        coeff = f"({ratfn_text(c)})"
        if k == 0:
            parts.append(coeff)
        elif k == 1:
            parts.append(f"{coeff}*{sym}")
        else:
            parts.append(f"{coeff}*{sym}^{k}")
    return " + ".join(parts)


def _derivation(basis: Basis, c: RatFn) -> RatFn:
    d = c.derivative()
    return d if basis is Basis.D else RatFn.Z * d


def _check_same_basis(a: DiffOp, b: DiffOp) -> Basis:
    if a.order <= 0:
        return b.basis
    if b.order <= 0:
        return a.basis
    if a.basis is not b.basis:
        raise ValueError("operator product across bases; convert explicitly")
    return a.basis


def op_add(a: DiffOp, b: DiffOp) -> DiffOp:
    basis = _check_same_basis(a, b)
    n = max(len(a.coeffs), len(b.coeffs))
    return DiffOp(basis, [a.coeff(k) + b.coeff(k) for k in range(n)])


def op_sub(a: DiffOp, b: DiffOp) -> DiffOp:
    return op_add(a, DiffOp(b.basis, [-c for c in b.coeffs]))


def _symbol_shift(basis: Basis, m: DiffOp) -> DiffOp:
    """Left compose with the derivation symbol: X o M."""
    out = [RatFn.ZERO] * (len(m.coeffs) + 1)
    for t, c in enumerate(m.coeffs):
        out[t + 1] += c
        out[t] += _derivation(basis, c)
    return DiffOp(basis, out)


def op_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """Non-commutative product; X*c = c*X + X(c)."""
    basis = _check_same_basis(a, b)
    if a.is_zero() or b.is_zero():
        return DiffOp(basis)
    acc = DiffOp(basis)
    cur = DiffOp(basis, b.coeffs)
    for i, c in enumerate(a.coeffs):
        if i:
            cur = _symbol_shift(basis, cur)
        if not c.is_zero():
            acc = op_add(acc, cur.scaled(c))
    return acc


def op_pow(a: DiffOp, n: int) -> DiffOp:
    """a^n by repeated squaring; powers of one operator commute."""
    out = DiffOp(a.basis, [RatFn.ONE])
    while n:
        if n & 1:
            out = op_mul(out, a)
        n >>= 1
        if n:
            a = op_mul(a, a)
    return out


def change_basis(l: DiffOp) -> DiffOp:
    """The D-basis form of l, exact: theta^m = sum_k S(m,k) z^k D^k."""
    if l.basis is Basis.D:
        return l
    out = [RatFn.ZERO] * len(l.coeffs)
    for m, c in enumerate(l.coeffs):
        if c.is_zero():
            continue
        for k, s in enumerate(_stirling2_row(m)):
            if s:
                out[k] += c * RatFn(Poly.x(k, s))
    return DiffOp(Basis.D, out)


# ---------------------------------------------------------------------------
# matrices over Q(z)


class RatMat:
    """Square matrix over Q(z)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(as_ratfn(e) for e in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("RatMat is immutable")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, RatMat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RatMat({[[repr(e) for e in row] for row in self.entries]})"


@lru_cache(maxsize=None)
def companion(l: DiffOp) -> RatMat:
    """Companion matrix of the monic D-basis form: superdiagonal ones, last
    row (-a_n, ..., -a_1)."""
    ld = change_basis(l).monic()
    n = ld.order
    if n < 1:
        raise ValueError("companion matrix needs order >= 1")
    rows = [[RatFn.ZERO] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = RatFn.ONE
    for j in range(n):
        rows[n - 1][j] = -ld.coeff(j)
    return RatMat(rows)


# ---------------------------------------------------------------------------
# truncated power series


class TruncatedSeries:
    """Power series over Q known modulo z^trunc_order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def valuation(self):
        """Index of the first nonzero known coefficient, or None when the
        series vanishes to the whole known order."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __sub__(self, other: "TruncatedSeries"):
        m = min(self.trunc_order, other.trunc_order)
        return TruncatedSeries([self.coeffs[i] - other.coeffs[i] for i in range(m)])

    def mul_poly(self, p: Poly) -> "TruncatedSeries":
        """The product with p, known to the same order: Poly's integer
        product, truncated to trunc_order."""
        prod = Poly(self.coeffs).truncated_product(p, self.trunc_order)
        return TruncatedSeries([prod[k] for k in range(self.trunc_order)])

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.trunc_order > 6 else ""
        return f"TruncatedSeries([{shown}{tail}] mod z^{self.trunc_order})"
