"""Exact rational, polynomial and rational-function arithmetic over Q.

Everything here is immutable and pure.  Polynomials are dense lists of
``Fraction`` coefficients (index = degree); rational functions keep a monic,
coprime denominator.  Valuations follow the logarithmic convention: the Gauss
absolute value p^(-v) is represented by the integer v, with the zero function
mapped to :data:`GAUSS_INF`, which is ``math.inf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


# ---------------------------------------------------------------------------
# integer-level helpers


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("vp of 0 is undefined at the integer level")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = as_fraction(q)
    if q == 0:
        raise ValueError("vp of 0 is undefined")
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def digit_sum_base(n: int, p: int) -> int:
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def kummer_vp_factorial(n: int, p: int) -> int:
    """v_p(n!) computed from the base-p digit sum of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n - digit_sum_base(n, p)) // (p - 1)


def accolade(s: int, m: int, p: int) -> int:
    """Valuation of the largest inverse p-part of a product of m distinct
    integers in 1..s: returns -(sum of the m largest v_p values).

    Convention: m = 0 gives 0.  When m exceeds s, all available integers are
    used.  The absolute value is p^(-returned value).
    """
    if m <= 0 or s <= 0:
        return 0
    vals = sorted((vp_int(k, p) for k in range(1, s + 1)), reverse=True)
    return -sum(vals[: min(m, s)])


def primes_upto(n: int) -> list[int]:
    """Primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(n**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(sieve[q * q :: q])
    return [i for i, flag in enumerate(sieve) if flag]


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CHECK_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_CHECK_BOUND."""
    if n >= PRIME_CHECK_BOUND:
        raise ValueError(f"is_prime is exact only below {PRIME_CHECK_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


# the Gauss valuation of the zero function
GAUSS_INF = math.inf


# ---------------------------------------------------------------------------
# dense polynomials over Q


class Poly:
    """Dense univariate polynomial over Q.  Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors

    @staticmethod
    def const(c) -> "Poly":
        return Poly([as_fraction(c)])

    @staticmethod
    def x(power: int = 1, coeff=1) -> "Poly":
        return Poly([0] * power + [coeff])

    ZERO: "Poly"
    ONE: "Poly"

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations

    def __add__(self, other):
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        """Product with a scalar, coefficient by coefficient, or with a
        polynomial, by _cleared_product on the integer numerators of both
        factors; either way every coefficient is a canonical Fraction."""
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return Poly([c * a for a in self.coeffs])
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        size = len(self.coeffs) + len(other.coeffs) - 1
        return Poly(_cleared_product(self.coeffs, other.coeffs, size))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = Poly.const(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lb = other.degree, other.leading()
        if self.degree < db:
            return Poly(), self
        quo = [Fraction(0)] * (self.degree - db + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[db + k] / lb
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return Poly(quo), Poly(rem[:db])

    def __mod__(self, other):
        return self.divmod(_as_poly(other))[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    # -- calculus and evaluation

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, a) -> Fraction:
        a = as_fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def shift_argument(self, a) -> "Poly":
        """p(z + a)."""
        return self.compose(Poly([as_fraction(a), 1]))

    def reversed_coeffs(self, length: int) -> "Poly":
        """z^length * p(1/z); requires length >= degree."""
        if length < self.degree:
            raise ValueError("length must be at least the degree")
        out = [Fraction(0)] * (length + 1)
        for i, c in enumerate(self.coeffs):
            out[length - i] = c
        return Poly(out)

    # -- content, roots, factor tools

    def content(self) -> Fraction:
        """Positive rational c with self/c integer primitive; 0 for 0."""
        if self.is_zero():
            return Fraction(0)
        num = math.gcd(*(c.numerator for c in self.coeffs))
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        """Integer-coefficient primitive form with positive leading coefficient."""
        if self.is_zero():
            return self
        c = self.content()
        p = self * (1 / c)
        return -p if p.leading() < 0 else p

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * (1 / self.leading())

    def valuation_at_zero(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError

    def root_multiplicity(self, a) -> int:
        """Multiplicity of the rational root a (0 when not a root)."""
        a = as_fraction(a)
        p, m = self, 0
        lin = Poly([-a, 1])
        while not p.is_zero() and p.evaluate(a) == 0:
            p = p.exact_div(lin)
            m += 1
        return m

    def factor_multiplicity(self, f: "Poly") -> int:
        """Largest k with f^k dividing self exactly."""
        if f.degree < 1:
            raise ValueError("factor must be nonconstant")
        p, k = self, 0
        while not p.is_zero():
            q, r = p.divmod(f)
            if not r.is_zero():
                break
            p, k = q, k + 1
        return k

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, sorted."""
        if self.is_zero():
            raise ValueError("zero polynomial has every root")
        p = self.primitive()
        roots = []
        v = p.valuation_at_zero()
        if v:
            roots.append((Fraction(0), v))
            p = Poly(p.coeffs[v:])
        if p.degree >= 1:
            a0 = int(p.constant())
            an = int(p.leading())
            bound = 1 + max(abs(c) / abs(p.leading()) for c in p.coeffs)
            seen = set()
            for num in _divisors(a0):
                for den in _divisors(an):
                    cand = Fraction(num, den)
                    if cand > bound:
                        continue
                    for r in (cand, -cand):
                        if r in seen:
                            continue
                        seen.add(r)
                        m = p.root_multiplicity(r)
                        if m:
                            roots.append((r, m))
        return sorted(roots)

    def squarefree_decomposition(self) -> list[tuple["Poly", int]]:
        """Yun decomposition [(g_i, i)] with self = content * prod g_i^i."""
        if self.degree < 1:
            return []
        p = self.monic()
        d = p.derivative()
        a = poly_gcd(p, d)
        b, c = p.exact_div(a), d.exact_div(a)
        out, i = [], 1
        while b.degree >= 1:
            d2 = c - b.derivative()
            g = poly_gcd(b, d2)
            if g.degree >= 1:
                out.append((g.monic(), i))
            b = b.exact_div(g)
            c = d2.exact_div(g)
            i += 1
        return out

    def __repr__(self):
        return f"Poly({poly_text(self)})"


Poly.ZERO = Poly()
Poly.ONE = Poly([1])


def _cleared(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, d) with cs[i] = nums[i] / d, d the lcm of the denominators."""
    d = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


def _cleared_product(xs: Sequence[Fraction], ys: Sequence[Fraction], size: int) -> list[Fraction]:
    """The first size coefficients of (sum xs[i] z^i)(sum ys[j] z^j) over Q.

    Both factors are cleared to integers over the lcm of their denominators,
    multiplied by slices on the integers, and each output coefficient becomes
    one canonical Fraction over the product of the two lcms: one gcd per
    output coefficient instead of one per term of the schoolbook sum."""
    a, da = _cleared(xs[:size])
    b, db = _cleared(ys[:size])
    if len(a) < len(b):
        a, b = b, a
    width = len(a)
    acc = [0] * size
    for i, x in enumerate(b):
        if x:
            acc[i : i + width] = [u + x * y for u, y in zip(acc[i : i + width], a)]
    d = da * db
    return [Fraction(c, d) for c in acc]


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly()
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def poly_text(p: Poly, var: str = "z") -> str:
    """Readable rendering, parseable by the CLI expression grammar."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def resultant(f: Poly, g: Poly) -> Fraction:
    """Resultant over Q via fraction-free elimination of the Sylvester matrix."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    m, n = f.degree, g.degree
    if m == 0:
        return f.constant() ** n
    if n == 0:
        return g.constant() ** m
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                for c2 in range(col, size):
                    rows[r][c2] -= factor * rows[col][c2]
    return det


# ---------------------------------------------------------------------------
# rational functions


class RatFn:
    """Element of Q(z): num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly.ONE):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.ONE
        else:
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num, den = num.exact_div(g), den.exact_div(g)
            lc = den.leading()
            if lc != 1:
                num, den = num * (1 / lc), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFn is immutable")

    @staticmethod
    def _reduced(num: Poly, den: Poly) -> "RatFn":
        """Trusted constructor: caller guarantees den monic, gcd(num, den) = 1."""
        self = object.__new__(RatFn)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den if not num.is_zero() else Poly.ONE)
        return self

    @staticmethod
    def const(c) -> "RatFn":
        return RatFn(Poly.const(c))

    ZERO: "RatFn"
    ONE: "RatFn"
    Z: "RatFn"

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        return self.num

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = as_ratfn(other) if not isinstance(other, RatFn) else other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFn", self.num, self.den))

    def __add__(self, other):
        other = as_ratfn(other)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn._reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-as_ratfn(other))

    def __rsub__(self, other):
        return as_ratfn(other) + (-self)

    def __mul__(self, other):
        other = as_ratfn(other)
        if self.is_zero() or other.is_zero():
            return RatFn.ZERO
        # cross-reduce first to keep intermediate degrees small
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num.exact_div(g1) if g1.degree >= 1 else self.num
        d2 = other.den.exact_div(g1) if g1.degree >= 1 else other.den
        n2 = other.num.exact_div(g2) if g2.degree >= 1 else other.num
        d1 = self.den.exact_div(g2) if g2.degree >= 1 else self.den
        return RatFn(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_ratfn(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFn(other.den, other.num)

    def __rtruediv__(self, other):
        return as_ratfn(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFn.ONE / (self ** (-n))
        return RatFn(self.num**n, self.den**n)

    def derivative(self) -> "RatFn":
        return RatFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, a) -> Fraction:
        a = as_fraction(a)
        d = self.den.evaluate(a)
        if d == 0:
            raise ZeroDivisionError(f"pole at {a}")
        return self.num.evaluate(a) / d

    def order_at(self, a) -> int:
        """Order of vanishing at z = a (negative for a pole); raises on 0."""
        if self.is_zero():
            raise ValueError("zero function")
        return self.num.root_multiplicity(a) - self.den.root_multiplicity(a)

    def order_at_zero(self) -> int:
        if self.is_zero():
            raise ValueError("zero function")
        return self.num.valuation_at_zero() - self.den.valuation_at_zero()

    def order_at_infinity(self) -> int:
        """Order of vanishing at infinity = deg den - deg num."""
        if self.is_zero():
            raise ValueError("zero function")
        return self.den.degree - self.num.degree

    def shift_argument(self, a) -> "RatFn":
        """f(z + a)."""
        return RatFn(self.num.shift_argument(a), self.den.shift_argument(a))

    def invert_argument(self) -> "RatFn":
        """f(1/z)."""
        if self.is_zero():
            return self
        m = max(self.num.degree, self.den.degree)
        return RatFn(self.num.reversed_coeffs(m), self.den.reversed_coeffs(m))

    def laurent_at_zero(self, terms: int) -> tuple[int, list[Fraction]]:
        """(valuation v, [c_0..c_{terms-1}]) with f = z^v (c_0 + c_1 z + ...),
        c_0 nonzero.  The zero function returns (0, zeros)."""
        if self.is_zero():
            return 0, [Fraction(0)] * terms
        vn = self.num.valuation_at_zero()
        vd = self.den.valuation_at_zero()
        ncs = list(self.num.coeffs[vn:])
        dcs = list(self.den.coeffs[vd:])
        out: list[Fraction] = []
        inv0 = 1 / dcs[0]
        for k in range(terms):
            acc = ncs[k] if k < len(ncs) else Fraction(0)
            for j in range(1, min(k, len(dcs) - 1) + 1):
                acc -= dcs[j] * out[k - j]
            out.append(acc * inv0)
        return vn - vd, out

    def __repr__(self):
        return f"RatFn({ratfn_text(self)})"


RatFn.ZERO = RatFn._reduced(Poly.ZERO, Poly.ONE)
RatFn.ONE = RatFn._reduced(Poly.ONE, Poly.ONE)
RatFn.Z = RatFn._reduced(Poly.x(), Poly.ONE)


def as_ratfn(x) -> RatFn:
    if isinstance(x, RatFn):
        return x
    if isinstance(x, Poly):
        return RatFn(x)
    if isinstance(x, (int, Fraction)):
        return RatFn.const(x)
    raise TypeError(f"cannot interpret {x!r} as a rational function")


def ratfn_text(f: RatFn, var: str = "z") -> str:
    if f.den == Poly.ONE:
        return poly_text(f.num, var)
    return f"({poly_text(f.num, var)})/({poly_text(f.den, var)})"


# ---------------------------------------------------------------------------
# Gauss valuations


def poly_gauss_valuation(p: Poly, prime: int):
    """min over coefficients of v_p; GAUSS_INF for the zero polynomial."""
    if p.is_zero():
        return GAUSS_INF
    return min(vp_fraction(c, prime) for c in p.coeffs if c)


def gauss_valuation(f, prime: int):
    """Gauss valuation of f in Q(z): min coefficient valuation of the numerator
    minus that of the denominator.  GAUSS_INF exactly for f = 0."""
    f = as_ratfn(f)
    if f.is_zero():
        return GAUSS_INF
    return poly_gauss_valuation(f.num, prime) - poly_gauss_valuation(f.den, prime)


@lru_cache(maxsize=None)
def falling_factorial_poly(j: int) -> Poly:
    """x (x-1) ... (x-j+1) as a polynomial in x."""
    out = Poly.ONE
    for k in range(j):
        out = out * Poly([-k, 1])
    return out


def pochhammer(x: Fraction, m: int) -> Fraction:
    """Rising factorial (x)_m."""
    out = Fraction(1)
    for k in range(m):
        out *= x + k
    return out
