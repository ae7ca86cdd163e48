"""Exact rational, polynomial and rational-function arithmetic over Q.

Everything here is immutable and pure.  A polynomial is one tuple of integer
numerators over one positive denominator (index = degree), so its products,
divisions and gcds run on integers, and a module that needs integer
coefficients reads them off the polynomial instead of clearing Fractions
itself; rational functions keep a monic, coprime denominator.  Valuations follow the logarithmic convention: the Gauss
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
    if isinstance(x, (int, str)):
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
    """Immutable polynomial sum nums[i] z^i / den over Q, in FLINT's fmpq_poly
    form: den > 0, gcd(content(nums), den) = 1, no trailing zero in nums.
    Poly(coeffs, den) divides ints, Fractions or rational strings by den;
    coeffs reads the coefficients back as Fractions."""

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Sequence = (), den: int = 1):
        if not den:
            raise ZeroDivisionError("polynomial with zero denominator")
        cs = [as_fraction(c) for c in coeffs]
        d = math.lcm(*(c.denominator for c in cs))
        return _poly([c.numerator * (d // c.denominator) for c in cs], den * d)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def x(power: int = 1, coeff=1) -> "Poly":
        return Poly([0] * power + [coeff])

    ZERO: "Poly"
    ONE: "Poly"

    # -- structure

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.nums, self.den))

    def __bool__(self):
        return bool(self.nums)

    # -- ring operations

    def __add__(self, other):
        other = _as_poly(other)
        den = math.lcm(self.den, other.den)
        a = [x * (den // self.den) for x in self.nums]
        b = [x * (den // other.den) for x in other.nums]
        if len(a) < len(b):
            a, b = b, a
        return _poly([x + y for x, y in zip(a, b)] + a[len(b) :], den)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        """One integer slice convolution of the numerators and one gcd; a
        scalar is a constant polynomial."""
        other = _as_poly(other)
        return self.truncated_product(other, len(self.nums) + len(other.nums) - 1)

    __rmul__ = __mul__

    def truncated_product(self, other: "Poly", size: int) -> "Poly":
        """self * other modulo z^size."""
        a, b = self.nums[:size], other.nums[:size]
        if len(a) < len(b):
            a, b = b, a
        width = len(a)
        acc = [0] * max(0, min(size, width + len(b) - 1))
        for i, x in enumerate(b):
            if x:
                acc[i : i + width] = [u + x * y for u, y in zip(acc[i : i + width], a)]
        return _poly(acc, self.den * other.den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = Poly.ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Pseudo-division of the numerators by b, the primitive part of
        other's: s*nums = q*b + r on the integers.  A step whose top
        coefficient lc(b) does not divide first scales r, q and s by the
        missing factor.  When other divides self, the quotient is integral
        (Gauss's lemma), so every step is exact and s = 1."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.ZERO, self
        if other.degree == 0:
            return self * Fraction(other.den, other.nums[0]), Poly.ZERO
        g = math.gcd(*other.nums)
        b = [c // g for c in other.nums]
        rem, db, lb, s = list(self.nums), other.degree, b[-1], 1
        quo = [0] * (len(rem) - db)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[db + k]
            if c % lb:
                f = abs(lb) // math.gcd(c, lb)
                rem, quo, s = [x * f for x in rem], [x * f for x in quo], s * f
                c = rem[db + k]
            quo[k] = c = c // lb
            if c:
                rem[k : db + k + 1] = [x - c * y for x, y in zip(rem[k : db + k + 1], b)]
        return _poly([c * other.den for c in quo], s * self.den * g), _poly(rem[:db], s * self.den)

    def __mod__(self, other):
        return self.divmod(_as_poly(other))[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    # -- calculus and evaluation

    def derivative(self) -> "Poly":
        return _poly([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def evaluate(self, a) -> Fraction:
        """Horner's rule on sum nums[i] u^i v^(deg-i) / (den v^deg), a = u/v."""
        if not self.nums:
            return Fraction(0)
        a = as_fraction(a)
        u, v = a.numerator, a.denominator
        acc, scale = 0, 1
        for c in reversed(self.nums):
            acc = acc * u + c * scale
            scale *= v
        return Fraction(acc, self.den * scale // v)

    def compose(self, inner: "Poly") -> "Poly":
        """Horner's rule on sum nums[i] B^i e^(deg-i) / (den e^deg), inner = B/e."""
        b = _poly(inner.nums)
        acc, scale = Poly.ZERO, 1
        for c in reversed(self.nums):
            acc = acc * b + c * scale
            scale *= inner.den
        return _poly(acc.nums, self.den * inner.den ** max(self.degree, 0))

    def shift_argument(self, a) -> "Poly":
        """p(z + a)."""
        return self.compose(Poly([as_fraction(a), 1]))

    # -- content, roots, factor tools

    def content(self) -> Fraction:
        """Positive rational c with self/c integer primitive; 0 for 0."""
        return Fraction(math.gcd(*self.nums), self.den)

    def primitive(self) -> "Poly":
        """Integer-coefficient primitive form with positive leading coefficient."""
        if self.is_zero():
            return self
        return _poly(self.nums, math.gcd(*self.nums) * (1 if self.nums[-1] > 0 else -1))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return _poly(self.nums, self.nums[-1])

    def valuation_at_zero(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return next(i for i, c in enumerate(self.nums) if c)

    def root_multiplicity(self, a) -> int:
        """Multiplicity of the rational root a (0 when not a root)."""
        a = as_fraction(a)
        p, m, lin = self, 0, Poly([-a, 1])
        while p and p.evaluate(a) == 0:
            p, m = p.exact_div(lin), m + 1
        return m

    def factor_multiplicity(self, f: "Poly") -> int:
        """Largest k with f^k dividing self exactly."""
        if f.degree < 1:
            raise ValueError("factor must be nonconstant")
        p, k = self, 0
        while p:
            p, r = p.divmod(f)
            if r:
                break
            k += 1
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
            p = _poly(p.nums[v:])
        if p.degree >= 1:
            a0, an = p.nums[0], p.nums[-1]
            bound = 1 + Fraction(max(abs(c) for c in p.nums), an)
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


def _poly(nums: Sequence[int], den: int = 1) -> Poly:
    """The Poly sum nums[i] z^i / den, den a nonzero int, in canonical form."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums) * (1 if den > 0 else -1)
    p = object.__new__(Poly)
    object.__setattr__(p, "nums", tuple(c // g for c in nums) if g != 1 else tuple(nums))
    object.__setattr__(p, "den", den // g)
    return p


Poly.ZERO = _poly(())
Poly.ONE = _poly((1,))


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return _poly([x.numerator], x.denominator)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q by the primitive remainder sequence (Knuth, TAOCP
    vol. 2, 4.6.1): each remainder is replaced by its primitive part."""
    while b:
        a, b = b, (a % b).primitive()
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


def poly_det(mat: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix over Q[y] by fraction-free elimination
    (Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 1968).  After step k every entry below and to
    the right of the pivot is a (k+2)-minor of the row-swapped matrix, so the
    division by the previous pivot is exact and no entry leaves Q[y]."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, Poly.ONE
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Poly()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            a[i][k + 1 :] = [
                (pk * x - aik * y).exact_div(prev) for x, y in zip(a[i][k + 1 :], a[k][k + 1 :])
            ]
        prev = pk
    return a[-1][-1] if sign > 0 else -a[-1][-1]


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
        g1, g2 = poly_gcd(self.num, other.den), poly_gcd(other.num, self.den)
        num = self.num.exact_div(g1) * other.num.exact_div(g2)
        return RatFn(num, self.den.exact_div(g2) * other.den.exact_div(g1))

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
    return min(vp_int(c, prime) for c in p.nums if c) - vp_int(p.den, prime)


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
