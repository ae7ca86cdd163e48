"""Denominator growth and p-adic size/radius estimates for systems y' = Gy.

The whole module works off the denominator-cleared sequence H_s = T^s G_s,
which satisfies the polynomial recurrence

    H_{s+1} = H_s (TG) + T H_s' - s T' H_s,

stays integer once T is normalized integer-primitive, and shares Gauss
valuations with G_s (v(G_s) = v(H_s) because T has unit content at every
prime).  _step is the one implementation of this step, over Z and, given
a modulus, over Z/m: gs_sequence reads G_s = H_s / T^s off it,
pade.derived_tower runs it on a row vector with TG replaced by -(TG)^T, the
p-adic quantities below read the contents of its H_s, and
modp.ClearedSequenceMod runs it mod m until numpy pays for itself.

Every p-adic quantity reads the integer content c_m = gcd of the
coefficients of H_m, once per m for all primes: min v_p(H_m) = v_p(c_m), and
lcm over coefficients c of m!/gcd(m!, c) equals m!/gcd(m!, c_m).
Logarithmic quantities are carried as exact {prime: exponent} combinations
for as long as possible; floats appear only in reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .diffop import RatMat
from .errors import BadPrime
from .exact_arith import (
    GAUSS_INF,
    Poly,
    RatFn,
    accolade,
    as_ratfn,
    kummer_vp_factorial,
    poly_lcm,
    primes_upto,
    vp_int,
)
from . import modp


class _IntSystem:
    """Integer cleared form of a system plus the growing H_s list and the
    contents of its members."""

    def __init__(self, n: int, t: list[int], tg: list[list[list[int]]], hs: list):
        self.n = n
        self.t = t
        self.tg = tg
        self.hs = hs  # hs[s-1] = H_s as int coefficient lists
        self.contents: list[int] = []  # gcd of H_s's coefficients

    def h(self, s: int):
        while len(self.hs) < s:
            self._advance()
        return self.hs[s - 1]

    def content(self, s: int) -> int:
        """gcd of every coefficient of H_s; 0 when H_s vanishes."""
        while len(self.contents) < s:
            h = self.h(len(self.contents) + 1)
            self.contents.append(math.gcd(*(c for row in h for poly in row for c in poly)))
        return self.contents[s - 1]

    def vp(self, s: int, p: int):
        """min v_p over the coefficients of H_s; GAUSS_INF when H_s vanishes."""
        c = self.content(s)
        return vp_int(c, p) if c else GAUSS_INF

    def _advance(self):
        self.hs.append(_step(self.hs[-1], len(self.hs), self.t, self.tg))


def _step(h, s: int, t, tg, m: int | None = None):
    """H_{s+1} = H_s (TG) + T H_s' - s T' H_s, the one step over Z and, given
    a modulus m, over Z/m (every output coefficient reduced to [0, m)).
    h is any block of rows of H_s (n columns); the result has the same rows
    of H_{s+1}, each entry a coefficient list with trailing zeros trimmed."""
    n = len(tg)
    out = []
    for hrow in h:
        row = []
        for j in range(n):
            hj = hrow[j]
            # (H_s entry, TG entry) pairs whose products sum to column j of
            # H_s (TG); zero entries, common in TG, are skipped
            terms = [(hrow[k], tg[k][j]) for k in range(n) if hrow[k] and tg[k][j]]
            size = max((len(a) + len(b) - 1 for a, b in terms), default=0)
            if hj:
                size = max(size, len(t) + len(hj) - 2)
            acc = [0] * size
            for a, b in terms:
                if len(a) < len(b):
                    a, b = b, a
                width = len(a)
                for i, x in enumerate(b):
                    if x:
                        acc[i : i + width] = [u + x * y for u, y in zip(acc[i : i + width], a)]
            # T H_s' - s T' H_s = sum over i, k of t_i (k - s i) h_k z^(i+k-1),
            # one pass per nonzero t_i (for i = 0 the k = 0 term vanishes),
            # the factors t_i (k - s i) stepping by t_i
            for i, x in enumerate(t):
                if x and hj:
                    lo, first, si = max(i - 1, 0), int(i == 0), s * i
                    hi = lo + len(hj) - first
                    factors = range(x * (first - si), x * (len(hj) - si), x)
                    acc[lo:hi] = [u + c * y for u, c, y in zip(acc[lo:hi], factors, hj[first:])]
            if m is not None:
                acc = [c % m for c in acc]
            while acc and acc[-1] == 0:
                acc.pop()
            row.append(acc)
        out.append(row)
    return out


_SYSTEMS: dict[RatMat, _IntSystem] = {}


def cleared_system(g: RatMat) -> _IntSystem:
    """Cached integer cleared form of G with lazy H_s extension.

    T = d*T0 with T0 the monic common denominator and d the least integer
    making both T and TG = d*(T0*G) integral."""
    sys = _SYSTEMS.get(g)
    if sys is None:
        t0 = Poly.ONE  # monic lcm of the entry denominators
        for row in g.entries:
            for e in row:
                t0 = poly_lcm(t0, e.den)
        t0g = [[(as_ratfn(t0) * e).as_poly() for e in row] for row in g.entries]
        dens = [c.denominator for c in t0.coeffs]
        dens += [c.denominator for row in t0g for poly in row for c in poly.coeffs]
        d = math.lcm(*dens)
        # t0 is monic, so d is exactly the minimal integer scale; T has
        # positive leading coefficient d
        t = [int(c * d) for c in t0.coeffs]
        tg = [[[int(c * d) for c in poly.coeffs] for poly in row] for row in t0g]
        h1 = [[list(c) for c in row] for row in tg]
        sys = _IntSystem(n=g.n, t=t, tg=tg, hs=[h1])
        _SYSTEMS[g] = sys
    return sys


def _is_bad(sys: _IntSystem, p: int) -> bool:
    """True iff G does not reduce mod p, for sys = cleared_system(G)."""
    # T = d*T0 with T0 monic.  For p not dividing d, v_p(T) = 0; for p | d,
    # the minimality of d gives min(v_p(T), v_p(TG)) = 0.  By Gauss's lemma
    # some entry TG_ij / T of G has negative Gauss valuation exactly when
    # p divides every coefficient of T.
    return all(c % p == 0 for c in sys.t)


def _bad_prime(p: int) -> BadPrime:
    return BadPrime(p, "entry with negative Gauss valuation")


def _good_cleared_system(g: RatMat, p: int) -> _IntSystem:
    """cleared_system(g), or BadPrime when G does not reduce mod p."""
    sys = cleared_system(g)
    if _is_bad(sys, p):
        raise _bad_prime(p)
    return sys


def gs_sequence(g: RatMat, s_max: int) -> list[RatMat]:
    """[G_1, ..., G_s_max] with G_1 = G and G_{s+1} = G_s G + G_s', read off
    the cleared sequence as G_s = H_s / T^s in lowest terms."""
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    sys = cleared_system(g)
    t = Poly(sys.t)
    ts = Poly.ONE
    out = []
    for s in range(1, s_max + 1):
        ts = ts * t
        out.append(RatMat([[RatFn(Poly(c), ts) for c in row] for row in sys.h(s)]))
    return out


# ---------------------------------------------------------------------------
# exact logarithmic combinations


class ExactLog:
    """Finite sum of rational multiples of log p, kept exact."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for p, e in (terms or {}).items():
            e = Fraction(e)
            if e:
                clean[p] = e
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("ExactLog is immutable")

    @staticmethod
    def single(p: int, e) -> "ExactLog":
        return ExactLog({p: Fraction(e)})

    @staticmethod
    def zero() -> "ExactLog":
        return ExactLog()

    def __add__(self, other: "ExactLog"):
        out = dict(self.terms)
        for p, e in other.terms.items():
            out[p] = out.get(p, Fraction(0)) + e
        return ExactLog(out)

    def __sub__(self, other: "ExactLog"):
        out = dict(self.terms)
        for p, e in other.terms.items():
            out[p] = out.get(p, Fraction(0)) - e
        return ExactLog(out)

    def scale(self, c) -> "ExactLog":
        c = Fraction(c)
        return ExactLog({p: e * c for p, e in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, ExactLog) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def to_float(self) -> float:
        return sum(float(e) * math.log(p) for p, e in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "ExactLog(0)"
        body = " + ".join(f"{e}*log({p})" for p, e in self.terms.items())
        return f"ExactLog({body} = {self.to_float():.6f})"


# ---------------------------------------------------------------------------
# Galochkin trace


class GalochkinTrace(NamedTuple):
    T: Poly
    s_values: tuple[int, ...]
    q: tuple[int, ...]
    log_q_over_s: tuple[float, ...]


def galochkin_trace(g: RatMat, s_max: int) -> GalochkinTrace:
    """q_s = smallest positive integer clearing every coefficient of
    T^m G_m / m! for m <= s; exact integers, incremental lcm."""
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    sys = cleared_system(g)
    q = 1
    qs, logs = [], []
    fact = 1
    for m in range(1, s_max + 1):
        fact *= m
        q = math.lcm(q, fact // math.gcd(fact, sys.content(m)))
        qs.append(q)
        logs.append(math.log(q) / m if q > 1 else 0.0)
    return GalochkinTrace(
        T=Poly(sys.t), s_values=tuple(range(1, s_max + 1)), q=tuple(qs), log_q_over_s=tuple(logs)
    )


# ---------------------------------------------------------------------------
# size, radius, Dwork-Robba, Bombieri


def h_s_p(g: RatMat, s: int, p: int) -> ExactLog:
    """sup over m <= s of log+ |G_m/m!| at p, exact: the exponent is
    max(0, max_m (v_p(m!) - min v_p(H_m)))."""
    sys = cleared_system(g)
    e = 0
    for m in range(1, s + 1):
        mv = sys.vp(m, p)
        if mv == GAUSS_INF:
            continue
        e = max(e, kummer_vp_factorial(m, p) - mv)
    return ExactLog.single(p, e) if e else ExactLog.zero()


def size_estimate(g: RatMat, s: int, prime_bound: int) -> ExactLog:
    """Finite truncation of the size: (1/s) * sum over p <= bound of h(s, p).

    Only primes p <= s are visited: H_m is integral and v_p(m!) = 0 for
    p > m, so h(s, p) = 0 for every p > s.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    acc = ExactLog.zero()
    for p in primes_upto(min(s, prime_bound)):
        acc = acc + h_s_p(g, s, p).scale(Fraction(1, s))
    return acc


def radius_estimate(
    g: RatMat, p: int, s_max: int, s_min: int | None = None
) -> ExactLog:
    """Truncated Hadamard estimate of the inverse generic radius at p:
    log+ (1/R_hat) with R_hat = min over the window of |G_s/s!|^(-1/s).

    The default window is [n, s_max].  The window floor matters: early terms
    can sit far above the eventual liminf, so report-level consumers pass a
    tail window (see bombieri_report).
    """
    sys = cleared_system(g)
    lo = sys.n if s_min is None else max(1, s_min)
    if s_max < lo:
        raise ValueError("window is empty")
    best = Fraction(0)
    for s in range(lo, s_max + 1):
        mv = sys.vp(s, p)
        if mv == GAUSS_INF:
            continue
        cand = Fraction(kummer_vp_factorial(s, p) - mv, s)
        if cand > best:
            best = cand
    return ExactLog.single(p, best) if best else ExactLog.zero()


def dwork_robba_check(g: RatMat, p: int, s_max: int) -> list[bool]:
    """Exact valuation form of the derivative bounds for systems:
    v(G_s/s!) >= accolade(s, n-1, p) + min over 0 <= i <= n-1 of v(G_i),
    for s = 1..s_max (G_0 = identity).  Returns one verdict per s.

    Meaningful for n >= 2 systems whose fundamental solutions are analytic
    on the generic unit disk; the n = 1 bound degenerates (v(1/s!) < 0).
    """
    sys = cleared_system(g)
    n = sys.n
    base = 0
    for i in range(1, n):
        mv = sys.vp(i, p)
        if mv != GAUSS_INF:
            base = min(base, mv)
    out = []
    for s in range(1, s_max + 1):
        mv = sys.vp(s, p)
        if mv == GAUSS_INF:
            out.append(True)
            continue
        lhs = mv - kummer_vp_factorial(s, p)
        rhs = accolade(s, n - 1, p) + base
        out.append(lhs >= rhs)
    return out


class SizeRadiusReport(NamedTuple):
    n: int
    s_max: int
    prime_bound: int
    h_table: dict
    sigma_hat: ExactLog
    rho_hat: ExactLog
    slack: float
    lower_ok: bool
    upper_ok: bool
    sandwich_ok: bool


def bombieri_report(
    g: RatMat, s: int, prime_bound: int, slack: float = 0.3
) -> SizeRadiusReport:
    """Truncated two-sided comparison of size and inverse-radius sums:
    checks rho_hat <= sigma_hat + slack and sigma_hat <= rho_hat + (n-1) + slack.

    Both quantities truncate limsups, so this is a declared heuristic.  The
    radius side evaluates the Hadamard quotient at the horizon s (window
    [s, s]): early-s terms overshoot the liminf badly for nilpotent systems,
    while the horizon quotient tracks it.

    Both sums run over primes p <= min(s, prime_bound) only; above s every
    term is 0, as in size_estimate, and h_table holds only the visited primes.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    sys = cleared_system(g)
    n = sys.n
    sigma = rho = ExactLog.zero()
    h_table = {}
    for p in primes_upto(min(s, prime_bound)):
        rho = rho + radius_estimate(g, p, s, s_min=s)
        hv = h_s_p(g, s, p)
        sigma = sigma + hv.scale(Fraction(1, s))
        h_table[p] = hv.terms.get(p, Fraction(0))
    sig_f, rho_f = sigma.to_float(), rho.to_float()
    lower_ok = rho_f <= sig_f + slack
    upper_ok = sig_f <= rho_f + (n - 1) + slack
    return SizeRadiusReport(
        n=n,
        s_max=s,
        prime_bound=prime_bound,
        h_table=h_table,
        sigma_hat=sigma,
        rho_hat=rho,
        slack=slack,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        sandwich_ok=lower_ok and upper_ok,
    )


def nilpotence_valuation_bound(g: RatMat, p: int, s_upto: int = 3) -> bool:
    """For a system nilpotent mod p, certify v(G_{pns}) >= s for s <= s_upto
    (the sigma read off v(G_{pn}) >= 1).  Runs the cleared recurrence modulo
    p^s_upto and tests every coefficient of the block at once.  BadPrime
    when G does not reduce mod p."""
    sys = _good_cleared_system(g, p)
    n = sys.n
    modulus = p**s_upto
    seq = modp.ClearedSequenceMod(sys.t, sys.tg, modulus)
    for s in range(1, s_upto + 1):
        if any(c % p**s for row in seq.goto(p * n * s) for poly in row for c in poly):
            return False
    return True
