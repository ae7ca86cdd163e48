"""Denominator growth and p-adic size/radius estimates for systems y' = Gy,
an operator read as its companion system.

The whole module works off the denominator-cleared sequence H_s = T^s G_s,
which satisfies the polynomial recurrence

    H_{s+1} = H_s (TG) + T H_s' - s T' H_s,

and stays integer for the integer T of cleared_system.  _step is the one
implementation of this step, over Z and, given a modulus, over Z/m:
pade.derived_tower runs it on a row vector with TG replaced by -(TG)^T, the
p-adic quantities below read the contents of its H_s, and
modp.ClearedSequenceMod runs it mod m on the same lists.

Every p-adic quantity is read off H_s, for all primes at once, through two
integers per s: r_s = s!/gcd(s!, c_s), c_s the content of H_s, and the
Galochkin denominator q_s = lcm(r_1, ..., r_s).  As
v_p(r_s) = max(0, v_p(s!) - v_p(c_s)), h(s, p) = v_p(q_s) and each
Hadamard term is v_p(r_s)/s.
v(H_s) = s v(T) + v(G_s) for the Gauss valuation v at p, and content(T) is
not 1 in general (4 for gauss2f1's companion), so these are the quantities
of G_s only at the primes where G reduces (p_curvature._is_bad); at the
others they are those of T^s G_s (2D - 1 gets the radius of D - 1 at p = 2).
c_s is read off the rows of H_s, never off the full block.
_step is Z-linear and maps each row e_r H_s to e_r H_(s+1), so a row c K
with K primitive steps to c _step(K): each row is stepped as its primitive
part, the content of a row at s divides its content at s+1, and c_s is the
gcd of the row contents.  When G has companion shape (rows 0..n-2 of TG are
T e_1, ..., T e_(n-1), as for every operator), e_i G_s = e_0 G_(s+i), so
T^i e_i H_s = e_0 H_(s+i) and, by Gauss's lemma,
content(e_i H_s) = content(e_0 H_(s+i)) / content(T)^i: only the row e_0 is
stepped, and c_s is read off it at s, ..., s+n-1.  p_curvature reads the
rows of H_p mod p off the same row by the same identity.

A logarithmic quantity, a sum of rational multiples of log p, is a table
{p: exponent}, primes ascending and zero exponents left out; log_value
turns one into a float only for a report.  Apart from _step's modulus,
which modp passes, the module runs in characteristic 0: the test whether G
reduces mod p and every reading of H_s mod p live in p_curvature and modp.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count
from typing import NamedTuple

from .diffop import DiffOp, RatMat, cleared_operator
from .exact_arith import Poly, as_ratfn, poly_lcm, primes_upto, vp_int


class _IntSystem:
    """Integer cleared form (T, TG) of a system, plus the rows of H_s it has
    stepped, each stored as a primitive part and a content, the contents c_s
    of H_s read off them, and the two integers every p-adic quantity reads:
    r_s = s!/gcd(s!, c_s) and q_s = lcm(r_1, ..., r_s).

    On a companion-shape G only the row e_0 is stepped, and c_s is read off
    e_0 at s, ..., s+n-1; otherwise every row is.  hs[s-1] is the block of
    stepped primitive rows at s (one row or n), each row a list of n
    coefficient lists."""

    def __init__(self, n: int, t: list[int], tg: list[list[list[int]]]):
        self.n = n
        self.t = t
        self.tg = tg
        # rows 0..n-2 of TG are T e_1, ..., T e_(n-1)
        self.companion_shape = all(
            tg[i][j] == (t if j == i + 1 else []) for i in range(n - 1) for j in range(n)
        )
        self.hs: list = []  # hs[s-1] = the stepped primitive rows at s
        self.row_contents: list[list[int]] = []  # their contents, row by row
        self.contents: list[int] = []  # c_s = gcd of H_s's coefficients
        self.rs: list[int] = []  # r_s = s!/gcd(s!, c_s)
        self.qs: list[int] = []  # q_s = lcm(r_1, ..., r_s)
        self._factorial = 1  # s! for s = len(contents)
        # content(T)^i, the factor between e_i H_s and e_0 H_(s+i)
        self.t_powers = [math.gcd(*t) ** i for i in range(n)]
        rows = tg[:1] if self.companion_shape else tg
        self._store(rows, [1] * len(rows))

    def content(self, s: int) -> int:
        """gcd of every coefficient of H_s; 0 when H_s vanishes."""
        while len(self.contents) < s:
            m = len(self.contents)  # c_(m+1) next
            if self.companion_shape:
                # T^i e_i H_s = e_0 H_(s+i), so by Gauss's lemma
                # content(e_i H_s) = content(e_0 H_(s+i)) / content(T)^i
                self._reach(m + self.n)
                c = math.gcd(
                    *(self.row_contents[m + i][0] // self.t_powers[i] for i in range(self.n))
                )
            else:
                self._reach(m + 1)
                c = math.gcd(*self.row_contents[m])
            self.contents.append(c)
            self._factorial *= m + 1
            r = self._factorial // math.gcd(self._factorial, c)
            self.rs.append(r)
            self.qs.append(math.lcm(self.qs[-1], r) if self.qs else r)
        return self.contents[s - 1]

    def r(self, s: int) -> int:
        """r_s, the least positive integer clearing H_s / s!."""
        self.content(s)
        return self.rs[s - 1]

    def q(self, s: int) -> int:
        """q_s, the least positive integer clearing H_m / m! for m <= s."""
        self.content(s)
        return self.qs[s - 1]

    def _reach(self, s: int):
        """Step the stored rows up to index s: the row c K, K primitive,
        steps to c _step(K) (see the module docstring)."""
        while len(self.hs) < s:
            self._store(_step(self.hs[-1], len(self.hs), self.t, self.tg), self.row_contents[-1])

    def _store(self, rows, contents):
        """Append the rows contents[r] * rows[r] as primitive parts and their
        contents."""
        prim, out = [], []
        for row, c in zip(rows, contents):
            g = math.gcd(*(math.gcd(*poly) for poly in row))
            if g > 1:
                row = [[x // g for x in poly] for poly in row]
            prim.append(row)
            out.append(c * g)
        self.hs.append(prim)
        self.row_contents.append(out)


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
            # each pass skips the long factor's low zeros (most of H_s for a polylog)
            for a, b in terms:
                if len(a) < len(b):
                    a, b = b, a
                low = next(compress(count(), a), 0)
                a, width = a[low:], len(a)
                for i, x in enumerate(b):
                    if x:
                        acc[i + low : i + width] = [u + x * y for u, y in zip(acc[i + low : i + width], a)]
            # T H_s' - s T' H_s = sum over i, k of t_i (k - s i) h_k z^(i+k-1),
            # one pass per nonzero t_i from the lowest nonzero h_k (for i = 0
            # the k = 0 term vanishes), the factors t_i (k - s i) stepping by t_i
            low = next(compress(count(), hj), 0)
            for i, x in enumerate(t):
                if x and hj:
                    first, si = max(low, int(i == 0)), s * i
                    lo, hi = i + first - 1, i + len(hj) - 1
                    factors = range(x * (first - si), x * (len(hj) - si), x)
                    acc[lo:hi] = [u + c * y for u, c, y in zip(acc[lo:hi], factors, hj[first:])]
            if m is not None:
                acc = [c % m for c in acc]
            while acc and acc[-1] == 0:
                acc.pop()
            row.append(acc)
        out.append(row)
    return out


_SYSTEMS: dict[RatMat | DiffOp, _IntSystem] = {}


def cleared_system(subject: RatMat | DiffOp) -> _IntSystem:
    """Cached integer cleared form of a system G, or of an operator's
    companion system, with lazy H_s extension.

    An operator's b_0..b_n (diffop.cleared_operator) give T = b_n, rows
    T e_1, ..., T e_(n-1) and last row (-b_0, ..., -b_(n-1)).  For G,
    T = d*T0 with T0 the monic common denominator and d the lcm of the
    denominators of T0 and of the entries of T0*G: the least integer making
    both T and TG = d*(T0*G) integral, read off their numerators."""
    sys = _SYSTEMS.get(subject)
    if sys is None:
        if isinstance(subject, DiffOp):
            *b, t = (list(c) for c in cleared_operator(subject))
            n = len(b)
            tg = [[list(t) if j == i + 1 else [] for j in range(n)] for i in range(n - 1)]
            tg.append([[-c for c in bj] for bj in b])
        else:
            t0 = Poly.ONE  # monic lcm of the entry denominators
            for row in subject.entries:
                for e in row:
                    t0 = poly_lcm(t0, e.den)
            t0g = [[(as_ratfn(t0) * e).as_poly() for e in row] for row in subject.entries]
            d = math.lcm(t0.den, *(poly.den for row in t0g for poly in row))
            # t0 is monic, so d is exactly the minimal integer scale; T has
            # positive leading coefficient d
            n, t = subject.n, [c * (d // t0.den) for c in t0.nums]
            tg = [[[c * (d // p.den) for c in p.nums] for p in row] for row in t0g]
        sys = _IntSystem(n=n, t=t, tg=tg)
        _SYSTEMS[subject] = sys
    return sys


# ---------------------------------------------------------------------------
# Galochkin trace


class GalochkinTrace(NamedTuple):
    T: Poly
    s_values: tuple[int, ...]
    q: tuple[int, ...]
    log_q_over_s: tuple[float, ...]


def galochkin_trace(g: RatMat | DiffOp, s_max: int) -> GalochkinTrace:
    """q_s = smallest positive integer clearing every coefficient of
    T^m G_m / m! for m <= s; exact integers, incremental lcm."""
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    sys = cleared_system(g)
    qs = tuple(sys.q(s) for s in range(1, s_max + 1))
    logs = tuple(math.log(q) / s if q > 1 else 0.0 for s, q in enumerate(qs, 1))
    return GalochkinTrace(
        T=Poly(sys.t), s_values=tuple(range(1, s_max + 1)), q=qs, log_q_over_s=logs
    )


# ---------------------------------------------------------------------------
# size, radius, Bombieri


def log_value(table: dict) -> float:
    """The float sum of e log p over a {prime: exponent} table, in ascending p."""
    return sum(float(e) * math.log(p) for p, e in table.items())


def h_s_p(g: RatMat | DiffOp, s: int, p: int) -> int:
    """sup over m <= s of log+ |H_m/m!| at p, as the exponent of log p:
    max(0, max_m (v_p(m!) - v_p(c_m))) = v_p(q_s)."""
    return vp_int(cleared_system(g).q(s), p)


def size_estimate(g: RatMat | DiffOp, s: int, prime_bound: int) -> dict:
    """Finite truncation of the size, (1/s) * sum over p <= bound of h(s, p),
    as the table {p: h(s, p)/s} of its nonzero terms.

    Only primes p <= s are visited: H_m is integral and v_p(m!) = 0 for
    p > m, so h(s, p) = 0 for every p > s.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    return {p: Fraction(e, s) for p in primes_upto(min(s, prime_bound)) if (e := h_s_p(g, s, p))}


def radius_estimate(g: RatMat | DiffOp, p: int, s_max: int, s_min: int | None = None) -> Fraction:
    """Truncated Hadamard estimate of the inverse generic radius at p:
    log+ (1/R_hat) with R_hat = min over the window of |H_s/s!|^(-1/s), that
    is log p times the window maximum of v_p(r_s)/s, which is returned.

    The default window is [n, s_max].  The window floor matters: early terms
    can sit far above the eventual liminf, so report-level consumers pass a
    tail window (see bombieri_report).
    """
    sys = cleared_system(g)
    lo = sys.n if s_min is None else max(1, s_min)
    if s_max < lo:
        raise ValueError("window is empty")
    return max(Fraction(vp_int(sys.r(s), p), s) for s in range(lo, s_max + 1))


class SizeRadiusReport(NamedTuple):
    n: int
    s_max: int
    prime_bound: int
    h_table: dict
    sigma_hat: dict
    rho_hat: dict
    slack: float
    lower_ok: bool
    upper_ok: bool
    sandwich_ok: bool


def bombieri_report(
    g: RatMat | DiffOp, s: int, prime_bound: int, slack: float = 0.3
) -> SizeRadiusReport:
    """Truncated two-sided comparison of size and inverse-radius sums:
    checks rho_hat <= sigma_hat + slack and sigma_hat <= rho_hat + (n-1) + slack.

    Both quantities truncate limsups, so this is a declared heuristic.  The
    radius side evaluates the Hadamard quotient at the horizon s (window
    [s, s]): early-s terms overshoot the liminf badly for nilpotent systems,
    while the horizon quotient tracks it.

    Both sums run over primes p <= min(s, prime_bound) only; above s every
    term is 0, as in size_estimate.  sigma_hat and rho_hat are tables
    {p: exponent of log p} of their nonzero terms, and h_table is
    {p: h(s, p)} on the primes of sigma_hat.
    """
    sigma = size_estimate(g, s, prime_bound)
    n = cleared_system(g).n
    rho = {p: e for p in primes_upto(min(s, prime_bound)) if (e := radius_estimate(g, p, s, s_min=s))}
    sig_f, rho_f = log_value(sigma), log_value(rho)
    lower_ok = rho_f <= sig_f + slack
    upper_ok = sig_f <= rho_f + (n - 1) + slack
    return SizeRadiusReport(
        n=n,
        s_max=s,
        prime_bound=prime_bound,
        h_table={p: e * s for p, e in sigma.items()},
        sigma_hat=sigma,
        rho_hat=rho,
        slack=slack,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        sandwich_ok=lower_ok and upper_ok,
    )
