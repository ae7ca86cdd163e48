"""p-curvature, nilpotence tests, and the global prime scan.

Everything in characteristic p runs over the integer cleared system (T, TG)
of ``growth.cleared_system``.  A prime is bad exactly when T = 0 mod p:
``_is_bad`` checks that identity, and ``_good_cleared_system`` raises
BadPrime there.  At a good prime the p-curvature of y' = Gy is read off
H_p = T^p G_p mod p; T is nonzero mod p, and F_p[z] is a domain, so c H_p
for any nonzero c in F_p[z] has G_p's nilpotence verdict and index:
(c H_p)^k = c^k H_p^k vanishes exactly when G_p^k does.

A system reads H_p.  An operator L of order n steps only the row e_0 of
its companion system from H_0 = identity: e_i G_s = e_0 G_{s+i}, both the
(s+i)-th derivative of a solution in y, ..., y^(n-1), so the row at p+i is
T^i e_i H_p, and row i times T^(n-1-i) gives T^(n-1) H_p.  The report also
records whether the division test agrees: L right-divides D^(pn) mod p iff
H_{pn} = 0 (``operator_nilpotence_by_division``).

Verdicts at integer points (van der Put, "Differential equations in
characteristic p", Compositio Math. 97, 1995; Bostan, Caruso and Schost,
"A fast algorithm for computing the characteristic polynomial of the
p-curvature", ISSAC 2014).  Let e = max(deg T - 1, deg TG, 1), so that
deg H_s <= s e, and q = n e + 1.

1. Let a be an integer with T(a) != 0 mod p, and tau_j, gamma_j the Taylor
   coefficients at a of T and TG.  Leibniz's rule applied to
   (T Y')^(s) = ((TG) Y)^(s) with Y(a) = I gives v_s = H_s(a) in integers,
   s^(j) the falling factorial (``modp.PointSequenceMod``):
       v_{s+1} = sum_j s^(j) tau_0^j gamma_j v_{s-j}
                 - sum_{j>=1} s^(j) tau_0^(j-1) tau_j v_{s+1-j}.
   An operator steps the row e_0 by L's own scalar recurrence, with
   b_n = T and b_k = -TG[n-1][k]; its rows at p, ..., p+n-1 and
   pn, ..., pn+n-1 give T(a)^(n-1) H_p(a) as above and H_{pn}(a).
2. H_p mod p is horizontal, H' = [G, H]: G_{p+1} = G_p' + G_p G is
   G G_p mod p, and (T^p)' = 0 mod p.  So every power H_p^k is too.
3. A horizontal matrix that vanishes at an ordinary point a vanishes to
   order p there: its Taylor coefficients c_j at a satisfy
   j c_j = sum_{i<j} [g_i, c_{j-1-i}] (g_i those of G), so c_0 = 0 forces
   c_j = 0 for every j < p.
4. deg H_p^k <= n p e for k <= n, below the q p zeros that q points distinct
   and ordinary mod p give.  So H_p^k = 0 mod p iff H_p(a)^k = 0 mod p at
   each of them, and the index is the largest of the indices at the points.
5. The division test is H_{pn} = H_p^n = 0 mod p, read the same way.

The pool is the first q + deg T + 1 nonnegative integers that are not
roots of T.  A good prime takes the first q of them that are distinct mod p
and not roots of T mod p, as every prime above the pool does, and is read
off one run at each; a prime with fewer is read on polynomials, off a run
of ``modp.ClearedSequenceMod``.  Each run serves every prime that uses it,
modulo the product of those still to be read (see ``modp``), so the primes
up to P cost about P·n steps per run.  ``p_curvature`` and
``operator_nilpotence_by_division`` run one prime on polynomials on its own
modulus, and the tests check the scan against them.

Matrices over F_p[z] are ``FpMat`` [row][col] coefficient lists, multiplied
by Kronecker substitution; those a point gives are constants.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import NamedTuple, Optional, Sequence

from .diffop import DiffOp, RatMat
from .errors import BadPrime
from .exact_arith import Poly
from .growth import _IntSystem, cleared_system
from .modp import ClearedSequenceMod, FpMat, PointSequenceMod, _reduce


def _is_bad(sys: _IntSystem, p: int) -> bool:
    """True iff G does not reduce mod p, for sys = cleared_system(G)."""
    # T = d*T0 with T0 monic.  For p not dividing d, v_p(T) = 0; for p | d,
    # the minimality of d gives min(v_p(T), v_p(TG)) = 0.  By Gauss's lemma
    # some entry TG_ij / T of G has negative Gauss valuation exactly when
    # p divides every coefficient of T.
    return all(c % p == 0 for c in sys.t)


def _bad_prime(p: int) -> BadPrime:
    return BadPrime(p, "entry with negative Gauss valuation")


def _good_cleared_system(subject: RatMat | DiffOp, p: int) -> _IntSystem:
    """cleared_system(subject), or BadPrime when it does not reduce mod p."""
    sys = cleared_system(subject)
    if _is_bad(sys, p):
        raise _bad_prime(p)
    return sys


def p_curvature(g: RatMat, p: int) -> FpMat:
    """H_p = T^p G_p mod p for the cleared system (T, TG) of G.

    T is nonzero mod p once every entry of G reduces, so (H_p)^k = T^(pk)
    G_p^k vanishes exactly when G_p^k does."""
    sys = _good_cleared_system(g, p)
    return FpMat(p, ClearedSequenceMod(sys.t, sys.tg, p).goto(p))


def is_nilpotent(m: FpMat) -> tuple[bool, Optional[int]]:
    """(True, least k with M^k = 0) or (False, None); k <= n suffices."""
    if m.is_zero():
        return True, 1
    power = m
    for k in range(2, m.n + 1):
        power = power * m
        if power.is_zero():
            return True, k
    return False, None


def operator_nilpotence_by_division(l: DiffOp, p: int) -> bool:
    """True iff D^(p*ord L) is right-divisible by the reduction of L mod p.

    With L cleared to the primitive integer vector b_0..b_n, the remainder
    R_k of b_n^k D^k modulo L steps as

        R_{k+1} = b_n shift(R_k) + b_n R_k' - k b_n' R_k - top(R_k) (b_0..b_{n-1}),

    which is the cleared recurrence of cleared_system(L), T = b_n and last
    row of TG -(b_0..b_{n-1}), started from the row e_0 at k = 0.  Since b_n
    is nonzero mod p at a good prime (the check p_curvature makes), L
    divides D^(pn) iff R_{pn} = 0 mod p."""
    sys = _good_cleared_system(l, p)
    start = [[[1]] + [[] for _ in range(sys.n - 1)]]
    rows = ClearedSequenceMod(sys.t, sys.tg, p, start=start, s=0).goto(p * sys.n)
    return not any(c for row in rows for c in row)


# ---------------------------------------------------------------------------
# scans


class PCurvatureReport(NamedTuple):
    prime: int
    status: str  # "Nilpotent" | "NonNilpotent" | "BadPrime"
    nilpotence_index: Optional[int]
    method_agreement: bool
    detail: str = ""


class GlobalScan(NamedTuple):
    subject: str
    primes: tuple[int, ...]
    reports: tuple[PCurvatureReport, ...]
    verdict: str  # "AllGoodNilpotent" | "FoundNonNilpotent" | "Mixed" | "NoGoodPrime"


def degree_growth(sys: _IntSystem) -> int:
    """e = max(deg T - 1, deg TG, 1), at least the degree H_s gains per step."""
    return max(len(sys.t) - 2, *(len(c) - 1 for row in sys.tg for c in row), 1)


def _runs(sys: _IntSystem, good: Sequence[int]) -> dict[Optional[int], list[int]]:
    """{a: the primes of good read off the run at the integer point a}, and
    under None the primes the pool cannot serve (see the module docstring)."""
    q, t = len(sys.tg) * degree_growth(sys) + 1, Poly(sys.t)
    pool = list(islice(((a, v) for a in count() if (v := t.evaluate(a))), q + len(sys.t)))
    runs = {}
    for p in good:
        # the least point of each residue class mod p, the first q of them
        points = sorted({a % p: a for a, v in reversed(pool) if v % p}.values())[:q]
        for a in points if len(points) == q else [None]:
            runs.setdefault(a, []).append(p)
    return runs


def _rows_at_primes(sys, reads: dict[int, list[int]], start: list, point: Optional[int] = None):
    """(p, k, the rows at index k mod p) for each prime p and each index k
    of reads[p], in ascending k, off one run from the rows start of
    H_0 = identity, of H_s or, given an integer point, of H_s(point),
    modulo the product of the primes still to be read."""
    m, n = math.prod(reads), len(sys.tg)
    if point is None:
        seq = ClearedSequenceMod(sys.t, sys.tg, m, start=start, s=0)
    else:
        # T Y' = TG Y for all of H_s, or L's equation for the row e_0
        seq = PointSequenceMod(sys.t, [sys.tg] if len(start) == n else [[[c]] for c in sys.tg[n - 1]], point, m)
    for k, p in sorted({(k, p) for p, ks in reads.items() for k in ks}):
        yield p, k, [[_reduce(c, p) for c in row] for row in seq.goto(k)]
        if k == max(reads[p]):
            m //= p
            if m > 1:
                seq.reduce_modulus(m)


def _scaled_p_curvature(rows: list[list[list[int]]], t: list[int], p: int) -> FpMat:
    """T^(n-1) H_p mod p for a companion system, from rows[i] = e_0 H_{p+i}
    = T^i e_i H_p: row i times T^(n-1-i)."""
    t, power, out = FpMat(p, [[_reduce(t, p)]]), FpMat(p, [[[1]]]), []
    for row in reversed(rows):
        out.append([(power * FpMat(p, [[c]])).entries[0][0] for c in row])
        power = power * t
    return FpMat(p, out[::-1])


def _reports(subject, primes: Sequence[int]) -> list[PCurvatureReport]:
    """A report for each entry of the ascending primes, off runs of H_s for
    a system and of the row e_0 of the companion system for an operator L,
    read at p, ..., p+n-1 for the matrix test and from p·n on for division."""
    operator = isinstance(subject, DiffOp)
    sys = cleared_system(subject)
    n = len(sys.tg)
    good = sorted({p for p in primes if not _is_bad(sys, p)})
    identity = [[[1] if i == j else [] for j in range(n)] for i in range(n)]
    indices, divides = {p: [] for p in good}, {p: True for p in good}
    for point, served in _runs(sys, good).items():
        # on polynomials e_0 H_{pn} = 0 forces H_{pn} = 0; at a point it does not
        last = 1 if point is None else n
        reads = {p: sorted({*range(p, p + n), *range(p * n, p * n + last)}) if operator else [p] for p in served}
        t, h_rows = sys.t if point is None else [int(Poly(sys.t).evaluate(point))], {}
        for p, k, rows in _rows_at_primes(sys, reads, identity[:1] if operator else identity, point):
            if not operator:
                indices[p].append(is_nilpotent(FpMat(p, rows))[1])
                continue
            if k < p + n:
                h_rows.setdefault(p, []).append(rows[0])
                if k == p + n - 1:
                    indices[p].append(is_nilpotent(_scaled_p_curvature(h_rows.pop(p), t, p))[1])
            if k >= p * n:
                divides[p] = divides[p] and not any(rows[0])

    def report(p: int) -> PCurvatureReport:
        if p not in indices:
            return PCurvatureReport(p, "BadPrime", None, True, str(_bad_prime(p)))
        # H_p^k = 0 iff it vanishes at every point
        index = None if None in indices[p] else max(indices[p])
        nil = index is not None
        return PCurvatureReport(p, "Nilpotent" if nil else "NonNilpotent", index, not operator or divides[p] == nil)

    return [report(p) for p in primes]


def prime_report(subject, p: int) -> PCurvatureReport:
    """Nilpotence verdict and index of the p-curvature of a system or an
    operator at the prime p, with the division test's agreement for an
    operator.  BadPrime when the subject does not reduce mod p."""
    report = _reports(subject, (p,))[0]
    if report.status == "BadPrime":
        raise _bad_prime(p)
    return report


def global_scan(subject, primes: Sequence[int], subject_id: str = "") -> GlobalScan:
    """Per-prime p-curvature reports and an aggregate verdict.

    ``subject`` is a system matrix or an operator; operators additionally
    record the division test's agreement.  Bad primes are excluded from the
    verdict, mirroring the finite exceptional set of a scan."""
    primes = tuple(sorted(primes))
    reports = _reports(subject, primes)
    good = [r for r in reports if r.status != "BadPrime"]
    if not good:
        verdict = "NoGoodPrime"
    elif all(r.status == "Nilpotent" for r in good):
        verdict = "AllGoodNilpotent"
    elif all(r.status == "NonNilpotent" for r in good):
        verdict = "FoundNonNilpotent"
    else:
        verdict = "Mixed"
    return GlobalScan(subject_id, primes, tuple(reports), verdict)
