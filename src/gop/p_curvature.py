"""p-curvature, nilpotence tests, and the global prime scan.

Everything in characteristic p runs on one engine, ``modp.ClearedSequenceMod``,
over the integer cleared system (T, TG) of ``growth.cleared_system``.  A prime
is bad exactly when T = 0 mod p: ``_is_bad`` checks that identity, and
``_good_cleared_system`` raises BadPrime there.  At a good prime the
p-curvature of y' = Gy is read off H_p = T^p G_p mod p; T is nonzero mod p,
and F_p[z] is a domain, so c H_p for any nonzero c in F_p[z] has G_p's
nilpotence verdict and index: (c H_p)^k = c^k H_p^k vanishes exactly when
G_p^k does.

Each scan subject steps one sequence.  A system steps H_s and reads H_p.  An
operator L of order n steps only the row e_0 of its companion system from
H_0 = identity.  For a companion matrix e_i G_s = e_0 G_{s+i}: both express
the (s+i)-th derivative of a solution in y, ..., y^(n-1) (van der Put,
Differential equations in characteristic p, 1995).  So the row at p+i is
e_0 H_{p+i} = T^i e_i H_p, and scaling row i by T^(n-1-i) gives T^(n-1) H_p
for the matrix test.  The row at p·n is the division test: L right-divides
D^(pn) mod p iff it vanishes (``operator_nilpotence_by_division``), and the
report records whether the two tests agree.

A scan reads every good prime off that one run.  The run starts modulo M,
the product of the good primes, reduces its rows mod p at each index p
reads, and after p's last read (p·n >= p+n-1) continues modulo M/p.
Reduction Z/M -> Z/p is a ring homomorphism for p | M and the step is a
polynomial map with integer coefficients, so each read equals the run
modulo p alone, and the primes up to P cost about P·n steps rather than the
sum of all of them.  ``prime_report`` is the one-prime case;
``p_curvature`` and ``operator_nilpotence_by_division`` run one prime on its
own modulus, and the tests check the scan against them.

Matrices over F_p[z] are ``FpMat`` [row][col] coefficient lists, multiplied
by Kronecker substitution.  numpy is loaded only once a process has done
about one numpy import's worth of list steps, and only at a modulus where
int64 sums hold (see ``modp``).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .diffop import DiffOp, RatMat, companion
from .errors import BadPrime
from .growth import _IntSystem, cleared_system
from .modp import ClearedSequenceMod, FpMat, _reduce


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

    With L cleared to the primitive integer vector c_0..c_n, the remainder
    R_k of c_n^k D^k modulo L steps as

        R_{k+1} = c_n shift(R_k) + c_n R_k' - k c_n' R_k - top(R_k) (c_0..c_{n-1}),

    which is the cleared recurrence for T = c_n, TG = c_n * companion(L),
    started from the row e_0 at k = 0.  Up to one common sign, which only
    flips R_k by (-1)^k, that (T, TG) is the cleared system of companion(L).
    Since c_n is nonzero mod p at a good prime (the check p_curvature makes),
    L divides D^(pn) iff R_{pn} = 0 mod p."""
    g = companion(l)
    sys = _good_cleared_system(g, p)
    start = [[[1]] + [[] for _ in range(g.n - 1)]]
    seq = ClearedSequenceMod(sys.t, sys.tg, p, start=start, s=0)
    seq.goto(p * g.n)
    return seq.is_zero()


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


def _rows_at_primes(sys, reads: dict[int, list[int]], start: list):
    """(p, k, the rows at index k mod p) for each prime p and each index k
    of reads[p], in ascending k, off one run of the cleared sequence from
    the rows start of H_0 = identity: it starts modulo the product of the
    primes, and after a prime's last read it continues modulo the product
    of the primes still to be read."""
    m = math.prod(reads)
    seq = ClearedSequenceMod(sys.t, sys.tg, m, start=start, s=0)
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
    """A report for each entry of the ascending primes, read off one run
    modulo the product of the good primes: of H_s for a system, of the row
    e_0 of the companion system from index 0 for an operator L, read at
    p, ..., p+n-1 for the matrix test and at p·n for the division test."""
    operator = isinstance(subject, DiffOp)
    sys = cleared_system(companion(subject) if operator else subject)
    n = len(sys.tg)
    good = sorted({p for p in primes if not _is_bad(sys, p)})
    reads = {p: [*range(p, p + n), p * n] if operator else [p] for p in good}
    identity = [[[1] if i == j else [] for j in range(n)] for i in range(n)]
    nilpotence, agreement, h_rows = {}, {}, {}
    for p, k, rows in _rows_at_primes(sys, reads, identity[:1] if operator else identity) if good else ():
        if not operator:
            nilpotence[p] = is_nilpotent(FpMat(p, rows))
            continue
        if k < p + n:
            h_rows.setdefault(p, []).append(rows[0])
            if k == p + n - 1:
                nilpotence[p] = is_nilpotent(_scaled_p_curvature(h_rows.pop(p), sys.t, p))
        if k == p * n:
            agreement[p] = (not any(rows[0])) == nilpotence[p][0]
    return [
        PCurvatureReport(p, "Nilpotent" if nilpotence[p][0] else "NonNilpotent", nilpotence[p][1], agreement.get(p, True))
        if p in nilpotence else PCurvatureReport(p, "BadPrime", None, True, str(_bad_prime(p)))
        for p in primes
    ]


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
