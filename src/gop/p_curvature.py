"""p-curvature, nilpotence tests, and the global prime scan.

Everything in characteristic p runs on one engine, ``modp.ClearedSequenceMod``,
over the integer cleared system (T, TG) of ``growth.cleared_system``.  A prime
is bad exactly when T = 0 mod p (``growth._is_bad``).  At a good prime the
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

Katz's indicial test (katz_honda_check) reads local_analysis's Frobenius
rule at 0 off the monic D form reduced mod p, and asks whether the indicial
polynomial splits over F_p.  It reduces the Q(z) coefficients with
``modp.reduce_ratfn_mod_p``, which stays in src because ``bench/spans.py``
counts its calls and ``tests/test_bench_spans.py`` requires its name.

Matrices over F_p[z] are ``FpMat`` [row][col] coefficient lists, multiplied
by Kronecker substitution.  numpy is loaded only once a process has done
about one numpy import's worth of list steps, and only at a modulus where
int64 sums hold (see ``modp``).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .diffop import DiffOp, RatMat, companion
from .errors import IrregularPoint
from .exact_arith import falling_factorial_poly
from .growth import _bad_prime, _good_cleared_system, _is_bad, cleared_system
from .local_analysis import _frobenius
from .modp import ClearedSequenceMod, FpMat, _reduce, reduce_poly_mod_p, reduce_ratfn_mod_p


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


def _divide_root(f: list[int], a: int, p: int) -> tuple[list[int], int]:
    """Synthetic division of f (low degree first) by z - a mod p."""
    acc, out = 0, []
    for coeff in reversed(f):
        acc = (acc * a + coeff) % p
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _order_at_zero(f: list[int]):
    return next((i for i, c in enumerate(f) if c), math.inf)


def katz_honda_check(l: DiffOp, p: int) -> bool:
    """True iff the mod-p indicial polynomial at 0 splits over F_p.

    Necessary for nilpotence when 0 is regular singular for the reduction;
    raises IrregularPoint when it is not, BadPrime when a coefficient of the
    monic D form does not reduce mod p."""
    g = companion(l)
    reduced = [reduce_ratfn_mod_p(-c, p) for c in g.entries[-1]] + [([1], [1])]
    ords = [_order_at_zero(num) - _order_at_zero(den) if num else None for num, den in reduced]
    regular, _, leading = _frobenius(ords, -1)
    if not regular:
        raise IrregularPoint("0 is not regular singular for the reduction")
    phi = [0] * (g.n + 1)
    for j in leading:
        # the j-th term of L z^y at z^y is (a_j / z^(ord a_j))(0) y(y-1)...(y-j+1)
        num, den = reduced[j]
        c = num[_order_at_zero(num)] * pow(den[_order_at_zero(den)], -1, p)
        for d, f in enumerate(reduce_poly_mod_p(falling_factorial_poly(j), p)):
            phi[d] = (phi[d] + c * f) % p
    for a in range(p):
        while len(phi) > 1:
            quo, rem = _divide_root(phi, a, p)
            if rem:
                break
            phi = quo
    return len(phi) == 1


def relation_gp_power_holds(g: RatMat, p: int, k_max: int) -> bool:
    """G_{pk} mod p == (G_p mod p)^k for k <= k_max, compared through the
    cleared polynomial forms (H_{pk} == H_p^k since both carry T^(pk))."""
    hp = p_curvature(g, p)
    sys = cleared_system(g)
    seq = ClearedSequenceMod(sys.t, sys.tg, p, start=hp.entries, s=p)
    power = hp
    for k in range(2, k_max + 1):
        power = power * hp
        if power != FpMat(p, seq.goto(p * k)):
            return False
    return True


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
