"""p-curvature, nilpotence tests, and the global prime scan.

Everything in characteristic p runs on one engine, ``modp.ClearedSequenceMod``,
over the integer cleared system (T, TG) of ``growth.cleared_system``, whose
denominators were cleared once in characteristic zero.  A prime is bad
exactly when T = 0 mod p, which by Gauss's lemma is when some entry of G has
negative Gauss valuation.  At a good prime the p-curvature of y' = Gy is read
off the cleared matrix H_p = T^p G_p mod p; T is nonzero mod p there, so H_p
and G_p share the nilpotence verdict and index.  Nilpotence has two routes,
both on the cleared system of the companion matrix when the subject is an
operator: the matrix power test (H_p)^n = 0, and right division of D^(pn) by
L mod p, run as the row e_0 of the same recurrence.  The scan records whether
the two agree when an operator is available.

A scan reads every good prime off one run per route instead of one run per
prime.  The run starts modulo M, the product of the good primes; at index p
(p·n for the division test) it reduces its rows mod p, then continues
modulo M/p, the product of the primes not yet reached.  Reduction
Z/M -> Z/p is a ring homomorphism for p | M and the step is a polynomial
map with integer coefficients, so H_p mod p read this way is exactly the
run modulo p alone, and a scan over the primes up to P does about P steps
(P·n for the division test) rather than the sum of all its primes.  ``prime_report`` is the one-prime
case.  ``p_curvature`` and ``operator_nilpotence_by_division`` run one
prime on its own modulus; the tests check the scan against them.

Katz's indicial test (katz_honda_check) reads local_analysis's Frobenius
rule at 0 off the monic D form, a_n = 1, reduced mod p, and asks whether
the indicial polynomial splits over F_p.  It reduces the Q(z) coefficients
a_j with ``modp.reduce_ratfn_mod_p`` rather than the cleared integers the
engine runs on: that helper stays in src because ``bench/spans.py`` counts
its calls and ``tests/test_bench_spans.py`` requires its name, and this
test is its one caller.

Matrices over F_p[z] are ``FpMat`` [row][col] coefficient lists, the
layout the engine returns; their products go through Kronecker
substitution on Python integers.  numpy is loaded only once a process has
done about one numpy import's worth of list steps in the engine, and only
for a modulus at which int64 sums hold (see ``modp``): a scan over more
than a few primes runs on lists, and short scans and single small primes
never load it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .diffop import DiffOp, RatMat, companion
from .errors import BadPrime, IrregularPoint
from .exact_arith import falling_factorial_poly
from .growth import cleared_system
from .local_analysis import _frobenius
from .modp import ClearedSequenceMod, FpMat, _reduce, reduce_poly_mod_p, reduce_ratfn_mod_p


def _is_bad(sys, p: int) -> bool:
    """True iff G does not reduce mod p, for sys = cleared_system(G)."""
    # T = d*T0 with T0 monic.  For p not dividing d, v_p(T) = 0; for p | d,
    # the minimality of d gives min(v_p(T), v_p(TG)) = 0.  By Gauss's lemma
    # some entry TG_ij / T of G has negative Gauss valuation exactly when
    # p divides every coefficient of T.
    return all(c % p == 0 for c in sys.t)


def _bad_prime(p: int) -> BadPrime:
    return BadPrime(p, "entry with negative Gauss valuation")


def _good_cleared_system(g: RatMat, p: int):
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


def _rows_at_primes(sys, primes: Sequence[int], start=None, s: int = 1, stride: int = 1):
    """(p, the rows at index stride·p mod p) for each of the distinct
    ascending primes, read off one run of the cleared sequence: it starts
    modulo the product of the primes, and after each prime it continues
    modulo the product of the primes it has not reached."""
    m = math.prod(primes)
    seq = ClearedSequenceMod(sys.t, sys.tg, m, start=start, s=s)
    for p in primes:
        rows = seq.goto(stride * p)
        yield p, [[_reduce(c, p) for c in row] for row in rows]
        m //= p
        if m > 1:
            seq.reduce_modulus(m)


def _reports(g: RatMat, primes: Sequence[int], operator: Optional[DiffOp]) -> list[PCurvatureReport]:
    """A report for each entry of the ascending primes, the division test's
    agreement included when the operator L (G = companion(L)) is given.

    The p-curvature at every good prime comes off one run modulo their
    product, and the division test off one run of the row e_0 from index 0,
    read at p·n; each equals the run modulo p alone, since reduction
    Z/M -> Z/p commutes with the step."""
    sys = cleared_system(g)
    good = sorted({p for p in primes if not _is_bad(sys, p)})
    nilpotence, agreement = {}, {}
    if good:
        for p, rows in _rows_at_primes(sys, good):
            nilpotence[p] = is_nilpotent(FpMat(p, rows))
        if operator is not None:
            start = [[[1]] + [[] for _ in range(g.n - 1)]]
            for p, rows in _rows_at_primes(sys, good, start, 0, g.n):
                divides = not any(c for row in rows for c in row)
                agreement[p] = divides == nilpotence[p][0]
    reports = []
    for p in primes:
        if p in nilpotence:
            nil, index = nilpotence[p]
            reports.append(PCurvatureReport(p, "Nilpotent" if nil else "NonNilpotent", index, agreement.get(p, True)))
        else:
            reports.append(PCurvatureReport(p, "BadPrime", None, True, str(_bad_prime(p))))
    return reports


def prime_report(g: RatMat, p: int, operator: Optional[DiffOp] = None) -> PCurvatureReport:
    """Nilpotence verdict and index of the p-curvature of G at the prime p,
    with the division test's agreement when the operator L (G =
    companion(L)) is given.  BadPrime when G does not reduce mod p."""
    report = _reports(g, (p,), operator)[0]
    if report.status == "BadPrime":
        raise _bad_prime(p)
    return report


def global_scan(subject, primes: Sequence[int], subject_id: str = "") -> GlobalScan:
    """Per-prime p-curvature reports and an aggregate verdict.

    ``subject`` is a system matrix or an operator; operators additionally run
    the division test and record method agreement.  Bad primes are excluded
    from the verdict, mirroring the finite exceptional set of a scan."""
    if isinstance(subject, DiffOp):
        operator, g = subject, companion(subject)
    else:
        operator, g = None, subject
    primes = tuple(sorted(primes))
    reports = _reports(g, primes, operator)
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
