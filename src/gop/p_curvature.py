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

Matrices over F_p[z] are ``FpMat`` [row][col] coefficient lists, the
layout the engine returns; their products go through Kronecker
substitution on Python integers.  numpy is loaded only once a process has
done about one numpy import's worth of list steps in the engine (see
``modp``), so short scans and single small primes never load it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .diffop import DiffOp, RatMat, companion, monic_theta_coefficients
from .errors import BadPrime, IrregularPoint
from .growth import cleared_system
from .modp import ClearedSequenceMod, FpMat, reduce_ratfn_mod_p


def _good_cleared_system(g: RatMat, p: int):
    """cleared_system(g), or BadPrime when G does not reduce mod p."""
    # T = d*T0 with T0 monic.  For p not dividing d, v_p(T) = 0; for p | d,
    # the minimality of d gives min(v_p(T), v_p(TG)) = 0.  By Gauss's lemma
    # some entry TG_ij / T of G has negative Gauss valuation exactly when
    # p divides every coefficient of T.
    sys = cleared_system(g)
    if all(c % p == 0 for c in sys.t):
        raise BadPrime(p, "entry with negative Gauss valuation")
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
    raises IrregularPoint when the reduced theta coefficients have a pole."""
    reduced = [reduce_ratfn_mod_p(c, p) for c in monic_theta_coefficients(l)]
    n = len(reduced)
    orders = [(_order_at_zero(num), _order_at_zero(den)) for num, den in reduced]
    if any(num < den for num, den in orders):
        raise IrregularPoint("0 is not regular singular for the reduction")
    phi = [0] * n + [1]
    for j, ((num, den), (_, k)) in enumerate(zip(reduced, orders), start=1):
        if k < len(num):  # the value at 0 is 0 when num vanishes to higher order
            phi[n - j] = num[k] * pow(den[k], -1, p) % p
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
    sys = _good_cleared_system(g, p)
    seq = ClearedSequenceMod(sys.t, sys.tg, p)
    hp = FpMat(p, seq.goto(p))
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


def prime_report(g: RatMat, p: int, operator: Optional[DiffOp] = None) -> PCurvatureReport:
    """Nilpotence verdict and index of the p-curvature of G at the prime p,
    with the division test's agreement when the operator L (G =
    companion(L)) is given.  BadPrime when G does not reduce mod p."""
    nil, index = is_nilpotent(p_curvature(g, p))
    agreement = True
    if operator is not None:
        agreement = operator_nilpotence_by_division(operator, p) == nil
    return PCurvatureReport(
        p, "Nilpotent" if nil else "NonNilpotent", index, agreement
    )


def _scan_report(g: RatMat, p: int, operator: Optional[DiffOp]) -> PCurvatureReport:
    try:
        return prime_report(g, p, operator)
    except BadPrime as exc:
        return PCurvatureReport(p, "BadPrime", None, True, str(exc))


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
    reports = [_scan_report(g, p, operator) for p in primes]
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
