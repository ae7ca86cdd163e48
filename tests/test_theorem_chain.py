"""The paper's chain of theorems, checked across layers on fixed subjects.

The source paper's three parts link global nilpotence (Katz, "Nilpotent
connections and the monodromy theorem", Publ. IHES 39, 1970), the Galochkin
condition on the denominators q_s of T^m G_m / m! (m <= s), which the
minimal operator of a G-function satisfies (Chudnovsky), and Bombieri's size
condition, equivalent to it (Andre-Bombieri).  Each layer has its own oracle
elsewhere; these tests check that the p-curvature scan and the Galochkin
trace agree with each other on the same subjects."""

import random
from fractions import Fraction

from gop.catalog import catalog_get, hypergeom_operator, polylog_system
from gop.cli import parse_operator
from gop.diffop import RatMat, companion
from gop.exact_arith import primes_upto
from gop.growth import cleared_system, galochkin_trace
from gop.p_curvature import global_scan

SUBJECTS = [
    ("gauss2f1", catalog_get("gauss2f1").operator),
    ("polylog:2", polylog_system(2)),
    ("order1-half", catalog_get("order1-half").operator),
    ("2F1(1/4, 1/5; 2/3)", hypergeom_operator([Fraction(1, 4), Fraction(1, 5)], [Fraction(2, 3)])),
    ("theta2m2", catalog_get("theta2m2").operator),
    ("theta^2-3", parse_operator("theta^2 - 3")),
    ("d-minus-1", catalog_get("d-minus-1").operator),
    ("z^2*D+1", parse_operator("z^2*D + 1")),
]

# log(q_s)/s levels off on a globally nilpotent subject and grows like log s
# on the others.  Measured change from s = 200 to s = 400: at most 0.026 in
# absolute value on the four all-nilpotent subjects (gauss2f1 -0.026,
# polylog:2 +0.009, order1-half +0.005, the 2F1 -0.011), and at least +0.363
# on the rest (theta2m2 +0.364, theta^2-3 +0.386, d-minus-1 and z^2*D+1
# +0.685)
LEVEL_CHANGE_MAX = 0.2


def test_galochkin_growth_separates_the_globally_nilpotent_subjects():
    nilpotent, levelled = set(), set()
    for label, subject in SUBJECTS:
        if global_scan(subject, primes_upto(80)).verdict == "AllGoodNilpotent":
            nilpotent.add(label)
        g = subject if isinstance(subject, RatMat) else companion(subject)
        logs = galochkin_trace(g, 400).log_q_over_s
        if abs(logs[399] - logs[199]) <= LEVEL_CHANGE_MAX:
            levelled.add(label)
    assert nilpotent == levelled == {"gauss2f1", "polylog:2", "order1-half", "2F1(1/4, 1/5; 2/3)"}


def _unit_rational(rng):
    d = rng.randint(2, 6)
    return Fraction(rng.randint(1, d - 1), d)


def _drawn_2f1(rng):
    a, b, c = (_unit_rational(rng) for _ in range(3))
    return f"2F1({a}, {b}; {c})", hypergeom_operator([a, b], [c])


_LINK_RNG = random.Random(7)
LINK_SUBJECTS = SUBJECTS + [
    ("polylog:3 system", polylog_system(3)),
    ("polylog:3 operator", catalog_get("polylog:3").operator),
    ("theta^2-1/4-z", parse_operator("theta^2 - 1/4 - z")),
] + [_drawn_2f1(_LINK_RNG) for _ in range(16)]


def test_scan_nilpotent_iff_p_divides_the_content_at_pn():
    # H_pn = H_p^n mod p, as G_pk = G_p^k mod p, and the nilpotence index is
    # at most n, so at a good prime p the p-curvature is nilpotent exactly
    # when H_pn vanishes mod p: the scan's verdict off the modular run and
    # the content of the run over Z must agree, with no oracle between them
    primes = primes_upto(100)
    compared, statuses = 0, set()
    for label, subject in LINK_SUBJECTS:
        sys = cleared_system(subject if isinstance(subject, RatMat) else companion(subject))
        for r in global_scan(subject, primes).reports:
            if r.status == "BadPrime":
                continue
            divides = sys.content(r.prime * sys.n) % r.prime == 0
            assert divides == (r.status == "Nilpotent"), (label, r.prime, r.status)
            compared += 1
            statuses.add(r.status)
    # 538 Nilpotent and 99 NonNilpotent comparisons
    assert len(LINK_SUBJECTS) == 27 and compared == 637
    assert statuses == {"Nilpotent", "NonNilpotent"}
