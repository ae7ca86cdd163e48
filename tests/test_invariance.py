"""Invariances of the p-curvature scan: a gauge change G -> P G P^-1 + P' P^-1
by a unimodular polynomial P conjugates the p-curvature, and a twist
G -> G + (lam/z) I adds the p-curvature of lam/z, which is 0 mod p.  Either
keeps the verdict and the nilpotence index at every prime good for both
sides (Katz 1970; Dwork-Gerotto-Sullivan, An Introduction to G-functions,
1994).  The scan compares gop with itself, so it needs no oracle."""

import random
from fractions import Fraction

import pytest

from gop.catalog import catalog_get, hypergeom_operator
from gop.cli import parse_operator
from gop.diffop import RatMat, companion
from gop.exact_arith import Poly, RatFn, primes_upto
from gop.p_curvature import global_scan
from oracles import gauge, twist


def _subject(entry_id):
    entry = catalog_get(entry_id)
    return entry.operator if entry.system is None else entry.system


SUBJECTS = [
    ("gauss2f1", _subject("gauss2f1")),
    ("theta2m2", _subject("theta2m2")),
    ("polylog:2", _subject("polylog:2")),
    ("polylog:3", _subject("polylog:3")),
    ("order1-half", _subject("order1-half")),
    ("2F1(1:4,1:5;2:3)", hypergeom_operator([Fraction(1, 4), Fraction(1, 5)], [Fraction(2, 3)])),
    ("theta^2-3", parse_operator("theta^2 - 3")),
    ("z^2*D+1", parse_operator("z^2*D + 1")),
]
PRIMES = primes_upto(60)


def _unimodular(rng, n):
    """A product of three I + c z^k E_ij, i != j: integer polynomial entries
    and determinant 1, so P and P^-1 reduce at every prime."""
    p = [[RatFn.ONE if i == j else RatFn.ZERO for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = RatFn(Poly([0] * rng.randint(0, 2) + [rng.choice([-3, -2, -1, 1, 2, 3])]))
        # right-multiplying by I + c E_ij adds c times column i to column j
        for row in p:
            row[j] = row[j] + c * row[i]
    return RatMat(p)


def _transforms(rng, g):
    out = [] if g.n == 1 else [(f"gauge {k}", gauge(g, _unimodular(rng, g.n))) for k in range(3)]
    lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(2, 5))
    return out + [(f"twist {lam}", twist(g, lam))]


@pytest.mark.parametrize("label, subject", SUBJECTS, ids=[label for label, _ in SUBJECTS])
def test_scan_invariant_under_gauge_and_twist(label, subject):
    rng = random.Random(label)
    g = subject if isinstance(subject, RatMat) else companion(subject)
    want = {r.prime: r for r in global_scan(subject, PRIMES).reports if r.status != "BadPrime"}
    compared = 0
    for name, h in _transforms(rng, g):
        for r in global_scan(h, PRIMES).reports:
            if r.status != "BadPrime" and r.prime in want:
                assert (r.status, r.nilpotence_index) == (want[r.prime].status, want[r.prime].nilpotence_index), (
                    label, name, r.prime)
                compared += 1
    assert compared >= 10 * (1 if g.n == 1 else 4)
