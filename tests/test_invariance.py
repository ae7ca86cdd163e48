"""Invariances of the p-curvature scan and of the local data.

A gauge change G -> P G P^-1 + P' P^-1 by a unimodular polynomial P
conjugates the p-curvature, and a twist G -> G + (lam/z) I adds the
p-curvature of lam/z, which is 0 mod p.  Either keeps the verdict and the
nilpotence index at every prime good for both sides (Katz 1970;
Dwork-Gerotto-Sullivan, An Introduction to G-functions, 1994).

A Moebius change of variable z = phi(w) is a local isomorphism at every
point, infinity included, so the singular points of the new operator are the
preimages of the old ones and each keeps its regularity and exponents.  The
twist x = z^lam y multiplies a solution by u^lam at 0 (u = z) and by
u^(-lam) at infinity (u = 1/z), and by a unit elsewhere: it shifts the
exponents at 0 by lam and at infinity by -lam, and leaves every other point
alone.  These tests compare gop with itself through the transform, so they
need no oracle."""

import random
from fractions import Fraction

import pytest

from gop.catalog import catalog_get, hypergeom_operator
from gop.cli import parse_operator
from gop.diffop import INFINITY, RatMat, companion
from gop.errors import IrregularPoint
from gop.exact_arith import Poly, RatFn, primes_upto
from gop.local_analysis import classify_operator, exponents, indicial_data
from gop.p_curvature import global_scan
from oracles import gauge, reversed_coeffs, substitute, twist, twist_operator


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


# ---------------------------------------------------------------------------
# local data under Moebius maps and twists

# the catalog's systems enter by their operators; the last subject has an
# algebraic class of singular points
OPERATORS = [
    (label, catalog_get(label).operator if isinstance(subject, RatMat) else subject)
    for label, subject in SUBJECTS
] + [("(z^2-2)*D-1", parse_operator("(z^2-2)*D - 1"))]


def _one_minus(x):
    return x if x is INFINITY else 1 - x


def _inverse(x):
    return Fraction(0) if x is INFINITY else INFINITY if x == 0 else 1 / x


# z = phi(w) as (a, b, c, d).  Both maps are involutions, so the point z
# moves to w = phi(z), and the class of the roots of a monic f to that of
# the roots of the monic numerator of f(phi(w))
MOBIUS = {
    "1-z": ((-1, 1, 0, 1), _one_minus, lambda f: f.compose(Poly([1, -1])).monic()),
    "1/z": ((0, 1, 1, 0), _inverse, lambda f: reversed_coeffs(f, f.degree).monic()),
}


def _key(data, shift=0):
    """Regularity, exponents and leftover factors, with the exponents
    shifted by shift."""
    factors = sorted((f.shift_argument(-shift) for f in data.nonrational_factors), key=repr)
    return data.point.regular, tuple(e + shift for e in data.rational_exponents), tuple(factors)


def _points(l):
    return {pt.point.location: pt for pt in classify_operator(l).points}


def _data(points, l, x):
    return points[x] if x in points else indicial_data(l, x)


def _exponents(l, x):
    try:
        rationals, factors = exponents(l, x)
    except IrregularPoint:
        return None
    return rationals, sorted(factors, key=repr)


@pytest.mark.parametrize("name", MOBIUS)
@pytest.mark.parametrize("label, l", OPERATORS, ids=[label for label, _ in OPERATORS])
def test_local_data_move_with_a_mobius_map(label, l, name):
    abcd, move, move_class = MOBIUS[name]
    m = substitute(l, *abcd)
    src, dst = _points(l), _points(m)
    classes = {x for x in src if isinstance(x, Poly)}
    assert {y for y in dst if isinstance(y, Poly)} == {move_class(f) for f in classes}, (label, name)
    for f in classes:
        assert _key(dst[move_class(f)]) == _key(src[f]), (label, name, f)
    points = {x for x in src if not isinstance(x, Poly)}
    points |= {move(y) for y in dst if not isinstance(y, Poly)}
    for x in points:
        y = move(x)
        # a finite point that stays finite is singular on both sides or on neither
        if x is not INFINITY and y is not INFINITY:
            assert (x in src) == (y in dst), (label, name, x)
        assert _key(_data(dst, m, y)) == _key(_data(src, l, x)), (label, name, x)
    for x in (Fraction(0), Fraction(1), INFINITY):
        assert _exponents(m, move(x)) == _exponents(l, x), (label, name, x)


@pytest.mark.parametrize("label, l", OPERATORS, ids=[label for label, _ in OPERATORS])
def test_twist_shifts_the_exponents_at_zero_and_infinity(label, l):
    rng = random.Random(label)
    lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(2, 5))
    m = twist_operator(l, lam)
    shift = {Fraction(0): lam, INFINITY: -lam}
    src, dst = _points(l), _points(m)
    assert {x for x in src if x != 0} == {y for y in dst if y != 0}, (label, lam)
    for x in set(src) | set(dst) | set(shift):
        assert _key(_data(dst, m, x)) == _key(_data(src, l, x), shift.get(x, 0)), (label, lam, x)
