"""Kernel arithmetic: valuations, Kummer, accolade, polynomial tools."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gop.diffop import TruncatedSeries
from gop.exact_arith import (
    GAUSS_INF,
    Poly,
    RatFn,
    accolade,
    PRIME_CHECK_BOUND,
    gauss_valuation,
    is_prime,
    kummer_vp_factorial,
    poly_gcd,
    primes_upto,
    resultant,
    vp_fraction,
)
from oracles import lcm_upto, schoolbook_product, series_gauss_valuation

PRIMES = (2, 3, 5)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def poly_strategy(max_deg=3):
    return st.lists(fractions, min_size=0, max_size=max_deg + 1).map(Poly)


def ratfn_strategy():
    return st.tuples(poly_strategy(), poly_strategy()).filter(
        lambda t: not t[1].is_zero()
    ).map(lambda t: RatFn(*t))


def legendre_vp_factorial(n, p):
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


# -- direct examples


def test_gauss_valuation_examples():
    f = RatFn(Poly([6, 3]), Poly([4, 0, 2]))  # (3z+6)/(2z^2+4)
    assert gauss_valuation(f, 3) == 1
    assert gauss_valuation(RatFn.ONE, 7) == 0
    assert gauss_valuation(RatFn.ZERO, 5) == GAUSS_INF


def test_series_gauss_valuation_examples():
    ones = [Fraction(1)] * 20
    assert series_gauss_valuation(ones, 5) == 0
    geom_p = [Fraction(3) ** k for k in range(12)]  # 1/(1-3z) at p=3
    assert series_gauss_valuation(geom_p, 3) == 0
    assert series_gauss_valuation([7 * c for c in ones], 7) == 1
    assert series_gauss_valuation([Fraction(0)] * 5, 3) == GAUSS_INF


def test_kummer_examples():
    assert kummer_vp_factorial(4, 2) == 3
    assert kummer_vp_factorial(9, 3) == 4
    assert kummer_vp_factorial(0, 5) == 0


def test_kummer_equals_legendre_small():
    for p in (2, 3, 5, 7):
        for n in range(0, 200):
            assert kummer_vp_factorial(n, p) == legendre_vp_factorial(n, p)


def test_accolade_examples():
    assert accolade(8, 1, 2) == -3
    assert accolade(4, 2, 5) == 0
    assert accolade(9, 0, 3) == 0


def test_accolade_monotone_and_bounds():
    for p in (2, 3, 5):
        for s in range(1, 30):
            for m in range(0, 6):
                v = accolade(s, m, p)
                assert v >= accolade(s, m + 1, p)
                assert v >= accolade(s + 1, m, p)
                if p > s:
                    assert v == 0
                else:
                    # {s,m}_p = p^-v <= s^m
                    assert p ** (-v) <= s**m or m == 0


def test_lcm_upto():
    assert lcm_upto(1) == 1
    assert lcm_upto(6) == 60
    assert lcm_upto(10) == 2520


def test_lcm_growth_chebyshev():
    ratio = math.log(lcm_upto(100)) / 100
    assert 0.90 <= ratio <= 1.05


# -- valuation axioms


@given(ratfn_strategy(), ratfn_strategy())
@settings(max_examples=60, deadline=None)
def test_gauss_valuation_is_a_valuation(f, g):
    for p in PRIMES:
        vf, vg = gauss_valuation(f, p), gauss_valuation(g, p)
        prod = f * g
        if f.is_zero() or g.is_zero():
            assert gauss_valuation(prod, p) == GAUSS_INF
        else:
            assert gauss_valuation(prod, p) == vf + vg
        s = f + g
        vs = gauss_valuation(s, p)
        assert vs >= min(vf, vg)


def test_series_consistency_random():
    rng = random.Random(7)
    for p in (3, 5):
        for _ in range(10):
            num = Poly([Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 4))])
            if num.is_zero():
                num = Poly.ONE
            # unit constant term and integral coefficients keep every pole
            # outside the open p-adic unit disk
            den = Poly([1] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))])
            f = RatFn(num, den)
            v, lau = f.laurent_at_zero(50)
            assert v >= 0
            coeffs = [Fraction(0)] * v + lau
            sv = series_gauss_valuation(coeffs[:50], p)
            gv = gauss_valuation(f, p)
            assert sv >= gv
            v2, lau2 = f.laurent_at_zero(200)
            coeffs2 = [Fraction(0)] * v2 + lau2
            assert series_gauss_valuation(coeffs2[:200], p) == gv


def test_derivative_contraction():
    rng = random.Random(11)
    for _ in range(15):
        num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)])
        den = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2)] + [1])
        if num.is_zero():
            continue
        f = RatFn(num, den)
        for p in PRIMES:
            base = gauss_valuation(f, p)
            g = f
            fact = 1
            for s in range(1, 11):
                g = g.derivative()
                fact *= s
                if g.is_zero():
                    break
                assert gauss_valuation(g, p) - vp_fraction(Fraction(fact), p) >= base


# -- polynomial helpers


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=50, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(poly_strategy(), poly_strategy())
@settings(max_examples=50, deadline=None)
def test_poly_divmod(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


def test_products_match_schoolbook():
    # Poly x Poly and series x Poly clear denominators and multiply integers;
    # the schoolbook Fraction sums are the reference, exactly
    rng = random.Random(20)
    big = 10**20
    # three consecutive, so pairwise coprime, denominators near 10^20, and small ones
    dens = [big - 1, big, big + 1, 1, 3, 7]

    def coeff():
        return Fraction(rng.randint(-big, big), rng.choice(dens)) if rng.random() < 0.8 else Fraction(0)

    polys = [[], [0], [5], [Fraction(-7, big + 1)], [0, 0, Fraction(1, big - 1)]]
    polys += [[coeff() for _ in range(rng.randint(1, 9))] for _ in range(30)]
    for a in polys:
        for b in polys[:12]:
            pa, pb = Poly(a), Poly(b)
            assert (pa * pb).coeffs == tuple(schoolbook_product(pa.coeffs, pb.coeffs)), (a, b)
            # trunc_order 0, shorter than, equal to and longer than pb
            for order in (0, 1, len(pb.coeffs), len(pb.coeffs) + 4):
                f = TruncatedSeries([coeff() for _ in range(order)])
                want = schoolbook_product(f.coeffs, pb.coeffs, order)
                assert f.mul_poly(pb).coeffs == tuple(want), (f, b)
                assert f.mul_poly(pb).trunc_order == order


def test_rational_roots_and_squarefree():
    p = Poly([0, 0, 1]) * Poly([-1, 1]) ** 2 * Poly([1, 3])  # z^2 (z-1)^2 (3z+1)
    roots = dict(p.rational_roots())
    assert roots == {Fraction(0): 2, Fraction(1): 2, Fraction(-1, 3): 1}
    sf = dict((g, m) for g, m in p.squarefree_decomposition())
    assert sum(g.degree * m for g, m in sf.items()) == p.degree


def test_resultant_vs_root_products():
    f = Poly([-2, 0, 1])  # z^2 - 2
    g = Poly([-1, 1])  # z - 1
    # res(f, g) = lc(f)^deg g * f-products = g evaluated over roots of f times lc
    assert resultant(f, g) == (1 - 2) * (1) ** 0 * -1 or resultant(f, g) == -1
    assert resultant(f, g) == -1  # (sqrt2-1)(-sqrt2-1) = -(2-1) ... = -1
    assert resultant(f, f) == 0
    assert poly_gcd(f * g, g * Poly([5])) == g.monic()


def test_gauss_valuation_matrix_convention_zero():
    assert series_gauss_valuation([], 3) == GAUSS_INF


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    # strong pseudoprimes to the first 11 and 12 prime bases, and a composite
    # just below the bound
    strong = [3825123056546413051, 318665857834031151167461, PRIME_CHECK_BOUND - 2]
    cases = list(range(-3, 10**4 + 1)) + carmichael + strong + [10**18 + 3, 10**18 + 9]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n
    assert [n for n in range(10**4 + 1) if is_prime(n)] == primes_upto(10**4)
    with pytest.raises(ValueError):
        is_prime(PRIME_CHECK_BOUND)
