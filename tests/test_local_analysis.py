"""Singularity classification, indicial polynomials, exponents."""

import random
from fractions import Fraction

import pytest

from gop.catalog import (
    CATALOG,
    counterexample_theta2_minus_2,
    hypergeom_operator,
    order1_g_operator,
    polylog_operator,
)
from gop.cli import parse_operator
from gop.diffop import Basis, DiffOp, INFINITY, is_infinity, op_mul
from gop.errors import IrregularPoint
from gop.exact_arith import Poly, RatFn
from gop.local_analysis import (
    _cleared_coeffs,
    analyze_algebraic_class,
    classify_operator,
    exponents,
    indicial_data,
)
from oracles import (
    apply_to_power,
    drawn_operator,
    hypergeom_expected_exponents,
    sampled_class_phi,
    theta_indicial_data,
)

G2F1 = hypergeom_operator([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)])


def test_fuchs_examples():
    for point in (0, 1, INFINITY):
        assert indicial_data(G2F1, point).point.regular is True
    assert indicial_data(parse_operator("D - 1"), INFINITY).point.regular is False
    # polynomial coefficients at a non-root of the leading coefficient
    assert indicial_data(parse_operator("(1-z)*D^2 - D"), 5).point.regular is True


def test_indicial_examples():
    # ordinary point, n = 3: x(x-1)(x-2)
    l3 = parse_operator("D^3")
    assert indicial_data(l3, 0).phi == Poly([0, 2, -3, 1])
    # Gauss at 0: x(x - 1 + c) with c = 1
    assert indicial_data(G2F1, 0).phi == Poly([0, 0, 1])
    assert indicial_data(counterexample_theta2_minus_2(), 0).phi == Poly([-2, 0, 1])


def test_indicial_irregular_raises():
    assert indicial_data(parse_operator("D - 1"), INFINITY).phi is None
    with pytest.raises(IrregularPoint, match="point INFINITY is an irregular singularity"):
        exponents(parse_operator("D - 1"), INFINITY)


def test_exponents_examples():
    rat, irr = exponents(G2F1, 0)
    assert rat == [0, 0] and not irr
    rat, irr = exponents(counterexample_theta2_minus_2(), 0)
    assert rat == [] and irr == [Poly([-2, 0, 1])]
    # first-order profile with residue -3/2 at z = 1 (a = 2 in the family)
    f0 = order1_g_operator([Fraction(-3, 2), Fraction(1, 2)], [Fraction(1), Fraction(4, 3)])
    rat, irr = exponents(f0, 1)
    assert rat == [Fraction(-3, 2)] and not irr


def test_exponents_at_ordinary_points():
    l = parse_operator("(1-z)*D^3 - D")
    rat, irr = exponents(l, 5)
    assert rat == [0, 1, 2] and not irr
    # constant coefficients vanish at infinity: exponents 0, -1, ..., -(n-1)
    rat, irr = exponents(parse_operator("D^2"), INFINITY)
    assert rat == [-1, 0] and not irr
    # whereas the pullback of D_u^2 under u = 1/z has solutions 1 and 1/z
    rat, irr = exponents(parse_operator("z^4*D^2 + 2*z^3*D"), INFINITY)
    assert rat == [0, 1] and not irr


def test_classify_examples():
    li2 = classify_operator(polylog_operator(2))
    assert li2.fuchsian and li2.all_exponents_rational and li2.katz_consistent
    dm1 = classify_operator(parse_operator("D - 1"))
    assert not dm1.fuchsian and not dm1.katz_consistent
    th = classify_operator(counterexample_theta2_minus_2())
    assert th.fuchsian and not th.all_exponents_rational and not th.katz_consistent


def test_classify_gauss_singular_set():
    profile = classify_operator(G2F1)
    locs = set()
    for pt in profile.points:
        loc = pt.point.location
        locs.add("inf" if is_infinity(loc) else loc)
    assert locs == {Fraction(0), Fraction(1), "inf"}
    assert profile.fuchsian
    by_loc = {
        ("inf" if is_infinity(pt.point.location) else pt.point.location): pt
        for pt in profile.points
    }
    assert list(by_loc[Fraction(0)].rational_exponents) == [0, 0]
    assert list(by_loc["inf"].rational_exponents) == [Fraction(1, 2), Fraction(1, 2)]
    assert list(by_loc[Fraction(1)].rational_exponents) == [0, 0]


def _drawn_operator(rng, basis):
    """Order 1..3 with polynomial coefficients built from the factors z,
    z - 1, z + 1, 2z - 1, so that the tested points are often singular and
    sometimes irregular."""
    factors = [Poly([0, 1]), Poly([-1, 1]), Poly([1, 1]), Poly([-1, 2])]
    coeffs = []
    for _ in range(rng.randint(2, 4)):
        c = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
        for _ in range(rng.randint(0, 3)):
            c = c * rng.choice(factors)
        coeffs.append(c)
    if coeffs[-1].is_zero():
        coeffs[-1] = rng.choice(factors)
    return DiffOp(basis, coeffs)


def test_indicial_data_matches_theta_route():
    # the theta route translates each point to 0 in Q(z) arithmetic; the
    # Frobenius rule reads the cleared integer coefficients in place
    rng = random.Random(8)
    ops = [entry.operator for entry in CATALOG.values()] + [polylog_operator(3)]
    ops += [_drawn_operator(rng, basis) for _ in range(20) for basis in (Basis.D, Basis.THETA)]
    points = [0, 1, -1, Fraction(1, 2), Fraction(3, 2), 2, 5, INFINITY]
    irregular = 0
    for l in ops:
        for point in points:
            data = indicial_data(l, point)
            want = theta_indicial_data(l, point)
            got = (data.point.regular, data.point.pole_profile, data.phi)
            assert got == want, (l, point)
            irregular += not data.point.regular
    assert 0 < irregular < len(ops) * len(points) // 2


def test_indicial_product_formula():
    rng = random.Random(5)
    for _ in range(12):
        def mk():
            order = rng.randint(1, 2)
            coeffs = [
                Poly([Fraction(rng.randint(-3, 3)) for _ in range(2)])
                for _ in range(order)
            ]
            return DiffOp(Basis.THETA, coeffs + [Poly.ONE])

        m, l = mk(), mk()
        phi_prod = indicial_data(op_mul(m, l), 0).phi
        assert phi_prod == indicial_data(m, 0).phi * indicial_data(l, 0).phi


def test_left_multiplication_preserves_exponents():
    l = G2F1
    r = RatFn(Poly([1, 2]), Poly([3, 0, 1]))
    scaled = l.scaled(r)
    for point in (0, 1, INFINITY):
        assert exponents(scaled, point) == exponents(l, point)


def test_apply_to_power_matches_indicial():
    for l in (G2F1, counterexample_theta2_minus_2(), parse_operator("theta^3 - z*theta")):
        phi = indicial_data(l, 0).phi
        for s in range(-3, 4):
            _, phis = apply_to_power(l, s)
            assert phis[0] == phi.evaluate(s)


def test_algebraic_class_first_order():
    # (z^2-2) y' = y: exponents sqrt(2)/4 and -sqrt(2)/4 at the class z^2-2
    l = DiffOp(Basis.D, [RatFn.const(-1), RatFn(Poly([-2, 0, 1]))])
    data = analyze_algebraic_class(l, Poly([-2, 0, 1]))
    assert len(data) == 1
    d = data[0]
    assert d.point.regular
    assert d.rational_exponents == ()
    # flattened polynomial has roots +-sqrt(2)/4, i.e. divides 8x^2-1
    assert [f.monic() for f in d.nonrational_factors] == [Poly([Fraction(-1, 8), 0, 1])]


def test_algebraic_class_rational_exponents_detected():
    # (z^2-2) y' = z y has exponent 1/2 at both roots of z^2-2
    l = DiffOp(Basis.D, [RatFn(Poly([0, -1])), RatFn(Poly([-2, 0, 1]))])
    data = analyze_algebraic_class(l, Poly([-2, 0, 1]))
    d = data[0]
    assert list(d.rational_exponents) == [Fraction(1, 2), Fraction(1, 2)]
    assert not d.nonrational_factors


def test_classify_with_algebraic_class():
    l = DiffOp(Basis.D, [RatFn.const(-1), RatFn(Poly([-2, 0, 1]))])
    profile = classify_operator(l)
    class_points = [
        pt for pt in profile.points if isinstance(pt.point.location, Poly)
    ]
    assert len(class_points) == 1
    assert profile.fuchsian
    assert not profile.all_exponents_rational


def _irreducible_leading_operators():
    """Operators whose leading coefficient has an irreducible factor f of
    degree 2..8 (z^d - z - 1 by Selmer's theorem, z^d + 2 by Eisenstein's
    criterion, z^4 + 1, z^6 + z^3 + 1), in four shapes: regular at the roots
    of f with one, two or all terms leading, and irregular there.  The
    all-leading shape stops at degree 6: its indicial polynomial has leading
    coefficient disc(f)^2 up to content, and rational_roots enumerates the
    divisors of that."""
    z = Poly.x()
    fs = [z**d - z - 1 for d in range(2, 9)] + [z**d + 2 for d in range(2, 9)]
    fs += [z**4 + 1, z**6 + z**3 + 1]
    ops = []
    for f in fs:
        ops.append(DiffOp(Basis.D, [z, Poly.ONE, f]))
        ops.append(DiffOp(Basis.D, [Poly.ONE, z, Poly.ONE, (z - 1) * f]))
        ops.append(DiffOp(Basis.D, [Poly.ONE, Poly.ONE, f**3]))
        if f.degree <= 6:
            ops.append(DiffOp(Basis.D, [Poly.const(3), (z + 1) * f, f**2]))
    return ops


def test_indicial_norm_matches_sampled_resultants():
    # the norm det Phi(C_f, y) against the route it replaced: Res_x(f, Phi)
    # at deg(f)*n + 1 values of y, then Lagrange interpolation
    rng = random.Random(14)
    ops = [entry.operator for entry in CATALOG.values()]
    ops += [drawn_operator(rng, basis) for _ in range(30) for basis in (Basis.D, Basis.THETA)]
    ops += _irreducible_leading_operators()
    class_degrees = []
    for l in ops:
        b = _cleared_coeffs(l)
        for data in classify_operator(l).points:
            loc = data.point.location
            if is_infinity(loc):
                continue
            if isinstance(loc, Poly):
                want = sampled_class_phi(b, loc)
                class_degrees.append(loc.degree)
            else:
                want = sampled_class_phi(b, Poly([-loc, 1]))
                want = want and want.monic()
            assert data.phi == want, (l, loc)
    assert set(range(2, 9)) <= set(class_degrees) and len(class_degrees) >= 64


def test_hypergeom_exponent_bullets_random():
    rng = random.Random(41)
    done = 0
    while done < 10:
        n = rng.randint(2, 3)
        alphas = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        betas = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n - 1)]
        if any(b.denominator == 1 and b <= 0 for b in betas):
            continue
        op = hypergeom_operator(alphas, betas)
        expected = hypergeom_expected_exponents(alphas, betas)
        for point, key in ((0, "0"), (1, "1"), (INFINITY, "inf")):
            rat, irr = exponents(op, point)
            assert not irr
            assert rat == expected[key], (alphas, betas, point)
        done += 1


def test_apparent_singularity_flag():
    # z y'' - (1+z) y' + y = 0? Use the classic: exponents 0, 2 at z=0 with no log
    # Take L = z D^2 - (1+z) D + 1: solutions e^z and 1+z; 0 apparent.
    l = parse_operator("z*D^2 - (1+z)*D + 1")
    profile = classify_operator(l)
    at0 = next(
        pt
        for pt in profile.points
        if not is_infinity(pt.point.location)
        and not isinstance(pt.point.location, Poly)
        and pt.point.location == 0
    )
    assert list(at0.rational_exponents) == [0, 2]
    assert at0.apparent_candidate
    # genuine singularity with log: the polylog operator at 0
    li2 = classify_operator(polylog_operator(2))
    at0 = next(
        pt
        for pt in li2.points
        if not is_infinity(pt.point.location)
        and not isinstance(pt.point.location, Poly)
        and pt.point.location == 0
    )
    assert not at0.apparent_candidate
