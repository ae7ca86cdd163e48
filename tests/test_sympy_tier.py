"""Optional tier: Poly arithmetic, the fraction-free determinant and the
indicial norm of a class against sympy, on seeded inputs with Fraction
coefficients."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from gop.exact_arith import Poly, poly_det, poly_gcd, poly_lcm
from gop.local_analysis import _norm

X, Y = sympy.symbols("x y")


def _to_sympy(p: Poly, var):
    return sum((sympy.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(p.coeffs)),
               sympy.Integer(0))


def _from_sympy(expr, var) -> Poly:
    coeffs = sympy.Poly(sympy.expand(expr), var).all_coeffs()[::-1]
    return Poly([Fraction(int(c.p), int(c.q)) for c in coeffs])


def _poly(rng, max_degree) -> Poly:
    return Poly([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(rng.randint(0, max_degree + 1))])


def _sympy_det(mat) -> Poly:
    # Berkowitz's division-free method: no elimination step shared with Bareiss
    rows = [[_to_sympy(p, Y) for p in row] for row in mat]
    return _from_sympy(sympy.Matrix(rows).det(method="berkowitz"), Y)


def _matrices():
    rng = random.Random(2109)
    mats = [[[_poly(rng, 2) for _ in range(n)] for _ in range(n)] for n in range(1, 6) for _ in range(2)]
    for n in range(2, 6):
        m = [[_poly(rng, 2) for _ in range(n)] for _ in range(n)]
        # a zero (0, 0) entry forces a row swap at the first step
        swap = [row[:] for row in m]
        swap[0][0] = Poly()
        # a zero column ends the elimination without a pivot
        zero_col = [row[:] for row in m]
        for row in zero_col:
            row[n - 1] = Poly()
        # the last row a Q[y]-combination of the first two
        deficient = [row[:] for row in m]
        a, b = _poly(rng, 1), _poly(rng, 1)
        deficient[-1] = [a * u + b * v for u, v in zip(m[0], m[1])]
        mats += [swap, zero_col, deficient]
    return mats


def test_poly_det_matches_sympy():
    zero = 0
    for mat in _matrices():
        want = _sympy_det(mat)
        assert poly_det(mat) == want, mat
        zero += want.is_zero()
    assert zero >= 8


def test_class_norm_matches_sympy_resultant():
    # for a monic f, Res_x(f, Phi) is the product of Phi(a, y) over the roots
    # a of f; compared up to content and sign
    rng = random.Random(14)
    for _ in range(30):
        m = rng.randint(1, 4)
        f = Poly([Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(m)] + [1])
        phi = [_poly(rng, m - 1) for _ in range(rng.randint(1, 4))]
        phi_xy = sum((_to_sympy(p, X) * Y**d for d, p in enumerate(phi)), sympy.Integer(0))
        want = sympy.resultant(_to_sympy(f, X), phi_xy, X) if phi_xy != 0 else sympy.Integer(0)
        assert _norm(f, phi).primitive() == _from_sympy(want, Y).primitive(), (f, phi)


# ---------------------------------------------------------------------------
# Poly arithmetic against sympy.Poly over QQ


def _sp(p: Poly):
    return sympy.Poly.from_list([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                                X, domain="QQ")


def _gp(q) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


def _rational(rng):
    """A rational with a numerator up to 10^6 and a denominator up to 10^6,
    or a small one."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def _drawn(rng, max_degree=12) -> Poly:
    """The zero polynomial, a constant, or a degree up to max_degree."""
    kind = rng.random()
    if kind < 0.1:
        return Poly()
    if kind < 0.2:
        return Poly.const(_rational(rng) or 1)
    return Poly([_rational(rng) for _ in range(rng.randint(1, max_degree))] + [_rational(rng) or 1])


def _pairs():
    rng = random.Random(27)
    out = [(Poly(), Poly()), (Poly(), Poly.const(3)), (Poly.const(Fraction(-5, 7)), Poly.const(Fraction(2, 10**6)))]
    for _ in range(60):
        a, b = _drawn(rng), _drawn(rng)
        if rng.random() < 0.4:
            # a common factor, so that gcd and lcm are not trivial
            c = _drawn(rng, 4)
            a, b = a * c, b * c
        out.append((a, b))
    return out


def _sympy_content(q) -> Fraction:
    den, ints = q.clear_denoms(convert=True)
    return Fraction(int(ints.content()), int(den))


def test_poly_ring_operations_match_sympy():
    for a, b in _pairs():
        sa, sb = _sp(a), _sp(b)
        assert a + b == _gp(sa + sb), (a, b)
        assert a - b == _gp(sa - sb), (a, b)
        assert a * b == _gp(sa * sb), (a, b)
        assert a.compose(b) == _gp(sa.compose(sb)), (a, b)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        sq, sr = sa.div(sb)
        assert (q, r) == (_gp(sq), _gp(sr)), (a, b)
        assert a % b == _gp(sr), (a, b)
        assert (a * b).exact_div(b) == _gp((sa * sb).exquo(sb)) == a, (a, b)
        if not r.is_zero():
            with pytest.raises(ValueError):
                a.exact_div(b)


def test_poly_normal_forms_and_values_match_sympy():
    rng = random.Random(2710)
    for a, _b in _pairs():
        sa = _sp(a)
        assert a.content() == _sympy_content(sa), a
        prim = sa.clear_denoms(convert=True)[1]
        prim = prim.quo_ground(prim.content()) if not a.is_zero() else prim
        if not a.is_zero() and prim.LC() < 0:
            prim = -prim
        assert a.primitive() == _gp(prim.to_field()), a
        assert a.monic() == (a if a.is_zero() else _gp(sa.monic())), a
        shift = _rational(rng)
        at = sympy.Rational(shift.numerator, shift.denominator)
        assert a.shift_argument(shift) == _gp(sa.shift(at)), a
        value = sa.eval(at)
        assert a.evaluate(shift) == Fraction(int(value.p), int(value.q)), (a, shift)


def test_poly_gcd_and_lcm_match_sympy():
    for a, b in _pairs():
        sa, sb = _sp(a), _sp(b)
        assert poly_gcd(a, b) == _gp(sa.gcd(sb)), (a, b)
        want = Poly() if a.is_zero() or b.is_zero() else _gp(sa.lcm(sb))
        assert poly_lcm(a, b) == want, (a, b)


def _with_roots(rng) -> Poly:
    """A product of linear factors with small rational roots, some repeated,
    times a drawn factor of small height and a scale with a denominator up to
    10^6: the scale leaves the primitive part, and so the divisors that
    rational_roots enumerates, small."""
    p = Poly.const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6)))
    for _ in range(rng.randint(0, 5)):
        root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p * Poly([-root, 1]) ** rng.randint(1, 3)
    if rng.random() < 0.7:
        p = p * Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 3)])
    return p


def test_rational_roots_and_squarefree_decomposition_match_sympy():
    rng = random.Random(1210)
    subjects = [_with_roots(rng) for _ in range(40)] + [Poly.const(Fraction(7, 10**6)), Poly.x(12)]
    rooted = 0
    for p in subjects:
        sp = _sp(p)
        want = sorted(
            (Fraction(-int(f.nth(0).p) * int(f.nth(1).q), int(f.nth(0).q) * int(f.nth(1).p)), m)
            for f, m in sp.factor_list()[1]
            if f.degree() == 1
        )
        assert p.rational_roots() == want, p
        rooted += bool(want)
        # one factor per multiplicity, each monic
        want_sqf = {i: _gp(g) for g, i in sp.sqf_list()[1]} if p.degree >= 1 else {}
        assert {i: g for g, i in p.squarefree_decomposition()} == want_sqf, p
    assert rooted >= 25
    with pytest.raises(ValueError):
        Poly().rational_roots()
