"""Optional tier: the fraction-free determinant and the indicial norm of a
class against sympy, on seeded inputs with Fraction coefficients."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from gop.exact_arith import Poly, poly_det
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
