"""Singularity classification and local exponent data.

Every point is read off one form of the operator, L = sum_j b_j D^j with
b_0..b_n its primitive integer coefficients (diffop.cleared_operator, the
form growth.cleared_system also builds L's companion system from:
b_n = T, b_j = -(TG)[n-1][j]), by one Frobenius rule (Fuchs' criterion and
the indicial equation, Ince, Ordinary Differential Equations, ch. XV-XVI):
L applied to the local power u^y is led by the terms of least order in u.
The point is regular singular exactly when the j = n term is among them,
and those terms give the indicial polynomial.

* At a finite point a the leading j minimise ord_a b_j - j, and each
  contributes (b_j / (z - a)^ord)(a) y(y-1)...(y-j+1).  A rational point is
  the class z - a; algebraic (non-rational) locations are classes cut out by
  a monic squarefree polynomial f.  There the contributions are polynomials
  Phi(x, y) with x in Q[x]/(f), and the class keeps their norm
  det Phi(C_f, y), C_f the companion matrix of f: the product of Phi(a, y)
  over the roots a of f, computed with exact Q-arithmetic only.
* At infinity the leading j maximise deg b_j - j, and each contributes
  lc(b_j) (-y)(-y-1)...(-y-j+1).

Every pole profile lists (j, ord b_n - ord b_{n-j}) in ascending j.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .diffop import DiffOp, INFINITY, cleared_operator, is_infinity
from .errors import IrregularPoint, UsageError
from .exact_arith import Poly, as_fraction, falling_factorial_poly, poly_det, poly_gcd


class SingularPoint(NamedTuple):
    """Location plus regularity verdict and the D-basis pole profile.

    ``location`` is a Fraction, INFINITY, or a squarefree Poly describing a
    class of conjugate algebraic points.  ``pole_profile`` lists pairs
    (j, pole order of b_{n-j}/b_n) for j = 1..n, skipping b_{n-j} = 0; at
    infinity the entry is the pole order at u = 0 under u = 1/z, so
    regularity reads pole order <= j (finite) or <= -j (infinity).
    """

    location: object
    regular: bool
    pole_profile: tuple[tuple[int, int], ...]


class IndicialData(NamedTuple):
    point: SingularPoint
    phi: Optional[Poly]
    rational_exponents: tuple[Fraction, ...]
    nonrational_factors: tuple[Poly, ...]
    apparent_candidate: bool = False


class OperatorProfile(NamedTuple):
    operator: DiffOp
    points: tuple[IndicialData, ...]
    fuchsian: bool
    all_exponents_rational: bool
    katz_consistent: bool


def _cleared_coeffs(l: DiffOp) -> list[Poly]:
    """[b_0, ..., b_n] of diffop.cleared_operator, as Polys."""
    return [Poly(b) for b in cleared_operator(l)]


# ---------------------------------------------------------------------------
# the Frobenius rule


def _frobenius(ords: list[Optional[int]], step: int) -> tuple[bool, tuple, list[int]]:
    """(regular, pole profile, leading j) from ords[j] = order of b_j at the
    point (None for b_j = 0).  The j-th term of L u^y has order
    ords[j] + step*j + y, step = -1 at a finite point and +1 at infinity."""
    n = len(ords) - 1
    weights = [None if k is None else k + step * j for j, k in enumerate(ords)]
    regular = all(w is None or weights[n] <= w for w in weights)
    profile = tuple(
        (n - j, ords[n] - ords[j]) for j in range(n - 1, -1, -1) if ords[j] is not None
    )
    leading = [j for j, w in enumerate(weights) if w == weights[n]]
    return regular, profile, leading


def _data(point: SingularPoint, phi: Optional[Poly]) -> IndicialData:
    if phi is None:
        return IndicialData(point, None, (), ())
    rationals, leftovers = split_rational_roots(phi)
    return IndicialData(point, phi, tuple(rationals), tuple(leftovers))


def _class_multiplicities(polys: list[Poly], f: Poly) -> list[Optional[int]]:
    return [None if p.is_zero() else p.factor_multiplicity(f) for p in polys]


def _class_data(b: list[Poly], piece: Poly, location) -> IndicialData:
    """The rule at the roots of the monic squarefree piece, along which every
    b_j has uniform order.  With C_j = b_j / piece^(ord b_j), a leading j
    contributes C_j(x) piece'(x)^(ord b_j) y(y-1)...(y-j+1) at a root x.  The
    sum Phi(x, y) is taken modulo piece, and its norm det Phi(C, y), C the
    companion matrix of piece, is one Q-polynomial in y whose root set is the
    union of the exponent sets over the conjugate points.  For piece = z - a
    the matrix is 1 x 1 and the norm is Phi(a, y)."""
    ks = _class_multiplicities(b, piece)
    regular, profile, leading = _frobenius(ks, -1)
    point = SingularPoint(location=location, regular=regular, pole_profile=profile)
    if not regular:
        return _data(point, None)
    fp = piece.derivative()
    # phi[d] is the coefficient of y^d, a polynomial in x of degree < deg piece
    phi = [Poly() for _ in range(len(b))]
    for j in leading:
        cof = b[j]
        for _ in range(ks[j]):
            cof = cof.exact_div(piece)
        coeff_x = (cof * fp ** ks[j]) % piece
        for d, c in enumerate(falling_factorial_poly(j).nums):
            phi[d] = phi[d] + coeff_x * c
    return _data(point, _norm(piece, phi).primitive())


def _norm(piece: Poly, phi: list[Poly]) -> Poly:
    """det Phi(C, y) for Phi(x, y) = sum_d phi[d](x) y^d, every phi[d] of
    degree < deg piece, and C the companion matrix of the monic piece: column
    k of Phi(C, y) holds the coefficients of x^k Phi(x, y) mod piece, so the
    determinant is the product of Phi(a, y) over the roots a of piece, with
    multiplicity."""
    cols = [phi]
    for _ in range(piece.degree - 1):
        cols.append([(c * Poly.x()) % piece for c in cols[-1]])
    return poly_det([[Poly([c[i] for c in col]) for col in cols] for i in range(piece.degree)])


def _infinity_data(b: list[Poly]) -> IndicialData:
    ords = [None if p.is_zero() else -p.degree for p in b]
    regular, profile, leading = _frobenius(ords, 1)
    point = SingularPoint(location=INFINITY, regular=regular, pole_profile=profile)
    if not regular:
        return _data(point, None)
    phi = Poly()
    for j in leading:
        # (-y)(-y-1)...(-y-j+1) is the falling factorial at -y
        phi = phi + falling_factorial_poly(j).compose(Poly([0, -1])) * b[j].leading()
    return _data(point, phi.monic())


def _point_data(b: list[Poly], point) -> IndicialData:
    if is_infinity(point):
        return _infinity_data(b)
    a = as_fraction(point)
    data = _class_data(b, Poly([-a, 1]), a)
    return data if data.phi is None else data._replace(phi=data.phi.monic())


def indicial_data(l: DiffOp, point) -> IndicialData:
    """Regularity, pole profile and monic indicial polynomial (None when the
    point is irregular) at a rational point or infinity, with the exponents
    split off the indicial polynomial.  ``apparent_candidate`` is left False;
    classify_operator fills it in."""
    return _point_data(_cleared_coeffs(l), point)


def split_rational_roots(phi: Poly) -> tuple[list[Fraction], list[Poly]]:
    """Rational roots with multiplicity, plus leftover monic squarefree
    factors without rational roots (degree <= 3 pieces are genuinely
    irreducible over Q; higher degrees are reported unsplit), repeated per
    multiplicity."""
    rationals: list[Fraction] = []
    leftovers: list[Poly] = []
    if phi.degree < 1:
        return rationals, leftovers
    p = phi.primitive()
    for root, mult in p.rational_roots():
        rationals.extend([root] * mult)
        p = p.exact_div(Poly([-root, 1]) ** mult)
    if p.degree >= 1:
        for g, mult in p.monic().squarefree_decomposition():
            leftovers.extend([g] * mult)
    return sorted(rationals), leftovers


def exponents(l: DiffOp, point) -> tuple[list[Fraction], list[Poly]]:
    """Rational exponents (with multiplicity) and leftover irreducible factors
    of the indicial polynomial at the point."""
    data = indicial_data(l, point)
    if data.phi is None:
        raise IrregularPoint(f"point {point!r} is an irregular singularity")
    return list(data.rational_exponents), list(data.nonrational_factors)


# ---------------------------------------------------------------------------
# algebraic classes


def _split_class(polys: list[Poly], f: Poly) -> list[Poly]:
    """Refine f until every coefficient has uniform order along the roots of
    each piece: whenever the cofactor B_j / f^k still shares a factor with f
    the class splits along that gcd.  Degrees strictly drop, so this stops."""
    ks = _class_multiplicities(polys, f)
    for p, k in zip(polys, ks):
        if k is None:
            continue
        cof = p
        for _ in range(k):
            cof = cof.exact_div(f)
        g = poly_gcd(f, cof)
        if 1 <= g.degree < f.degree:
            return _split_class(polys, g) + _split_class(polys, f.exact_div(g).monic())
    return [f]


def analyze_algebraic_class(l: DiffOp, f: Poly) -> list[IndicialData]:
    """Local data at the conjugate roots of the squarefree polynomial f, one
    entry per piece of f along which every coefficient has uniform order."""
    b = _cleared_coeffs(l)
    return [_class_data(b, piece, piece) for piece in _split_class(b, f.monic())]


# ---------------------------------------------------------------------------
# whole-operator classification


# the largest series order the apparent-singularity test expands to; the
# exact coefficients grow with the order, so time and memory grow about as its
# square: theta^2 - 9990*theta + z (order 10 000 at z = 0) took 0.9 s and
# 180 MB peak RSS on a 2-core x86-64 machine, order 20 000 took 3.1 s and
# 0.8 GB, order 40 000 took 12 s and 3.4 GB
APPARENT_ORDER_MAX = 10_000


def _apparent_singularity_candidate(b: list[Poly], a: Fraction, data: IndicialData) -> bool:
    """Heuristic flag: all exponents distinct nonnegative integers and a full
    power-series basis exists to the tested order.  Non-conclusive.
    UsageError when that order passes APPARENT_ORDER_MAX."""
    n = len(b) - 1
    rationals = data.rational_exponents
    if data.phi is None or data.nonrational_factors or len(rationals) != n:
        return False
    if any(r.denominator != 1 or r < 0 for r in rationals) or len(set(rationals)) != n:
        return False
    exps = sorted(int(r) for r in rationals)
    order = exps[-1] + n + 8
    if order > APPARENT_ORDER_MAX:
        raise UsageError(
            f"the integer exponents {exps} at z = {a} need the series to order {order}, "
            f"above the bound {APPARENT_ORDER_MAX}"
        )
    return regular_series_solutions([c.shift_argument(a) for c in b], exps, order) is not None


def regular_series_solutions(polys: list[Poly], exps: list[int], order: int):
    """Power-series solutions at 0 of sum_j polys[j] D^j, seeded z^e for each
    e in exps (which must be the integer exponents at 0, sorted), or None
    when a resonance obstruction forces a logarithm.  Each solution is a dict
    exponent -> coefficient."""
    # L z^k = sum over b_{j,i} != 0 of b_{j,i} k(k-1)...(k-j+1) z^(k+i-j), so
    # with d = min(i - j) the coefficient of z^(K+d) in L sum a_k z^k is
    # sum_t q_t(K-t) a_(K-t), q_t(k) = sum_j b_j[j+d+t] k(k-1)...(k-j+1);
    # q_0 != 0, since some b_j[j+d] is and the k(k-1)...(k-j+1) have degree j
    shifts = [i - j for j, b in enumerate(polys) for i, c in enumerate(b.coeffs) if c]
    d, max_t = min(shifts), max(shifts) - min(shifts)
    q_polys = [
        sum((falling_factorial_poly(j) * b[j + d + t] for j, b in enumerate(polys) if b[j + d + t]), Poly())
        for t in range(max_t + 1)
    ]
    solutions = []
    for e in exps:
        a = {e: Fraction(1)}
        for big_k in range(e + 1, order):
            rhs = Fraction(0)
            for t in range(1, max_t + 1):
                prev = a.get(big_k - t, Fraction(0))
                if prev:
                    rhs -= q_polys[t].evaluate(big_k - t) * prev
            q0 = q_polys[0].evaluate(big_k)
            if q0 == 0:
                if rhs != 0:
                    return None
                a[big_k] = Fraction(0)
            else:
                a[big_k] = rhs / q0
        solutions.append(a)
    return solutions


def classify_operator(l: DiffOp) -> OperatorProfile:
    """Full singularity profile: candidate singular locations are the roots
    of the leading coefficient b_n (rational ones individually, the rest
    grouped into squarefree classes) plus infinity."""
    b = _cleared_coeffs(l)
    lead = b[-1]
    points: list[IndicialData] = []
    rational_roots = lead.rational_roots()
    for a, _mult in rational_roots:
        data = _point_data(b, a)
        points.append(data._replace(apparent_candidate=_apparent_singularity_candidate(b, a, data)))
    rest = lead.primitive()
    for root, mult in rational_roots:
        rest = rest.exact_div(Poly([-root, 1]) ** mult)
    if rest.degree >= 1:
        for piece, _m in rest.monic().squarefree_decomposition():
            points.extend(analyze_algebraic_class(l, piece))
    points.append(_infinity_data(b))
    fuchsian = all(pt.point.regular for pt in points)
    all_rational = fuchsian and all(
        pt.phi is not None and not pt.nonrational_factors for pt in points
    )
    return OperatorProfile(
        operator=l,
        points=tuple(points),
        fuchsian=fuchsian,
        all_exponents_rational=all_rational,
        katz_consistent=fuchsian and all_rational,
    )
