"""Reference computations written straight from the definitions in RatMat /
RatFn / DiffOp arithmetic, independent of the cleared integer recurrence that
gop runs, helpers the tests compare gop against, and the list of systems
they are checked on."""

import argparse
import contextlib
import io
import math
from fractions import Fraction
from functools import lru_cache

from gop.catalog import CATALOG, order1_g_operator, polylog_operator, polylog_system
from gop.diffop import (
    Basis,
    DiffOp,
    RatMat,
    TruncatedSeries,
    change_basis,
    companion,
    is_infinity,
    op_add,
    op_mul,
    op_sub,
)
from gop.errors import BadPrime, InsufficientTruncation, IrregularPoint, UsageError
from gop.exact_arith import (
    GAUSS_INF,
    Poly,
    RatFn,
    as_fraction,
    as_ratfn,
    falling_factorial_poly,
    gauss_valuation,
    primes_upto,
    vp_int,
)
from gop.growth import _step, cleared_system
from gop.local_analysis import _frobenius, regular_series_solutions
from gop.modp import ClearedSequenceMod, reduce_poly_mod_p, reduce_ratfn_mod_p
from gop.p_curvature import (
    _good_cleared_system,
    is_nilpotent,
    operator_nilpotence_by_division,
    p_curvature,
)

# ---------------------------------------------------------------------------
# the systems the invariants are checked on


def catalog_systems():
    """The systems exercised by system-level invariants: the polylog chain
    vectors and the polylog companion systems, plus the order-one examples.

    The theta^2 - 2 and hypergeometric companions are deliberately absent:
    their fundamental solutions are not analytic on the generic unit disk at
    inert (resp. ramified) primes, so derivative-bound checks do not apply.
    """
    out = [
        ("d-minus-1", RatMat([[1]])),
        ("order1-half", companion(order1_g_operator([Fraction(1, 2)], [Fraction(1)]))),
    ]
    for s in (1, 2):
        out.append((f"polylog:{s}:vector", polylog_system(s)))
        out.append((f"polylog:{s}:companion", companion(polylog_operator(s))))
    return out


def every_catalog_system():
    """(label, system) for the system-level catalog examples, every catalog
    companion matrix and every catalog system."""
    out = list(catalog_systems())
    for entry in CATALOG.values():
        out.append((f"{entry.id}:companion", companion(entry.operator)))
        if entry.system is not None:
            out.append((f"{entry.id}:system", entry.system))
    return out


def drawn_operator(rng, basis):
    """An operator of order 1..3 with polynomial coefficients whose
    rational coefficients have denominators dividing 6."""
    order = rng.randint(1, 3)
    coeffs = [
        Poly([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 6))) for _ in range(rng.randint(1, 3))])
        for _ in range(order + 1)
    ]
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly([rng.choice((2, 3, 6)), rng.randint(-3, 3)])
    return DiffOp(basis, coeffs)


def per_prime_scan(subject, primes):
    """(prime, status, nilpotence index, method agreement, detail) at each
    of the sorted primes, repeats included, each prime run on its own
    modulus: p_curvature, and operator_nilpotence_by_division when the
    subject is an operator."""
    operator, g = (subject, companion(subject)) if isinstance(subject, DiffOp) else (None, subject)
    rows = []
    for p in sorted(primes):
        try:
            nil, index = is_nilpotent(p_curvature(g, p))
            agreement = operator is None or operator_nilpotence_by_division(operator, p) == nil
        except BadPrime as exc:
            rows.append((p, "BadPrime", None, True, str(exc)))
        else:
            rows.append((p, "Nilpotent" if nil else "NonNilpotent", index, agreement, ""))
    return rows


# ---------------------------------------------------------------------------
# polynomial and series products


def schoolbook_product(xs, ys, size=None) -> list[Fraction]:
    """The first size coefficients (all of them by default) of
    (sum xs[i] z^i)(sum ys[j] z^j), one Fraction product per pair of terms."""
    if size is None:
        size = len(xs) + len(ys) - 1 if xs and ys else 0
    out = [Fraction(0)] * size
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            if i + j < size:
                out[i + j] += Fraction(a) * Fraction(b)
    return out


# ---------------------------------------------------------------------------
# arithmetic of matrices over Q(z), and of rational functions at a point


def mat_add(a: RatMat, b: RatMat) -> RatMat:
    return RatMat([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def mat_mul(a: RatMat, b: RatMat) -> RatMat:
    cols = list(zip(*b.entries))
    return RatMat([[sum((x * y for x, y in zip(row, col)), RatFn.ZERO) for col in cols] for row in a.entries])


def mat_derivative(a: RatMat) -> RatMat:
    return RatMat([[e.derivative() for e in row] for row in a.entries])


def mat_vec(a: RatMat, vec) -> list[RatFn]:
    return [sum((e * as_ratfn(v) for e, v in zip(row, vec)), RatFn.ZERO) for row in a.entries]


def order_at(f: RatFn, a) -> int:
    """Order of vanishing of f at z = a (negative for a pole); raises on 0."""
    if f.is_zero():
        raise ValueError("zero function")
    return f.num.root_multiplicity(a) - f.den.root_multiplicity(a)


def order_at_zero(f: RatFn) -> int:
    if f.is_zero():
        raise ValueError("zero function")
    return f.num.valuation_at_zero() - f.den.valuation_at_zero()


def order_at_infinity(f: RatFn) -> int:
    """Order of vanishing at infinity = deg den - deg num."""
    if f.is_zero():
        raise ValueError("zero function")
    return f.den.degree - f.num.degree


def reversed_coeffs(p: Poly, length: int) -> Poly:
    """z^length * p(1/z); requires length >= degree."""
    if length < p.degree:
        raise ValueError("length must be at least the degree")
    return Poly([0] * (length - p.degree) + list(reversed(p.coeffs)))


def invert_argument(f: RatFn) -> RatFn:
    """f(1/z)."""
    if f.is_zero():
        return f
    m = max(f.num.degree, f.den.degree)
    return RatFn(reversed_coeffs(f.num, m), reversed_coeffs(f.den, m))


def laurent_at_zero(f: RatFn, terms: int) -> tuple[int, list[Fraction]]:
    """(valuation v, [c_0..c_{terms-1}]) with f = z^v (c_0 + c_1 z + ...),
    c_0 nonzero.  The zero function returns (0, zeros)."""
    if f.is_zero():
        return 0, [Fraction(0)] * terms
    vn = f.num.valuation_at_zero()
    vd = f.den.valuation_at_zero()
    ncs = list(f.num.coeffs[vn:])
    dcs = list(f.den.coeffs[vd:])
    out: list[Fraction] = []
    inv0 = 1 / dcs[0]
    for k in range(terms):
        acc = ncs[k] if k < len(ncs) else Fraction(0)
        for j in range(1, min(k, len(dcs) - 1) + 1):
            acc -= dcs[j] * out[k - j]
        out.append(acc * inv0)
    return vn - vd, out


# ---------------------------------------------------------------------------
# derived matrices and towers


def naive_gs_sequence(g: RatMat, s_max: int) -> list[RatMat]:
    """[G_1, ..., G_s_max] from G_1 = G and G_{s+1} = G_s G + G_s'."""
    out = [g]
    while len(out) < s_max:
        out.append(mat_add(mat_mul(out[-1], g), mat_derivative(out[-1])))
    return out


_POWERS: dict = {}  # cleared system -> [H_1, H_2, ...] stepped so far


def cleared_powers(sys, s: int):
    """The full n x n block H_s = T^s G_s of sys = cleared_system(G), stepped
    with growth._step from H_1 = TG (every row, no contents taken out)."""
    hs = _POWERS.setdefault(sys, [sys.tg])
    while len(hs) < s:
        hs.append(_step(hs[-1], len(hs), sys.t, sys.tg))
    return hs[s - 1]


def naive_tower(ps, g: RatMat, t, h_max: int) -> list[list[RatFn]]:
    """[P_0, ..., P_h_max] with P_m = (T^m/m!) (D - G)^m P in Q(z)."""
    v = [RatFn(p) for p in ps]
    out = []
    for m in range(h_max + 1):
        if m:
            gv = mat_vec(g, v)
            v = [c.derivative() - x for c, x in zip(v, gv)]
        scale = RatFn(t) ** m * Fraction(1, math.factorial(m))
        out.append([scale * c for c in v])
    return out


# ---------------------------------------------------------------------------
# the theta form


def theta_form(l: DiffOp) -> DiffOp:
    """The monic theta-basis form of L, from D^j = z^(-j) x(x-1)...(x-j+1)
    evaluated at theta; monic is a left Q(z)-unit, which preserves solutions
    and exponents."""
    if l.is_zero() or l.basis is Basis.THETA:
        return l.monic()
    out = [RatFn.ZERO] * (l.order + 1)
    for j, c in enumerate(l.coeffs):
        if c.is_zero():
            continue
        ff = falling_factorial_poly(j)
        zj = RatFn(Poly.ONE, Poly.x(j))
        for k in range(ff.degree + 1):
            if ff[k]:
                out[k] += c * zj * ff[k]
    return DiffOp(Basis.THETA, out).monic()


def monic_theta_coefficients(l: DiffOp) -> list[RatFn]:
    """[A_1, ..., A_n] for the monic theta form theta^n + sum A_j theta^(n-j)."""
    lt = theta_form(l)
    n = lt.order
    return [lt.coeff(n - j) for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# reduction mod p


def gauss_rule_is_bad(g: RatMat, p: int) -> bool:
    """The per-entry good-prime rule: some entry of G has negative Gauss
    valuation at p."""
    return any(not e.is_zero() and gauss_valuation(e, p) < 0 for row in g.entries for e in row)


def op_div_right(a: DiffOp, b: DiffOp) -> tuple[DiffOp, DiffOp]:
    """Right Euclidean division: a = q*b + r with ord(r) < ord(b)."""
    if b.is_zero():
        raise ValueError("right division by the zero operator")
    if a.order > 0 and b.order > 0 and a.basis is not b.basis:
        raise ValueError("operator product across bases; convert explicitly")
    basis = b.basis if a.order <= 0 else a.basis
    q = DiffOp(basis)
    r = DiffOp(basis, a.coeffs)
    b = DiffOp(basis, b.coeffs)
    while not r.is_zero() and r.order >= b.order:
        k = r.order - b.order
        c = r.leading() / b.leading()
        term = DiffOp(basis, [RatFn.ZERO] * k + [c])
        q = op_add(q, term)
        r = op_sub(r, op_mul(term, b))
    return q, r


def naive_division_vanishes(l: DiffOp, p: int) -> bool:
    """True iff the remainder of D^(p*ord L) on right division by L in Q(z)
    vanishes mod p.  BadPrime when a coefficient of the monic D-basis form of
    L does not reduce mod p."""
    ld = change_basis(l).monic()
    for c in ld.coeffs:
        reduce_ratfn_mod_p(c, p)
    d = DiffOp(Basis.D, [0, 1])
    r = DiffOp(Basis.D, [1])
    for _ in range(p * ld.order):
        r = op_div_right(op_mul(d, r), ld)[1]
    return all(not reduce_ratfn_mod_p(c, p)[0] for c in r.coeffs)


def theta_katz_honda_check(l: DiffOp, p: int) -> bool:
    """Katz's indicial test by the theta route: True iff the indicial
    polynomial y^n + sum A_j(0) y^(n-j) of the monic theta form, reduced mod
    p, splits over F_p.  IrregularPoint when a reduced A_j has a pole at 0,
    BadPrime when an A_j does not reduce."""
    reduced = [reduce_ratfn_mod_p(c, p) for c in monic_theta_coefficients(l)]
    n = len(reduced)
    orders = [(_lowest_degree(num), _lowest_degree(den)) for num, den in reduced]
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


# ---------------------------------------------------------------------------
# operators on series


def series_derivative(f: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries([i * c for i, c in enumerate(f.coeffs)][1:])


def _theta(f: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries([i * c for i, c in enumerate(f.coeffs)])


def apply_operator(l: DiffOp, f: TruncatedSeries) -> TruncatedSeries:
    """L(f), truncated to the provable order.

    Derivatives in the D basis cost one order of certainty each; coefficient
    poles at the origin cost their pole order.  If the result provably has a
    nonzero coefficient at a negative power of z, ValueError is raised."""
    n = l.order
    big_n = f.trunc_order
    if l.is_zero():
        return TruncatedSeries(f.coeffs)
    if big_n <= n:
        raise InsufficientTruncation("series order must exceed the operator order")
    # operand series for each power of the symbol
    operands = [f]
    for j in range(1, n + 1):
        prev = operands[-1]
        operands.append(series_derivative(prev) if l.basis is Basis.D else _theta(prev))
    vals, certainties = {}, {}
    for j, c in enumerate(l.coeffs):
        if c.is_zero():
            continue
        v, _ = laurent_at_zero(c, 1)
        vals[j], certainties[j] = v, operands[j].trunc_order + v
    if not vals:
        return TruncatedSeries(f.coeffs)
    m = min(certainties.values())
    if m <= 0:
        raise InsufficientTruncation("operator poles exhaust the known precision")
    min_v = min(0, min(vals.values()))
    acc = {e: Fraction(0) for e in range(min_v, m)}
    for j, v in vals.items():
        series = operands[j]
        _, lau = laurent_at_zero(l.coeff(j), m - v)
        for i, lc in enumerate(lau):
            if not lc:
                continue
            for k, sc in enumerate(series.coeffs):
                e = v + i + k
                if e >= m:
                    break
                if sc:
                    acc[e] += lc * sc
    for e in range(min_v, 0):
        if acc[e]:
            raise ValueError(f"nonzero coefficient at z^{e}")
    return TruncatedSeries([acc[e] for e in range(0, m)])


def apply_to_power(l: DiffOp, s: int, depth: int = 8) -> tuple[int, list[Fraction]]:
    """Leading data of L(z^s) for the monic theta form of L.

    Returns (offset, [phi_0(s), ..., phi_{depth-1}(s)]) where
    L(z^s) = z^offset * (phi_0(s) + phi_1(s) z + ...) and the offset is the
    s-independent Laurent base m + s, so trailing zeros are meaningful."""
    coeffs = monic_theta_coefficients(l)
    n = len(coeffs)
    m = 0
    for a in coeffs:
        if not a.is_zero():
            m = min(m, order_at_zero(a))
    q = RatFn.const(Fraction(s) ** n)
    for j, a in enumerate(coeffs, start=1):
        q = q + a * Fraction(s) ** (n - j)
    if q.is_zero():
        return m + s, [Fraction(0)] * depth
    v, lau = laurent_at_zero(q, depth)
    out = [Fraction(0)] * (v - m) + lau
    return m + s, out[:depth]


def ordinary_series_basis(l: DiffOp, order: int) -> list[TruncatedSeries]:
    """The n power-series solutions z^i + O(z^n), i < n, at the ordinary
    point 0, from local_analysis.regular_series_solutions on the cleared
    coefficients of companion(L).  ValueError when the leading coefficient
    of L vanishes at 0."""
    if l.order < 1:
        raise ValueError("order must be >= 1")
    sys = cleared_system(companion(l))
    polys = [-Poly(c) for c in sys.tg[-1]] + [Poly(sys.t)]
    n = len(polys) - 1
    if polys[n].evaluate(0) == 0:
        raise ValueError("leading coefficient vanishes at 0")
    solutions = regular_series_solutions(polys, list(range(n)), order)
    return [TruncatedSeries([sol.get(k, 0) for k in range(order)]) for sol in solutions]


# ---------------------------------------------------------------------------
# local data by translation to the origin


def translate_to_point(l: DiffOp, point) -> DiffOp:
    """Change of variable u = z - a (finite a) or u = 1/z (infinity).

    Finite translation substitutes into the D-basis coefficients exactly;
    at infinity theta maps to -theta_u exactly and the result is returned
    monic in theta."""
    if l.is_zero():
        return l
    if is_infinity(point):
        lt = theta_form(l)
        out = []
        for k, c in enumerate(lt.coeffs):
            ck = invert_argument(c)
            out.append(ck if k % 2 == 0 else -ck)
        return DiffOp(Basis.THETA, out).monic()
    a = as_fraction(point)
    if a == 0:
        return l
    ld = change_basis(l)
    return DiffOp(Basis.D, [RatFn(c.num.shift_argument(a), c.den.shift_argument(a)) for c in ld.coeffs])


def theta_indicial_data(l: DiffOp, point):
    """(regular, pole profile, indicial polynomial or None) at a rational
    point or infinity, by the theta route: translate the point to 0, take the
    monic theta form theta^n + sum A_j theta^(n-j) in Q(z) arithmetic; the
    point is regular iff no A_j has a pole at 0, and then the indicial
    polynomial is y^n + sum A_j(0) y^(n-j).  The profile lists
    (j, pole order of B_{n-j}/B_n) for the D-basis coefficients B of L."""
    coeffs = monic_theta_coefficients(translate_to_point(l, point))
    n = len(coeffs)
    regular = all(c.is_zero() or order_at_zero(c) >= 0 for c in coeffs)
    ld = change_basis(l)
    profile = []
    for j in range(1, n + 1):
        ratio = ld.coeff(n - j)
        if ratio.is_zero():
            continue
        ratio = ratio / ld.coeff(n)
        if is_infinity(point):
            profile.append((j, -order_at_infinity(ratio)))
        else:
            profile.append((j, -order_at(ratio, as_fraction(point))))
    if not regular:
        return False, tuple(profile), None
    phi = Poly.x(n)
    for j, a in enumerate(coeffs, start=1):
        if not a.is_zero():
            phi = phi + Poly.x(n - j, a.evaluate(0))
    return True, tuple(profile), phi


# ---------------------------------------------------------------------------
# resultants, determinants and the sampled indicial norm


def resultant(f: Poly, g: Poly) -> Fraction:
    """Resultant over Q by Gaussian elimination of the Sylvester matrix."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    m, n = f.degree, g.degree
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                for c2 in range(col, size):
                    rows[r][c2] -= factor * rows[col][c2]
    return det


def cofactor_det(mat) -> Poly:
    """Determinant of a square matrix of Polys by cofactor expansion along
    the first row: n! products."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = Poly()
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [[mat[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = mat[0][j] * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def lagrange_interpolate(xs, ys) -> Poly:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i])."""
    acc = Poly()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num = Poly.const(yi)
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                num = num * Poly([-xj, 1])
                den *= xi - xj
        acc = acc + num * (1 / den)
    return acc


def sampled_class_phi(b, piece: Poly):
    """The primitive indicial polynomial of L = sum_j b[j] D^j at the roots
    of the monic squarefree piece, or None when they are irregular, by
    sampling: for y0 = 0, 1, ..., deg(piece)*n take Res_x(piece, Phi(x, y0)),
    where a j with the least ord b_j - j contributes
    (b_j / piece^(ord b_j))(x) piece'(x)^(ord b_j) y0(y0-1)...(y0-j+1), then
    interpolate through the samples."""
    n = len(b) - 1
    ords = [None if c.is_zero() else c.factor_multiplicity(piece) for c in b]
    weights = [None if k is None else k - j for j, k in enumerate(ords)]
    if any(w is not None and w < weights[n] for w in weights):
        return None
    fp = piece.derivative()
    terms = []
    for j, k in enumerate(ords):
        if weights[j] == weights[n]:
            cof = b[j]
            for _ in range(k):
                cof = cof.exact_div(piece)
            terms.append((j, (cof * fp**k) % piece))
    ys = [Fraction(y0) for y0 in range(piece.degree * n + 1)]
    values = []
    for y0 in ys:
        py = Poly()
        for j, cx in terms:
            py = py + cx * falling_factorial_poly(j).evaluate(y0)
        values.append(resultant(piece, py))
    return lagrange_interpolate(ys, values).primitive()


# ---------------------------------------------------------------------------
# integers, valuations and exponents


def digit_sum_base(n: int, p: int) -> int:
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def kummer_vp_factorial(n: int, p: int) -> int:
    """v_p(n!) computed from the base-p digit sum of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n - digit_sum_base(n, p)) // (p - 1)


def accolade(s: int, m: int, p: int) -> int:
    """Valuation of the largest inverse p-part of a product of m distinct
    integers in 1..s: returns -(sum of the m largest v_p values).

    Convention: m = 0 gives 0.  When m exceeds s, all available integers are
    used.  The absolute value is p^(-returned value).
    """
    if m <= 0 or s <= 0:
        return 0
    vals = sorted((vp_int(k, p) for k in range(1, s + 1)), reverse=True)
    return -sum(vals[: min(m, s)])


@lru_cache(maxsize=None)
def block_content(sys, m: int) -> int:
    """gcd of every coefficient of the full block H_m (cleared_powers)."""
    return math.gcd(*(c for row in cleared_powers(sys, m) for poly in row for c in poly))


def block_vp(sys, m: int, p: int):
    """min v_p over the coefficients of H_m, read off their gcd; GAUSS_INF
    when H_m vanishes."""
    c = block_content(sys, m)
    return vp_int(c, p) if c else GAUSS_INF


def h_by_definition(sys, s_max: int, p: int) -> list[int]:
    """[h(1, p), ..., h(s_max, p)] / log p for sys = cleared_system(G), one m
    at a time: h(s, p) = max(0, max over m <= s of v_p(m!) - min v_p(H_m)),
    skipping H_m = 0."""
    out, e = [], 0
    for m in range(1, s_max + 1):
        v = block_vp(sys, m, p)
        if v != GAUSS_INF:
            e = max(e, kummer_vp_factorial(m, p) - v)
        out.append(e)
    return out


def rho_by_definition(sys, p: int, lo: int, hi: int) -> Fraction:
    """The Hadamard window maximum over lo <= s <= hi, one s at a time:
    max(0, max of (v_p(s!) - min v_p(H_s)) / s), skipping H_s = 0."""
    best = Fraction(0)
    for s in range(lo, hi + 1):
        v = block_vp(sys, s, p)
        if v != GAUSS_INF:
            best = max(best, Fraction(kummer_vp_factorial(s, p) - v, s))
    return best


def dwork_robba_by_definition(sys, p: int, s_max: int) -> list[bool]:
    """The Dwork-Robba verdicts for s = 1..s_max, one s at a time: the left
    side v(G_s/s!), read as min v_p(H_s) - v_p(s!) (infinite when H_s = 0),
    against accolade(s, n-1, p) plus the minimum of v over G_0 = I, ...,
    G_(n-1), each read as min v_p(H_i)."""
    base = min([0] + [block_vp(sys, i, p) for i in range(1, sys.n)])
    out = []
    for s in range(1, s_max + 1):
        lhs = block_vp(sys, s, p) - kummer_vp_factorial(s, p)
        out.append(lhs >= accolade(s, sys.n - 1, p) + base)
    return out


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.lcm(*range(1, n + 1))


def exact_log_of_integer(n: int, prime_bound: int) -> dict:
    """log n as a table {p: v_p(n)}, primes ascending; all prime factors
    must be <= prime_bound."""
    if n <= 0:
        raise ValueError("positive integers only")
    terms = {}
    for p in primes_upto(prime_bound):
        v = vp_int(n, p) if n % p == 0 else 0
        if v:
            terms[p] = Fraction(v)
            n //= p**v
    if n != 1:
        raise ValueError(f"prime factor above the bound remains: {n}")
    return terms


def vp_fraction(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = as_fraction(q)
    if q == 0:
        raise ValueError("vp of 0 is undefined")
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def series_gauss_valuation(coeffs, prime: int):
    """min v_p over supplied series coefficients; GAUSS_INF if all are zero.

    For a rational function with no pole in the punctured open p-adic unit
    disk this converges to the Gauss valuation as more terms are supplied.
    """
    vals = [vp_fraction(c, prime) for c in coeffs if c]
    if not vals:
        return GAUSS_INF
    return min(vals)


def hypergeom_expected_exponents(alphas, betas) -> dict:
    """The three local exponent lists of the hypergeometric operator."""
    alphas = [as_fraction(a) for a in alphas]
    betas = [as_fraction(b) for b in betas]
    n = len(alphas)
    at_zero = [Fraction(0)] + [1 - b for b in betas]
    at_one = [Fraction(k) for k in range(n - 1)] + [
        -alphas[-1] + sum(betas) - sum(alphas[:-1])
    ]
    return {
        "0": sorted(at_zero),
        "1": sorted(at_one),
        "inf": sorted(alphas),
    }


# ---------------------------------------------------------------------------
# transforms that leave the p-curvature's nilpotence alone


def _mat_inverse(a):
    """Gauss-Jordan inverse of an invertible square matrix over Q(z)."""
    n = len(a)
    rows = [list(row) + [RatFn.ONE if i == j else RatFn.ZERO for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if not rows[r][c].is_zero())
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for r in range(n):
            if r != c and not rows[r][c].is_zero():
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def gauge(g: RatMat, p: RatMat) -> RatMat:
    """The system of x = P y for y' = G y: P G P^-1 + P' P^-1.  Where P and
    P^-1 reduce mod p it conjugates the p-curvature (Katz 1970)."""
    inv = RatMat(_mat_inverse(p.entries))
    return mat_add(mat_mul(mat_mul(p, g), inv), mat_mul(mat_derivative(p), inv))


def twist(g: RatMat, lam) -> RatMat:
    """The system of x = z^lam y for y' = G y: G + (lam/z) I.  At a prime not
    dividing lam's denominator the scalar lam/z has p-curvature
    (lam^p - lam)/z^p = 0, so nilpotence and its index stay."""
    shift = RatFn(Poly([as_fraction(lam)]), Poly([0, 1]))
    return RatMat([[e + shift if i == j else e for j, e in enumerate(row)] for i, row in enumerate(g.entries)])


# changes of variable and twists of an operator, for its local data


def substitute(l: DiffOp, a, b, c, d) -> DiffOp:
    """The operator in w whose solutions are y((aw+b)/(cw+d)) for the
    solutions y of L, ad - bc != 0.  With z = phi(w),
    D_z = D_w / phi'(w) and phi'(w) = (ad - bc)/(cw+d)^2, so
    L = sum a_k(z) D_z^k becomes sum a_k(phi(w)) ((cw+d)^2/(ad-bc) D_w)^k."""
    num, den = Poly([b, a]), Poly([d, c])
    step = DiffOp(Basis.D, [0, RatFn(den * den * Fraction(1, a * d - b * c))])

    def at_phi(p: Poly) -> RatFn:
        # p(num/den) = sum p_i num^i den^(deg p - i) / den^(deg p)
        top = sum((num**i * den ** (p.degree - i) * ci for i, ci in enumerate(p.coeffs)), Poly())
        return RatFn(top, den**p.degree)

    out, power = DiffOp(Basis.D), DiffOp(Basis.D, [1])
    for coeff in change_basis(l).coeffs:
        if coeff:
            out = op_add(out, power.scaled(at_phi(coeff.num) / at_phi(coeff.den)))
        power = op_mul(step, power)
    return out


def twist_operator(l: DiffOp, lam) -> DiffOp:
    """The operator of x = z^lam y for L y = 0: theta z^(-lam) =
    z^(-lam) (theta - lam), so the theta form sum A_k theta^k of L becomes
    sum A_k (theta - lam)^k."""
    step = DiffOp(Basis.THETA, [-as_fraction(lam), 1])
    out, power = DiffOp(Basis.THETA), DiffOp(Basis.THETA, [1])
    for coeff in theta_form(l).coeffs:
        out = op_add(out, power.scaled(coeff))
        power = op_mul(step, power)
    return out


# ---------------------------------------------------------------------------
# identities of the paper that no command runs, checked by the tests against
# gop's engines and against the definitions above


def gs_sequence(g: RatMat, s_max: int) -> list[RatMat]:
    """[G_1, ..., G_s_max] with G_1 = G and G_{s+1} = G_s G + G_s', read off
    the cleared sequence as G_s = H_s / T^s in lowest terms.  It steps its
    own full block H_s from H_1 = TG: cleared_system keeps only the rows its
    contents need."""
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    sys = cleared_system(g)
    t = Poly(sys.t)
    ts = t
    h = sys.tg
    out = [RatMat([[RatFn(Poly(c), ts) for c in row] for row in h])]
    for s in range(1, s_max):
        h = _step(h, s, sys.t, sys.tg)
        ts = ts * t
        out.append(RatMat([[RatFn(Poly(c), ts) for c in row] for row in h]))
    return out


def dwork_robba_check(g: RatMat, p: int, s_max: int) -> list[bool]:
    """Exact valuation form of the derivative bounds for systems:
    v(G_s/s!) >= accolade(s, n-1, p) + min over 0 <= i <= n-1 of v(G_i),
    for s = 1..s_max (G_0 = identity).  Returns one verdict per s.

    Read off H_i (growth's module docstring), every v(G_i) is >= 0, so the
    minimum is 0; and as accolade <= 0, the left side may be cut at 0 to
    -v_p(r_s).

    Meaningful for n >= 2 systems whose fundamental solutions are analytic
    on the generic unit disk; the n = 1 bound degenerates (v(1/s!) < 0).
    """
    sys = cleared_system(g)
    return [-vp_int(sys.r(s), p) >= accolade(s, sys.n - 1, p) for s in range(1, s_max + 1)]


def relation_gp_power_holds(g: RatMat, p: int, k_max: int) -> bool:
    """G_{pk} mod p == (G_p mod p)^k for k <= k_max, compared through the
    cleared polynomial forms (H_{pk} == H_p^k since both carry T^(pk))."""
    hp = p_curvature(g, p)
    sys = cleared_system(g)
    seq = ClearedSequenceMod(sys.t, sys.tg, p, start=hp.entries, s=p)
    power = hp
    for k in range(2, k_max + 1):
        power = power * hp
        if power.entries != seq.goto(p * k):
            return False
    return True


def nilpotence_valuation_bound(g: RatMat, p: int, s_upto: int = 3) -> bool:
    """For a system nilpotent mod p, certify v(G_{pns}) >= s for s <= s_upto
    (the sigma read off v(G_{pn}) >= 1).  Runs the cleared recurrence modulo
    p^s_upto and tests every coefficient of the block at once.  BadPrime
    when G does not reduce mod p."""
    sys = _good_cleared_system(g, p)
    n = sys.n
    modulus = p**s_upto
    seq = ClearedSequenceMod(sys.t, sys.tg, modulus)
    for s in range(1, s_upto + 1):
        if any(c % p**s for row in seq.goto(p * n * s) for poly in row for c in poly):
            return False
    return True


def _divide_root(f: list[int], a: int, p: int) -> tuple[list[int], int]:
    """Synthetic division of f (low degree first) by z - a mod p."""
    acc, out = 0, []
    for coeff in reversed(f):
        acc = (acc * a + coeff) % p
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _lowest_degree(f: list[int]):
    return next((i for i, c in enumerate(f) if c), math.inf)


def katz_honda_check(l: DiffOp, p: int) -> bool:
    """Katz's indicial test: True iff the mod-p indicial polynomial at 0
    splits over F_p, which nilpotence of the p-curvature forces.

    It reads local_analysis's Frobenius rule at 0 off the monic D form
    reduced mod p, and raises IrregularPoint when 0 is not regular singular
    for the reduction, BadPrime when a coefficient of the monic D form does
    not reduce mod p."""
    g = companion(l)
    reduced = [reduce_ratfn_mod_p(-c, p) for c in g.entries[-1]] + [([1], [1])]
    ords = [_lowest_degree(num) - _lowest_degree(den) if num else None for num, den in reduced]
    regular, _, leading = _frobenius(ords, -1)
    if not regular:
        raise IrregularPoint("0 is not regular singular for the reduction")
    phi = [0] * (g.n + 1)
    for j in leading:
        # the j-th term of L z^y at z^y is (a_j / z^(ord a_j))(0) y(y-1)...(y-j+1)
        num, den = reduced[j]
        c = num[_lowest_degree(num)] * pow(den[_lowest_degree(den)], -1, p)
        for d, f in enumerate(reduce_poly_mod_p(falling_factorial_poly(j), p)):
            phi[d] = (phi[d] + c * f) % p
    for a in range(p):
        while len(phi) > 1:
            quo, rem = _divide_root(phi, a, p)
            if rem:
                break
            phi = quo
    return len(phi) == 1


def verify_similileibniz(g: RatMat, ps, s_max: int) -> bool:
    """Exact check in Q(z)^n of the rearranged Leibniz identity
    (G_s/s!) P = sum_j ((-1)^j / ((s-j)! j!)) D^(s-j) (D-G)^j P for s <= s_max."""
    n = g.n
    pvec = [as_ratfn(p) for p in ps]
    gs = gs_sequence(g, s_max)
    # iterated derivatives of (D-G)^j P, filled on demand
    v: list[list[list[RatFn]]] = [[pvec]]
    for j in range(s_max):
        last = v[-1][0]
        nxt = [last[i].derivative() for i in range(n)]
        gv = mat_vec(g, last)
        v.append([[nxt[i] - gv[i] for i in range(n)]])
    for j in range(s_max + 1):
        while len(v[j]) <= s_max - j:
            prev = v[j][-1]
            v[j].append([c.derivative() for c in prev])
    for s in range(1, s_max + 1):
        lhs = mat_vec(gs[s - 1], pvec)
        fact_s = math.factorial(s)
        lhs = [c * Fraction(1, fact_s) for c in lhs]
        rhs = [RatFn.ZERO] * n
        for j in range(s + 1):
            scale = Fraction((-1) ** j, math.factorial(s - j) * math.factorial(j))
            term = v[j][s - j]
            rhs = [rhs[i] + term[i] * scale for i in range(n)]
        if any(lhs[i] != rhs[i] for i in range(n)):
            return False
    return True


# ---------------------------------------------------------------------------
# the command line as argparse read it, the reference for gop.cli's parser


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose errors raise UsageError, so that a malformed
    command line ends in the usage envelope like any other usage error."""

    def error(self, message):
        raise UsageError(message)


def _build_argparser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="gop", description="exact analysis of linear differential operators over Q(z)")
    top.add_argument("--format", choices=("json", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    def with_operator(p):
        p.add_argument("expr", nargs="?", help="operator expression")
        p.add_argument("--catalog", help="catalog id instead of an expression")

    p = sub.add_parser("classify")
    with_operator(p)
    p = sub.add_parser("exponents")
    with_operator(p)
    p.add_argument("--point", required=True)
    p = sub.add_parser("pcurv")
    with_operator(p)
    p.add_argument("--prime", type=int, required=True)
    p = sub.add_parser("scan")
    with_operator(p)
    p.add_argument("--primes", default="2..50")
    p = sub.add_parser("galochkin")
    with_operator(p)
    p.add_argument("--smax", type=int, default=30)
    p = sub.add_parser("size")
    with_operator(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--prime-bound", type=int, required=True, dest="prime_bound")
    p = sub.add_parser("radius")
    with_operator(p)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--smax", type=int, required=True)
    p = sub.add_parser("bombieri")
    with_operator(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--prime-bound", type=int, required=True, dest="prime_bound")
    p.add_argument("--slack", type=float, default=0.3)
    p = sub.add_parser("pade")
    p.add_argument("--series", help="JSON series-vector file")
    p.add_argument("--catalog", help="catalog id with a system")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p = sub.add_parser("catalog")
    p.add_argument("action", choices=("list", "get"))
    p.add_argument("id", nargs="?")
    return top


def argparse_reading(argv) -> tuple[str, object, str]:
    """How the argparse command line read argv: ("args", the attributes,
    command), ("help", None, command) when it printed the usage, or
    ("error", None, command) for a usage error; command is the subcommand
    argparse had reached, "" before it reached one."""
    args = argparse.Namespace(command="")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            _build_argparser().parse_args(argv, args)
        except SystemExit:
            return "help", None, args.command
        except UsageError:
            return "error", None, args.command
    return "args", vars(args), args.command
