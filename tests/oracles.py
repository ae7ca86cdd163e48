"""Reference computations written straight from the definitions in RatMat /
RatFn / DiffOp arithmetic, independent of the cleared integer recurrence that
gop runs, helpers the tests compare gop against, and the list of systems
they are checked on."""

import math
from fractions import Fraction

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
from gop.errors import InsufficientTruncation, IrregularPoint
from gop.exact_arith import (
    GAUSS_INF,
    Poly,
    RatFn,
    as_fraction,
    falling_factorial_poly,
    gauss_valuation,
    primes_upto,
    vp_fraction,
    vp_int,
)
from gop.growth import ExactLog, cleared_system
from gop.local_analysis import regular_series_solutions
from gop import modp
from gop.modp import reduce_ratfn_mod_p
from gop.p_curvature import _divide_root, _order_at_zero

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


def force_storage(monkeypatch, budget):
    """Make modp.ClearedSequenceMod step numpy blocks from the first step
    (budget 0) or [row][col] lists throughout (an unbounded budget)."""
    monkeypatch.setattr(modp, "LIST_WORK_BUDGET", budget)
    monkeypatch.setattr(modp, "_list_work", 0)


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
# derived matrices and towers


def naive_gs_sequence(g: RatMat, s_max: int) -> list[RatMat]:
    """[G_1, ..., G_s_max] from G_1 = G and G_{s+1} = G_s G + G_s'."""
    out = [g]
    while len(out) < s_max:
        out.append(out[-1] * g + out[-1].derivative())
    return out


def naive_tower(ps, g: RatMat, t, h_max: int) -> list[list[RatFn]]:
    """[P_0, ..., P_h_max] with P_m = (T^m/m!) (D - G)^m P in Q(z)."""
    v = [RatFn(p) for p in ps]
    out = []
    for m in range(h_max + 1):
        if m:
            gv = g.mat_vec(v)
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


# ---------------------------------------------------------------------------
# operators on series


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
        operands.append(prev.derivative() if l.basis is Basis.D else _theta(prev))
    vals, certainties = {}, {}
    for j, c in enumerate(l.coeffs):
        if c.is_zero():
            continue
        v, _ = c.laurent_at_zero(1)
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
        _, lau = l.coeff(j).laurent_at_zero(m - v)
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
            m = min(m, a.order_at_zero())
    q = RatFn.const(Fraction(s) ** n)
    for j, a in enumerate(coeffs, start=1):
        q = q + a * Fraction(s) ** (n - j)
    if q.is_zero():
        return m + s, [Fraction(0)] * depth
    v, lau = q.laurent_at_zero(depth)
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
            ck = c.invert_argument()
            out.append(ck if k % 2 == 0 else -ck)
        return DiffOp(Basis.THETA, out).monic()
    a = as_fraction(point)
    if a == 0:
        return l
    ld = change_basis(l)
    return DiffOp(Basis.D, [c.shift_argument(a) for c in ld.coeffs])


def theta_indicial_data(l: DiffOp, point):
    """(regular, pole profile, indicial polynomial or None) at a rational
    point or infinity, by the theta route: translate the point to 0, take the
    monic theta form theta^n + sum A_j theta^(n-j) in Q(z) arithmetic; the
    point is regular iff no A_j has a pole at 0, and then the indicial
    polynomial is y^n + sum A_j(0) y^(n-j).  The profile lists
    (j, pole order of B_{n-j}/B_n) for the D-basis coefficients B of L."""
    coeffs = monic_theta_coefficients(translate_to_point(l, point))
    n = len(coeffs)
    regular = all(c.is_zero() or c.order_at_zero() >= 0 for c in coeffs)
    ld = change_basis(l)
    profile = []
    for j in range(1, n + 1):
        ratio = ld.coeff(n - j)
        if ratio.is_zero():
            continue
        ratio = ratio / ld.coeff(n)
        if is_infinity(point):
            profile.append((j, -ratio.order_at_infinity()))
        else:
            profile.append((j, -ratio.order_at(as_fraction(point))))
    if not regular:
        return False, tuple(profile), None
    phi = Poly.x(n)
    for j, a in enumerate(coeffs, start=1):
        if not a.is_zero():
            phi = phi + Poly.x(n - j, a.evaluate(0))
    return True, tuple(profile), phi


# ---------------------------------------------------------------------------
# integers, valuations and exponents


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.lcm(*range(1, n + 1))


def exact_log_of_integer(n: int, prime_bound: int) -> ExactLog:
    """log n as an ExactLog; all prime factors must be <= prime_bound."""
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
    return ExactLog(terms)


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
