"""Type-II Pade approximants, derived approximant towers, and the stacked
determinant test.

Order convention: pade_type2 imposes vanishing of the coefficients of
z^(N+1) .. z^(N+M) of Q*f_i (n*M homogeneous equations in the N+1 unknown
coefficients of Q), so the residual order is at least N+M+1 and in
particular meets the N+M contract of the downstream identities.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .diffop import RatMat, TruncatedSeries
from .errors import InsufficientTruncation, NoSolution
from .exact_arith import Poly, poly_det
from .growth import _step, cleared_system


def _kernel_basis(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """Reduced-echelon kernel basis of a rational matrix."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def _normalize_kernel_vector(vec: Sequence[Fraction]) -> Poly:
    """The integer primitive multiple of the vector whose first nonzero
    coefficient, not its leading one, is positive."""
    q = Poly(vec).primitive()
    return -q if q.nums[q.valuation_at_zero()] < 0 else q


def pade_type2(
    f: Sequence[TruncatedSeries], big_n: int, big_m: int
) -> tuple[Poly, list[Poly]]:
    """Common-denominator approximants: nonzero integer Q with deg <= N such
    that Q*f_i - P_i = O(z^(N+M+1)) with P_i the degree-N truncation of Q*f_i.

    The kernel vector is the lexicographically smallest reduced-echelon basis
    vector, denominator-cleared and content-reduced.  NoSolution when the
    system only has Q = 0; InsufficientTruncation when the series are not
    known past z^(N+M)."""
    n = len(f)
    if n == 0 or big_n < 0 or big_m < 0:
        raise ValueError("need at least one component and nonnegative parameters")
    need = big_n + big_m + 1
    if any(s.trunc_order < need for s in f):
        raise InsufficientTruncation(f"series must be known mod z^{need}")
    rows = []
    for comp in f:
        for c in range(big_n + 1, big_n + big_m + 1):
            rows.append([comp[c - k] for k in range(big_n + 1)])
    basis = _kernel_basis(rows, big_n + 1)
    if not basis:
        raise NoSolution(f"{len(rows)} equations in {big_n + 1} unknowns, trivial kernel")
    q = _normalize_kernel_vector(min(basis))
    ps = [Poly(comp.coeffs).truncated_product(q, big_n + 1) for comp in f]
    return q, ps


def _power(base: int, exponent: float):
    """base ** exponent as a float, or as a Decimal of 20 significant digits
    once it passes the float range."""
    try:
        return float(base) ** exponent
    except OverflowError:
        with localcontext() as ctx:
            ctx.prec = 20
            return Decimal(base) ** Decimal(exponent)


def siegel_bound_report(
    f: Sequence[TruncatedSeries], big_n: int, big_m: int
) -> dict:
    """Height data of the integer order-condition system together with the
    pigeonhole bound (n_unknowns * A)^(m/(n_unknowns - m)); reported only,
    the computed kernel vector is not required to satisfy it.  The bound is a
    float, or a Decimal when it lies past the float range."""
    n = len(f)
    need = big_n + big_m + 1
    polys = [Poly(comp.coeffs[:need]) for comp in f]
    d = math.lcm(*(p.den for p in polys))
    # the equations read the coefficients of z^1 .. z^(N+M)
    height = max((abs(c) * (d // p.den) for p in polys for c in p.nums[1:need]), default=0) if big_m else 0
    m_eq = n * big_m
    unknowns = big_n + 1
    if unknowns > m_eq:
        bound = _power(unknowns * height, m_eq / (unknowns - m_eq)) if height else 0.0
    else:
        bound = float("inf")
    return {
        "equations": m_eq,
        "unknowns": unknowns,
        "height": height,
        "denominator_scale": d,
        "bound": bound,
    }


def residual_order(
    q: Poly,
    ps: Sequence[Poly],
    f: Sequence[TruncatedSeries],
    required: Optional[int] = None,
) -> int:
    """min over i of ord(Q f_i - P_i), capped at the truncation horizon.

    A component that vanishes identically up to the horizon contributes the
    horizon itself.  With ``required`` set, the horizon must reach it."""
    horizon = min(comp.trunc_order for comp in f)
    if required is not None and horizon < required:
        raise InsufficientTruncation(f"horizon {horizon} below required {required}")
    best = horizon
    for comp, p in zip(f, ps):
        res = comp.mul_poly(q) - TruncatedSeries(
            [p[k] for k in range(horizon)]
        )
        v = res.valuation()
        best = min(best, horizon if v is None else v)
    return best


# ---------------------------------------------------------------------------
# derived towers and the stacked determinant


def derived_tower(ps: Sequence[Poly], g: RatMat, h_max: int) -> list[list[Poly]]:
    """[P_0, ..., P_h_max] with P_m = (T^m/m!) (D - G)^m P, all polynomial.

    The cleared vector W_m = T^m (D-G)^m (dP) follows
    W_{m+1} = T W_m' - m T' W_m - (TG) W_m, so the row W_m^T follows the H_s
    rule of growth._step with TG replaced by -(TG)^T, from the numerators
    W_0^T = dP^T at s = 0.  Here d is the lcm of the denominators of P, T and
    TG come from cleared_system(g), and P_m is the integer W_m over d m!."""
    n = g.n
    if len(ps) != n:
        raise ValueError("vector length must match the system dimension")
    sys = cleared_system(g)
    neg_tg_t = [[[-c for c in sys.tg[k][j]] for k in range(n)] for j in range(n)]
    d = math.lcm(*(p.den for p in ps))
    w = [[[c * (d // p.den) for c in p.nums] for p in ps]]
    tower = [list(ps)]
    scale = d
    for m in range(h_max):
        w = _step(w, m, sys.t, neg_tg_t)
        scale *= m + 1
        tower.append([Poly(poly, scale) for poly in w[0]])
    return tower


def shidlovskii_matrix(tower: Sequence[Sequence[Poly]]) -> tuple[list[list[Poly]], Poly]:
    """R_(0) with j-th column P_{j-1}, and its exact determinant."""
    n = len(tower[0])
    if len(tower) < n:
        raise ValueError("tower must contain at least n vectors")
    r0 = [[tower[j][i] for j in range(n)] for i in range(n)]
    return r0, poly_det(r0)


class PadeSystem(NamedTuple):
    big_n: int
    big_m: int
    q: Poly
    p: tuple[Poly, ...]
    f: tuple[TruncatedSeries, ...]
    t: Poly
    tower: tuple[tuple[Poly, ...], ...]
    r0: tuple[tuple[Poly, ...], ...]
    delta: Poly
    residual: int
    siegel: dict


def build_pade_system(
    f: Sequence[TruncatedSeries],
    g: RatMat,
    big_n: int,
    big_m: int,
) -> PadeSystem:
    """Full bench run: solve, verify the residual order, derive the tower
    P_0, ..., P_(n-1), stack the matrix and take its determinant."""
    q, ps = pade_type2(f, big_n, big_m)
    tower = derived_tower(ps, g, g.n - 1)
    r0, delta = shidlovskii_matrix(tower)
    res = residual_order(q, ps, f, required=big_n + big_m + 1)
    return PadeSystem(
        big_n=big_n,
        big_m=big_m,
        q=q,
        p=tuple(ps),
        f=tuple(f),
        t=Poly(cleared_system(g).t),
        tower=tuple(tuple(vec) for vec in tower),
        r0=tuple(tuple(row) for row in r0),
        delta=delta,
        residual=res,
        siegel=siegel_bound_report(f, big_n, big_m),
    )
