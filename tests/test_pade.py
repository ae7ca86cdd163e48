"""Type-II Pade construction, derived towers, stacked determinant."""

import math
from fractions import Fraction

import pytest

from gop.catalog import CoeffGenerator, polylog_components, polylog_system
from gop.diffop import RatMat, TruncatedSeries
from gop.errors import InsufficientTruncation, NoSolution
from gop.exact_arith import Poly, RatFn
from gop.growth import cleared_system
from gop.pade import (
    build_pade_system,
    derived_tower,
    pade_type2,
    residual_order,
    shidlovskii_matrix,
    siegel_bound_report,
)
from oracles import every_catalog_system, mat_vec, naive_tower, verify_similileibniz

GEOMETRIC = CoeffGenerator("geometric")


def li_system_data(s, order):
    return [g.series(order) for g in polylog_components(s)], polylog_system(s)


def test_geometric_example():
    f = [GEOMETRIC.series(12)]
    q, ps = pade_type2(f, 1, 1)
    assert q == Poly([1, -1])
    assert ps == [Poly([1])]
    assert residual_order(q, ps, f) == 12  # exact residual is 0, horizon reported


def test_log_pair_example():
    f, _ = li_system_data(1, 30)
    q, ps = pade_type2(f, 6, 3)
    r = residual_order(q, ps, f)
    assert r >= 9
    assert q.degree <= 6 and all(p.degree <= 6 for p in ps)
    assert all(c.denominator == 1 for c in q.coeffs)


def test_overdetermined_no_solution():
    f = [GEOMETRIC.series(12)]
    with pytest.raises(NoSolution):
        pade_type2(f, 0, 3)


def test_insufficient_truncation():
    f = [GEOMETRIC.series(5)]
    with pytest.raises(InsufficientTruncation):
        pade_type2(f, 4, 4)
    with pytest.raises(InsufficientTruncation):
        residual_order(Poly.ONE, [Poly.ONE], f, required=9)


def test_residual_detects_mutation():
    f, _ = li_system_data(1, 30)
    q, ps = pade_type2(f, 6, 3)
    good = residual_order(q, ps, f)
    bad = [ps[0], ps[1] + Poly([0, 0, 1])]
    assert residual_order(q, bad, f) == 2 < good


def test_residual_zero_vector():
    f = [TruncatedSeries([0] * 10)]
    assert residual_order(Poly([3, 1]), [Poly()], f) == 10


def test_derived_tower_examples():
    f, g = li_system_data(1, 30)
    q, ps = pade_type2(f, 6, 3)
    t = Poly(cleared_system(g).t)
    tower = derived_tower(ps, g, 3)
    assert tower[0] == list(ps)
    # m = 1 entry is T (P' - G P), degree <= N + t
    tdeg = max(t.degree, max((RatFn(t) * e).as_poly().degree for row in g.entries for e in row if not e.is_zero()))
    for m, vec in enumerate(tower):
        for p in vec:
            assert p.is_zero() or p.degree <= 6 + tdeg * m
    gp = mat_vec(g, [RatFn(p) for p in ps])
    direct_m1 = [
        (RatFn(t) * (RatFn(ps[i].derivative()) - gp[i])).as_poly() for i in range(2)
    ]
    assert tower[1] == direct_m1
    zero_tower = derived_tower([Poly(), Poly()], g, 2)
    assert all(p.is_zero() for vec in zero_tower for p in vec)


def test_tower_matches_definition():
    # P_m = T^m/m! (D - G)^m P for m <= 6, the right side in Q(z)
    for label, g in every_catalog_system():
        t = Poly(cleared_system(g).t)
        rational = [Poly([Fraction(2, 3), Fraction(-5, 7 + i), Fraction(1, 4)]) for i in range(g.n)]
        for ps in (rational, [Poly()] * g.n):
            want = naive_tower(ps, g, t, 6)
            got = derived_tower(ps, g, 6)
            assert [[RatFn(p) for p in vec] for vec in got] == want, label


def test_cascade_orders():
    # m-th derived pair approximates to order >= N + M + 1 - m
    f, g = li_system_data(2, 40)
    big_n, big_m = 12, 4
    q, ps = pade_type2(f, big_n, big_m)
    t = Poly(cleared_system(g).t)
    tower = derived_tower(ps, g, 5)
    tpoly = t
    qm = Poly(q.coeffs)
    fact = 1
    tpow = Poly.ONE
    for m, vec in enumerate(tower):
        if m:
            fact *= m
            qm = qm.derivative()
            tpow = tpow * tpoly
        qm_scaled = qm * Fraction(1, fact) if m else qm
        lead = tpow * qm_scaled
        worst = None
        for i, comp in enumerate(f):
            approx = comp.mul_poly(lead) - TruncatedSeries(
                [vec[i][k] for k in range(comp.trunc_order)]
            )
            v = approx.valuation()
            v = approx.trunc_order if v is None else v
            worst = v if worst is None else min(worst, v)
        assert worst >= big_n + big_m + 1 - m, m


def test_degree_bound_tower():
    f, g = li_system_data(2, 40)
    q, ps = pade_type2(f, 12, 4)
    t = Poly(cleared_system(g).t)
    tdeg = max(t.degree, max((RatFn(t) * e).as_poly().degree for row in g.entries for e in row if not e.is_zero()))
    tower = derived_tower(ps, g, 6)
    for m, vec in enumerate(tower):
        for p in vec:
            assert p.is_zero() or p.degree <= 12 + tdeg * m


def test_tower_integrality_within_range():
    # d * P_m has integer coefficients for m <= M/(t+1)
    f, g = li_system_data(1, 30)
    big_n, big_m = 6, 3
    q, ps = pade_type2(f, big_n, big_m)
    t = Poly(cleared_system(g).t)
    tdeg = max(t.degree, max((RatFn(t) * e).as_poly().degree for row in g.entries for e in row if not e.is_zero()))
    d = 1
    for comp in f:
        for c in comp.coeffs[: big_n + big_m + 1]:
            d = math.lcm(d, c.denominator)
    tower = derived_tower(ps, g, big_m)
    for m, vec in enumerate(tower):
        if m * (tdeg + 1) <= big_m:
            for p in vec:
                assert all((d * c).denominator == 1 for c in p.coeffs), m


def test_shidlovskii_examples():
    # n = 1 geometric case
    f = [GEOMETRIC.series(12)]
    q, ps = pade_type2(f, 1, 1)
    g = RatMat([[RatFn(Poly.ONE, Poly([1, -1]))]])
    tower = derived_tower(ps, g, 0)
    r0, delta = shidlovskii_matrix(tower)
    assert delta == Poly([1])
    # zero tower accepted, determinant zero
    _, dz = shidlovskii_matrix([[Poly(), Poly()], [Poly(), Poly()]])
    assert dz.is_zero()


def test_li_system_determinant_nonzero():
    f, g = li_system_data(2, 25)
    system = build_pade_system(f, g, 12, 4)
    assert system.residual >= 12 + 4
    assert not system.delta.is_zero()
    assert system.siegel["equations"] == 12
    assert system.siegel["unknowns"] == 13


def test_dependent_vector_negative_control():
    one_minus_z_inv = RatFn(Poly.ONE, Poly([1, -1]))
    g = RatMat([[one_minus_z_inv, 0], [0, one_minus_z_inv]])
    geo = GEOMETRIC.series(20)
    f = [geo, TruncatedSeries([2 * c for c in geo.coeffs])]
    system = build_pade_system(f, g, 4, 2)
    assert system.delta.is_zero()


def test_similileibniz():
    f, g = li_system_data(1, 30)
    q, ps = pade_type2(f, 6, 3)
    assert verify_similileibniz(g, ps, 6)
    assert verify_similileibniz(g, [Poly(), Poly()], 4)
    # s = 1 base case by hand: G P = D(P) - (D - G) P
    pvec = [RatFn(p) for p in ps]
    gp = mat_vec(g, pvec)
    dp = [c.derivative() for c in pvec]
    dmg = [dp[i] - gp[i] for i in range(2)]
    assert all(gp[i] == dp[i] - dmg[i] for i in range(2))


def test_siegel_report_values():
    f = [GEOMETRIC.series(12)]
    rep = siegel_bound_report(f, 3, 1)
    assert rep["equations"] == 1 and rep["unknowns"] == 4
    assert rep["height"] == 1
    assert rep["bound"] == (4 * 1) ** (1 / 3)
