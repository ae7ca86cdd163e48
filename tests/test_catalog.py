"""Catalog constructors, their series and the catalog surface."""

from fractions import Fraction

import pytest

from gop.catalog import (
    CATALOG,
    CoeffGenerator,
    catalog_get,
    counterexample_theta2_minus_2,
    hypergeom_operator,
    hypergeom_series,
    order1_g_operator,
    polylog_components,
    polylog_operator,
    polylog_system,
)
from gop.cli import parse_operator
from gop.diffop import Basis
from gop.errors import InvalidParameters
from gop.exact_arith import Poly, RatFn, primes_upto
from gop.local_analysis import classify_operator, exponents
from gop.p_curvature import global_scan
from oracles import (
    apply_operator,
    catalog_systems,
    laurent_at_zero,
    ordinary_series_basis,
    series_derivative,
    translate_to_point,
)


def test_polylog_operator_examples():
    assert polylog_operator(1) == parse_operator("(1-z)*D^2 - D")
    li2 = polylog_operator(2)
    assert li2.order == 3
    assert polylog_system(2) == RatMat_from_spec()
    # series denominators of Li_1 are lcm(1..n)
    gen = CoeffGenerator("polylog", (1,))
    assert [gen.coeff(n) for n in range(1, 5)] == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]


def RatMat_from_spec():
    from gop.diffop import RatMat

    one_minus_z_inv = RatFn(Poly.ONE, Poly([1, -1]))
    z_inv = RatFn(Poly.ONE, Poly([0, 1]))
    return RatMat([[0, 0, 0], [one_minus_z_inv, 0, 0], [0, z_inv, 0]])


def test_catalog_operators_annihilate_their_series():
    for entry in CATALOG.values():
        if entry.solution is None:
            continue
        series = entry.solution.series(24)
        out = apply_operator(entry.operator, series)
        assert out.valuation() is None, entry.id
        assert out.trunc_order >= 20, entry.id


def test_polylog_vector_satisfies_system():
    for s in (1, 2):
        g = polylog_system(s)
        comps = [gen.series(20) for gen in polylog_components(s)]
        derivs = [series_derivative(c) for c in comps]
        # f' = G f, checked entrywise through the series
        for i in range(g.n):
            acc = [Fraction(0)] * 19
            for k in range(g.n):
                e = g.entries[i][k]
                if e.is_zero():
                    continue
                v, lau = laurent_at_zero(e, 19)
                for a, c in enumerate(lau):
                    for b, fc in enumerate(comps[k].coeffs):
                        idx = v + a + b
                        if 0 <= idx < 19:
                            acc[idx] += c * fc
            assert acc == list(derivs[i].coeffs[:19]), (s, i)


def test_hypergeom_operator_shape():
    op = hypergeom_operator([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)])
    assert op.basis is Basis.THETA
    assert op == parse_operator("theta*(theta) - z*(theta+1/2)^2")
    with pytest.raises(InvalidParameters):
        hypergeom_operator([Fraction(1, 2)], [Fraction(1, 3)])  # length mismatch
    with pytest.raises(InvalidParameters):
        hypergeom_operator([1, 2], [-3])


def test_hypergeom_series_annihilated():
    alphas, betas = [Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4)]
    op = hypergeom_operator(alphas, betas)
    series = hypergeom_series(alphas, betas).series(24)
    out = apply_operator(op, series)
    assert out.valuation() is None and out.trunc_order >= 20


def test_order1_examples():
    op = order1_g_operator([Fraction(1, 2)], [Fraction(1)])
    rat, irr = exponents(op, 1)
    assert rat == [Fraction(1, 2)] and not irr
    assert order1_g_operator([], []) == parse_operator("D")
    f0 = order1_g_operator([Fraction(-3, 2), Fraction(1, 2)], [1, Fraction(4, 3)])
    rat, _ = exponents(f0, 1)
    assert rat == [Fraction(-3, 2)]


def test_counterexample_profile():
    th = counterexample_theta2_minus_2()
    rat, irr = exponents(th, 0)
    assert irr == [Poly([-2, 0, 1])]
    profile = classify_operator(th)
    assert profile.fuchsian and not profile.katz_consistent


def test_polylog_scan_prediction():
    for s in (1, 2):
        scan = global_scan(polylog_system(s), primes_upto(50))
        assert scan.verdict == "AllGoodNilpotent"


def test_catalog_surface():
    assert set(CATALOG) == {
        "polylog:1",
        "polylog:2",
        "gauss2f1",
        "theta2m2",
        "d-minus-1",
        "order1-half",
    }
    entry = catalog_get("polylog:3")
    assert entry.operator.order == 4
    # catalog records are immutable
    with pytest.raises(AttributeError):
        entry.operator = None
    with pytest.raises(AttributeError):
        entry.solution.rule = "geometric"
    with pytest.raises(KeyError):
        catalog_get("nope")
    labels = [label for label, _ in catalog_systems()]
    assert "polylog:2:vector" in labels and "polylog:1:companion" in labels


def test_catalog_ordinary_points_are_ordinary():
    for entry in CATALOG.values():
        lt = translate_to_point(entry.operator, entry.ordinary_point)
        basis = ordinary_series_basis(lt, 10)
        assert len(basis) == entry.operator.order
