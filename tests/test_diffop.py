"""Operator algebra: products, division, basis changes, translation,
companion matrices, derived sequences, series application."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gop.cli import parse_operator
from gop.diffop import (
    Basis,
    DiffOp,
    INFINITY,
    RatMat,
    TruncatedSeries,
    change_basis,
    companion,
    op_add,
    op_mul,
    op_pow,
    op_sub,
)
from gop.exact_arith import Poly, RatFn
from gop.growth import gs_sequence
from oracles import (
    apply_operator,
    apply_to_power,
    every_catalog_system,
    naive_gs_sequence,
    op_div_right,
    ordinary_series_basis,
    theta_form,
    translate_to_point,
)


def rnd_op(rng, basis=Basis.D, max_order=3, max_deg=3):
    order = rng.randint(0, max_order)
    coeffs = []
    for _ in range(order + 1):
        coeffs.append(Poly([Fraction(rng.randint(-4, 4)) for _ in range(max_deg)]))
    if coeffs and coeffs[-1].is_zero():
        coeffs[-1] = Poly.ONE
    return DiffOp(basis, coeffs)


def test_op_mul_examples():
    d = parse_operator("D")
    z = DiffOp(Basis.D, [RatFn.Z])
    assert op_mul(d, z) == parse_operator("z*D + 1")
    theta = parse_operator("theta")
    tt = change_basis(op_mul(theta, theta))
    assert tt == parse_operator("z^2*D^2 + z*D")
    l = parse_operator("(1-z)*D^2 - D")
    assert op_mul(l, DiffOp(Basis.D, [1])) == l


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_op_mul_associative(seed):
    rng = random.Random(seed)
    a, b, c = (rnd_op(rng) for _ in range(3))
    assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))


def test_op_pow_matches_repeated_products():
    rng = random.Random(41)
    for _ in range(6):
        a = rnd_op(rng, basis=rng.choice((Basis.D, Basis.THETA)), max_order=2, max_deg=2)
        power = DiffOp(a.basis, [1])
        for n in range(7):
            assert op_pow(a, n) == power, (a, n)
            power = op_mul(power, a)


def test_division_examples():
    d2, d = parse_operator("D^2"), parse_operator("D")
    q, r = op_div_right(d2, d)
    assert q == d and r.is_zero()
    a, b = parse_operator("D^2"), parse_operator("z*D - 1")
    q, r = op_div_right(a, b)
    assert op_add(op_mul(q, b), r) == a
    assert r.order < b.order
    q, r = op_div_right(b, b)
    assert q == DiffOp(Basis.D, [1]) and r.is_zero()
    with pytest.raises(ValueError):
        op_div_right(a, DiffOp(Basis.D))


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_division_remultiplication(seed):
    rng = random.Random(seed)
    a = rnd_op(rng, max_order=3)
    b = rnd_op(rng, max_order=2)
    if b.is_zero():
        return
    q, r = op_div_right(a, b)
    assert op_add(op_mul(q, b), r) == a
    assert r.is_zero() or r.order < b.order


def test_change_basis_examples():
    theta = parse_operator("theta")
    assert change_basis(theta) == parse_operator("z*D")
    th2m2 = parse_operator("theta^2 - 2")
    assert change_basis(th2m2) == parse_operator("z^2*D^2 + z*D - 2")


@given(st.integers(0, 2**30))
@settings(max_examples=20, deadline=None)
def test_change_basis_roundtrip(seed):
    rng = random.Random(seed)
    l = rnd_op(rng, max_order=3)
    if l.is_zero() or l.order < 1:
        return
    back = change_basis(theta_form(l))
    # equal up to a left Q(z)-unit
    lead_ratio = l.leading() / back.leading()
    assert back.scaled(lead_ratio) == l


def test_translate_examples():
    theta = parse_operator("theta")
    assert translate_to_point(theta, INFINITY) == theta
    l = parse_operator("(1-z)*D^2 - D")
    assert translate_to_point(l, 0) == l
    # round trip through a finite point
    moved = translate_to_point(l, Fraction(3, 2))
    back = translate_to_point(moved, Fraction(-3, 2))
    assert back == change_basis(l)


def test_translate_infinity_feeds_irregularity():
    from gop.local_analysis import indicial_data

    assert indicial_data(parse_operator("D - 1"), INFINITY).point.regular is False


def test_companion_examples():
    dm1 = parse_operator("D - 1")
    assert companion(dm1) == RatMat([[1]])
    li1 = parse_operator("(1-z)*D^2 - D")
    g = companion(li1)
    one_minus_z_inv = RatFn(Poly.ONE, Poly([1, -1]))
    assert g == RatMat([[0, 1], [0, one_minus_z_inv]])
    assert companion(parse_operator("D^2")) == RatMat([[0, 1], [0, 0]])


def test_gs_sequence_examples():
    const = RatMat([[1]])
    assert all(m == const for m in gs_sequence(const, 5))
    half_over_z = RatMat([[RatFn(Poly([Fraction(1, 2)]), Poly.x())]])
    seq = gs_sequence(half_over_z, 4)
    a = Fraction(1, 2)
    for s, m in enumerate(seq, start=1):
        expected = Fraction(1)
        for k in range(s):
            expected *= a - k
        assert m[0, 0] == RatFn(Poly.const(expected), Poly.x(s))
    # recurrence identity and polynomial clearing
    li1comp = RatMat([[0, 1], [0, RatFn(Poly.ONE, Poly([1, -1]))]])
    seq = gs_sequence(li1comp, 6)
    t = Poly([-1, 1])
    for s in range(1, 6):
        lhs = seq[s]
        rhs_mat = seq[s - 1] * li1comp + seq[s - 1].derivative()
        assert lhs == rhs_mat
        for row in seq[s - 1].entries:
            for e in row:
                cleared = RatFn(t) ** s * e
                assert cleared.is_polynomial()
    # the cleared integer recurrence against the naive one in Q(z)
    for label, g in every_catalog_system():
        assert gs_sequence(g, 8) == naive_gs_sequence(g, 8), label


def test_apply_operator_examples():
    d = parse_operator("D")
    f = TruncatedSeries([1, 1, 1])
    out = apply_operator(d, f)
    assert out == TruncatedSeries([1, 2])
    li1op = parse_operator("(1-z)*D^2 - D")
    li1 = TruncatedSeries([Fraction(0)] + [Fraction(1, n) for n in range(1, 15)])
    out = apply_operator(li1op, li1)
    assert out.trunc_order == 13 and out.valuation() is None
    theta = parse_operator("theta")
    assert apply_operator(theta, TruncatedSeries([5, 0, 0])).valuation() is None


def test_apply_operator_composition():
    rng = random.Random(23)
    for _ in range(10):
        a = rnd_op(rng, max_order=2, max_deg=2)
        b = rnd_op(rng, max_order=2, max_deg=2)
        if a.is_zero() or b.is_zero():
            continue
        f = TruncatedSeries([Fraction(rng.randint(-3, 3)) for _ in range(16)])
        try:
            via_product = apply_operator(op_mul(a, b), f)
            via_steps = apply_operator(a, apply_operator(b, f))
        except Exception:
            continue
        m = min(via_product.trunc_order, via_steps.trunc_order)
        assert via_product.truncate(m) == via_steps.truncate(m)


def test_apply_to_power_examples():
    off, phis = apply_to_power(parse_operator("theta - 3"), 3)
    assert phis[0] == 0
    _, phis = apply_to_power(parse_operator("theta^2 - 2"), 1)
    assert phis[0] == -1
    from gop.catalog import hypergeom_operator

    g2f1 = hypergeom_operator([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)])
    _, phis = apply_to_power(g2f1, 0)
    assert phis[0] == 0


def test_ordinary_series_basis_examples():
    d2 = parse_operator("D^2")
    basis = ordinary_series_basis(d2, 6)
    assert basis[0] == TruncatedSeries([1, 0, 0, 0, 0, 0])
    assert basis[1] == TruncatedSeries([0, 1, 0, 0, 0, 0])
    dm1 = parse_operator("D - 1")
    exp = ordinary_series_basis(dm1, 8)[0]
    assert exp[5] == Fraction(1, 120)
    li1op = parse_operator("(1-z)*D^2 - D")
    basis = ordinary_series_basis(li1op, 10)
    assert basis[1].coeffs[1:5] == (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    for sol in basis:
        res = apply_operator(li1op, sol)
        assert res.valuation() is None


def test_ordinary_series_basis_requires_ordinary():
    with pytest.raises(ValueError):
        ordinary_series_basis(parse_operator("z*D - 1"), 6)


def test_zero_and_scalar_edges():
    zero = DiffOp(Basis.D)
    assert zero.is_zero() and zero.order == -1
    assert op_sub(parse_operator("D"), parse_operator("D")).is_zero()
    assert op_pow(parse_operator("D"), 0) == DiffOp(Basis.D, [1])
