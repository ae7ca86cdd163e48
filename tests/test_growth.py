"""Galochkin trace, size and radius estimates, derivative bounds, sandwich."""

import math
import random
from fractions import Fraction

import pytest

from gop import growth, modp
from gop.catalog import polylog_operator, polylog_system
from gop.cli import parse_operator
from gop.diffop import Basis, RatMat, companion
from gop.exact_arith import (
    GAUSS_INF,
    Poly,
    RatFn,
    gauss_valuation,
    kummer_vp_factorial,
    primes_upto,
    vp_int,
)
from gop.growth import (
    ExactLog,
    bombieri_report,
    cleared_system,
    dwork_robba_check,
    galochkin_trace,
    h_s_p,
    nilpotence_valuation_bound,
    radius_estimate,
    size_estimate,
)
from gop.modp import ClearedSequenceMod
from gop.p_curvature import is_nilpotent, p_curvature
from gop.errors import BadPrime
from oracles import (
    catalog_systems,
    drawn_operator,
    every_catalog_system,
    exact_log_of_integer,
    force_storage,
    lcm_upto,
    naive_gs_sequence,
)

LI1_COMP = companion(polylog_operator(1))
LI2_SYS = polylog_system(2)
ONE_SYS = RatMat([[1]])


def test_minimal_T_examples():
    assert Poly(cleared_system(LI1_COMP).t) == Poly([-1, 1])
    assert Poly(cleared_system(RatMat([[Poly([0, 2]), 1], [3, Poly([5])]])).t) == Poly.ONE
    assert Poly(cleared_system(RatMat([[RatFn(Poly.ONE, Poly([0, 2]))]])).t) == Poly([0, 2])


def test_galochkin_trace_log_companion():
    tr = galochkin_trace(LI1_COMP, 30)
    for s in range(1, 31):
        assert tr.q[s - 1] == lcm_upto(s)
    assert tr.q[0] == 1 or tr.q[0] == lcm_upto(1)


def test_galochkin_trace_zero_and_constant():
    zero = RatMat([[0, 0], [0, 0]])
    tr = galochkin_trace(zero, 8)
    assert all(q == 1 for q in tr.q)
    th2 = companion(parse_operator("theta^2 - 2"))
    tr = galochkin_trace(th2, 12)
    assert all(tr.q[i] <= tr.q[i + 1] or tr.q[i + 1] % tr.q[i] == 0 for i in range(11))


def test_galochkin_brute_force_cross_check():
    # independent route: reduce T^m G_m / m! entrywise, G_m from the naive
    # recurrence in Q(z)
    for g in (LI1_COMP, LI2_SYS):
        t = RatFn(Poly(cleared_system(g).t))
        seq = naive_gs_sequence(g, 15)
        q = 1
        fact = 1
        brute = []
        for m in range(1, 16):
            fact *= m
            tm = t**m
            for row in seq[m - 1].entries:
                for e in row:
                    prod = tm * e
                    assert prod.is_polynomial()
                    for c in prod.as_poly().coeffs:
                        q = math.lcm(q, (c / fact).denominator)
            brute.append(q)
        tr = galochkin_trace(g, 15)
        assert list(tr.q) == brute


def test_content_valuation_equals_coefficient_minimum():
    # min over the coefficients of H_m of v_p, taken one coefficient at a time
    for label, g in every_catalog_system():
        sys = cleared_system(g)
        for m in range(1, 41):
            coeffs = [c for row in sys.h(m) for poly in row for c in poly if c]
            for p in primes_upto(31):
                if not coeffs:
                    assert sys.content(m) == 0 and sys.vp(m, p) == GAUSS_INF
                    continue
                want = min(vp_int(c, p) for c in coeffs)
                assert vp_int(sys.content(m), p) == want == sys.vp(m, p), (label, m, p)


def test_bombieri_valuation_calls_bounded(monkeypatch):
    # one valuation of the content per (m, p) for each reader, not one per
    # coefficient
    calls = 0

    def counted(n, p):
        nonlocal calls
        calls += 1
        return vp_int(n, p)

    monkeypatch.setattr(growth, "vp_int", counted)
    bombieri_report(polylog_system(3), 60, 61)
    assert 0 < calls <= 3 * len(primes_upto(61)) * 60


def test_h_s_p_examples():
    # constant system: h(s, p) = v_p(s!) log p
    h = h_s_p(ONE_SYS, 4, 2)
    assert h.terms == {2: Fraction(3)}
    assert h_s_p(RatMat([[0]]), 9, 3).is_zero()
    # brute force against the definition for the polylog system
    for p in (2, 3):
        seq = naive_gs_sequence(LI2_SYS, 10)
        best = 0
        for m in range(1, 11):
            vals = []
            for row in seq[m - 1].entries:
                for e in row:
                    if not e.is_zero():
                        vals.append(gauss_valuation(e, p) - kummer_vp_factorial(m, p))
            if vals:
                best = max(best, max(0, -min(vals)))
        assert h_s_p(LI2_SYS, 10, p).terms.get(p, Fraction(0)) == best


def test_size_estimate_examples():
    assert size_estimate(RatMat([[0]]), 10, 13).is_zero()
    got = size_estimate(ONE_SYS, 8, 7)
    want = {p: Fraction(kummer_vp_factorial(8, p), 8) for p in (2, 3, 5, 7)}
    assert got.terms == want
    # log-companion cross-check against the trace (T has unit content)
    s, bound = 20, 23
    sigma = size_estimate(LI1_COMP, s, bound)
    q_s = galochkin_trace(LI1_COMP, s).q[-1]
    assert exact_log_of_integer(q_s, bound).scale(Fraction(1, s)) == sigma


def test_trace_size_relation_exact():
    # primitive integer T makes h+(T) = h-(T) = 0, so log q_s / s = sigma_hat
    for g in (LI1_COMP, LI2_SYS, companion(polylog_operator(2))):
        for s in (10, 15):
            bound = max(s, 3)
            sigma = size_estimate(g, s, bound)
            q_s = galochkin_trace(g, s).q[-1]
            assert exact_log_of_integer(q_s, bound).scale(Fraction(1, s)) == sigma


def test_radius_estimate_examples():
    assert radius_estimate(RatMat([[0]]), 2, 10).is_zero()
    r = radius_estimate(ONE_SYS, 2, 16)
    assert r.terms == {2: Fraction(15, 16)}
    # polylog system at p = 5: below the wild threshold log(5)/4
    r = radius_estimate(LI2_SYS, 5, 25)
    val = r.to_float()
    assert val <= math.log(5) / 4 + 1e-12
    nil, _ = is_nilpotent(p_curvature(LI2_SYS, 5))
    assert nil


def test_dwork_robba_examples():
    assert all(dwork_robba_check(LI1_COMP, 3, 40))
    assert all(dwork_robba_check(LI2_SYS, 2, 40))
    # the n = 1 bound genuinely degenerates for y' = y
    assert not all(dwork_robba_check(ONE_SYS, 2, 8))


def test_dwork_robba_all_catalog_systems():
    for label, g in catalog_systems():
        if g.n < 2:
            continue
        for p in (2, 3, 5):
            assert all(dwork_robba_check(g, p, 25)), (label, p)


def test_bombieri_examples():
    rep = bombieri_report(RatMat([[0]]), 10, 11)
    assert rep.sandwich_ok and rep.sigma_hat.is_zero() and rep.rho_hat.is_zero()
    rep = bombieri_report(LI1_COMP, 40, 43, slack=0.3)
    assert rep.sandwich_ok
    # D - 1: exponential series, sigma grows with the prime bound but the
    # sandwich still holds at fixed truncation (rho tracks it exactly here)
    rep_small = bombieri_report(ONE_SYS, 40, 11)
    rep_large = bombieri_report(ONE_SYS, 40, 43)
    assert rep_large.sigma_hat.to_float() > rep_small.sigma_hat.to_float()
    assert rep_small.sandwich_ok and rep_large.sandwich_ok
    assert rep_large.sigma_hat == rep_large.rho_hat


def test_nilpotence_valuation_bound():
    for label, g in catalog_systems():
        for p in (2, 3, 5):
            try:
                nil, _ = is_nilpotent(p_curvature(g, p))
            except BadPrime:
                continue
            if nil:
                assert nilpotence_valuation_bound(g, p, 3), (label, p)
    # at a bad prime the bound raises as p_curvature does: y' = Gy with
    # G = [[0, 1/(2z)], [0, 0]] does not reduce mod 2, and v_2(G_4) = 0 < 1
    half = RatMat([[0, RatFn(Poly([1]), Poly([0, 2]))], [0, 0]])
    for check in (p_curvature, nilpotence_valuation_bound):
        with pytest.raises(BadPrime):
            check(half, 2)
    assert nilpotence_valuation_bound(half, 3, 3)


def test_modular_engine_matches_integers_at_large_modulus(monkeypatch):
    # past 2^31 products of residues pass 2^63, where int64 arithmetic wraps
    # (72 coefficients of polylog:2's H_24 mod 2^61 - 1 would come out
    # wrong); the engine must be exact at every modulus, 2^89 - 1 included,
    # on lists, on numpy blocks, and across a switch between the two.  Blocks
    # are int64 only: a modulus whose step sums can pass 2^63 steps lists
    # whatever the budget
    rng = random.Random(90)
    systems = list(every_catalog_system())
    for k in range(16):
        basis = (Basis.D, Basis.THETA)[k % 2]
        systems.append((f"drawn:{basis.value}:{k}", companion(drawn_operator(rng, basis))))
    for label, g in systems:
        sys = cleared_system(g)
        # products of residues summed into one output coefficient of a step
        terms = sys.n * max(len(c) for row in sys.tg for c in row) + 2 * len(sys.t) - 1
        for m in (7, 27, 2**31 - 1, 2**61 - 1, 2**89 - 1):
            # at 2^31 - 1 only a step that sums two products (a constant 1x1
            # system) stays below 2^63
            int64 = m < 2**31 - 1 or (m == 2**31 - 1 and terms == 2)
            want = []
            for s in range(1, 31):
                want.append([[[c % m for c in poly] for poly in row] for row in sys.h(s)])
                for row in want[-1]:
                    for poly in row:
                        while poly and poly[-1] == 0:
                            poly.pop()
            force_storage(monkeypatch, math.inf)
            seq = ClearedSequenceMod(sys.t, sys.tg, m)
            assert [seq.goto(s) for s in range(1, 16)] == want[:15], (label, m)
            switch = modp._list_work  # the work of the first 14 steps
            assert [seq.goto(s) for s in range(16, 31)] == want[15:], (label, m)
            assert seq.block is None
            force_storage(monkeypatch, 0)
            seq = ClearedSequenceMod(sys.t, sys.tg, m)
            assert [seq.goto(s) for s in range(1, 31)] == want, (label, m)
            assert (seq.block is not None) == int64, (label, m)
            force_storage(monkeypatch, switch)
            seq = ClearedSequenceMod(sys.t, sys.tg, m)
            on_lists = []
            for s in range(1, 31):
                assert seq.goto(s) == want[s - 1], (label, m, s)
                on_lists.append(seq.block is None)
            if int64:
                # lists while under budget, then numpy from the 15th step at the latest
                assert on_lists == sorted(on_lists, reverse=True), (label, m)
                assert on_lists[1] == (switch > 0) and not any(on_lists[15:]), (label, m)
            else:
                assert all(on_lists), (label, m)


def test_exactlog_arithmetic():
    a = ExactLog.single(2, Fraction(1, 2))
    b = ExactLog.single(3, 1)
    s = a + b
    assert abs(s.to_float() - (0.5 * math.log(2) + math.log(3))) < 1e-12
    assert (s - b) == a
    assert s.scale(2).terms == {2: Fraction(1), 3: Fraction(2)}
    assert exact_log_of_integer(12, 5).terms == {2: Fraction(2), 3: Fraction(1)}
