"""Galochkin trace, size and radius estimates, derivative bounds, sandwich."""

import math
import random
from fractions import Fraction

import pytest

from gop import growth, modp
from gop.catalog import polylog_operator, polylog_system
from gop.cli import parse_operator
from gop.diffop import Basis, RatMat, companion
from gop.exact_arith import Poly, RatFn, gauss_valuation, primes_upto, vp_int
from gop.growth import (
    bombieri_report,
    cleared_system,
    galochkin_trace,
    h_s_p,
    log_value,
    radius_estimate,
    size_estimate,
)
from gop.modp import ClearedSequenceMod
from gop.p_curvature import is_nilpotent, p_curvature
from gop.errors import BadPrime
from oracles import (
    catalog_systems,
    cleared_powers,
    drawn_operator,
    dwork_robba_by_definition,
    dwork_robba_check,
    every_catalog_system,
    exact_log_of_integer,
    force_storage,
    h_by_definition,
    kummer_vp_factorial,
    lcm_upto,
    naive_gs_sequence,
    nilpotence_valuation_bound,
    rho_by_definition,
)

LI1_COMP = companion(polylog_operator(1))
LI2_SYS = polylog_system(2)
ONE_SYS = RatMat([[1]])


def _definition_systems():
    """Every catalog system and the companions of 8 drawn operators, on which
    the p-adic readers are checked against their definitions at primes <= 31
    and s <= 80."""
    rng = random.Random(15)
    out = every_catalog_system()
    for k in range(8):
        basis = (Basis.D, Basis.THETA)[k % 2]
        out.append((f"drawn:{basis.value}:{k}", companion(drawn_operator(rng, basis))))
    return out


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
            coeffs = [c for row in cleared_powers(sys, m) for poly in row for c in poly if c]
            for p in primes_upto(31):
                if not coeffs:
                    assert sys.content(m) == 0
                    continue
                want = min(vp_int(c, p) for c in coeffs)
                assert vp_int(sys.content(m), p) == want, (label, m, p)


def test_row_contents_give_the_block_content():
    # c_s read off primitive rows (off e_0 at s..s+n-1 on a companion-shape
    # G) equals the gcd over every coefficient of the full block H_s, and
    # r_s = s!/gcd(s!, c_s) is read off it (1 where H_s vanishes)
    rng = random.Random(15)
    companions = [(label, g) for label, g in every_catalog_system() if label.endswith(":companion")]
    for k in range(16):
        basis = (Basis.D, Basis.THETA)[k % 2]
        companions.append((f"drawn:{basis.value}:{k}", companion(drawn_operator(rng, basis))))
    d2 = companion(parse_operator("D^2"))
    assert d2 == RatMat([[0, 1], [0, 0]])
    assert not any(any(row) for row in cleared_powers(cleared_system(d2), 2))
    order3 = companion(parse_operator("(3*z-1)^2*D^3 + z*D + 5/7"))
    assert math.gcd(*cleared_system(order3).t) > 1
    companions += [("D^2", d2), ("order3", order3)]
    swap = RatMat([[0, 2], [1, 0]])
    for label, g in every_catalog_system() + companions + [("swap", swap)]:
        sys = cleared_system(g)
        for s in range(1, 61):
            want = math.gcd(*(c for row in cleared_powers(sys, s) for poly in row for c in poly))
            assert sys.content(s) == want, (label, s)
            assert sys.r(s) == math.factorial(s) // math.gcd(math.factorial(s), want), (label, s)
    # the route: one stepped row on companion shape, every row otherwise
    for label, g in companions:
        assert all(len(rows) == 1 for rows in cleared_system(g).hs), label
    assert all(len(rows) == 2 for rows in cleared_system(swap).hs)


def test_bombieri_valuation_calls_bounded(monkeypatch):
    # one valuation per prime for each reader, of q_s for h(s, p) and of r_s
    # for the horizon radius, not one per (m, p) or per coefficient
    calls = 0

    def counted(n, p):
        nonlocal calls
        calls += 1
        return vp_int(n, p)

    monkeypatch.setattr(growth, "vp_int", counted)
    bombieri_report(polylog_system(3), 60, 61)
    assert calls == 2 * len(primes_upto(60))


def test_h_s_p_examples():
    # constant system: h(s, p) = v_p(s!) log p
    assert h_s_p(ONE_SYS, 4, 2) == 3
    assert h_s_p(RatMat([[0]]), 9, 3) == 0
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
        assert h_s_p(LI2_SYS, 10, p) == best
    # against the definition, one m at a time
    for label, g in _definition_systems():
        sys = cleared_system(g)
        for p in primes_upto(31):
            got = [h_s_p(g, s, p) for s in range(1, 81)]
            assert got == h_by_definition(sys, 80, p), (label, p)


def test_size_estimate_examples():
    assert size_estimate(RatMat([[0]]), 10, 13) == {}
    got = size_estimate(ONE_SYS, 8, 7)
    want = {p: Fraction(kummer_vp_factorial(8, p), 8) for p in (2, 3, 5, 7)}
    assert got == want and list(got) == sorted(got)
    # log-companion cross-check against the trace (T has unit content)
    s, bound = 20, 23
    sigma = size_estimate(LI1_COMP, s, bound)
    q_s = galochkin_trace(LI1_COMP, s).q[-1]
    assert {p: Fraction(e, s) for p, e in exact_log_of_integer(q_s, bound).items()} == sigma


def test_trace_size_relation_exact():
    # primitive integer T makes h+(T) = h-(T) = 0, so log q_s / s = sigma_hat
    for g in (LI1_COMP, LI2_SYS, companion(polylog_operator(2))):
        for s in (10, 15):
            bound = max(s, 3)
            sigma = size_estimate(g, s, bound)
            q_s = galochkin_trace(g, s).q[-1]
            assert {p: Fraction(e, s) for p, e in exact_log_of_integer(q_s, bound).items()} == sigma


def test_radius_estimate_examples():
    assert radius_estimate(RatMat([[0]]), 2, 10) == 0
    r = radius_estimate(ONE_SYS, 2, 16)
    assert r == Fraction(15, 16)
    # polylog system at p = 5: below the wild threshold log(5)/4
    r = radius_estimate(LI2_SYS, 5, 25)
    val = log_value({5: r})
    assert val <= math.log(5) / 4 + 1e-12
    nil, _ = is_nilpotent(p_curvature(LI2_SYS, 5))
    assert nil
    # against the definition, one s at a time: the horizon window [s, s] that
    # bombieri_report reads, at every s, and default windows [n, s]
    for label, g in _definition_systems():
        sys = cleared_system(g)
        windows = [(s, s) for s in range(1, 81)] + [(None, s) for s in (g.n, 10, 40, 80)]
        for p in primes_upto(31):
            for lo, hi in windows:
                want = rho_by_definition(sys, p, lo or g.n, hi)
                got = radius_estimate(g, p, hi, s_min=lo)
                assert got == want, (label, p, lo, hi)


def test_dwork_robba_examples():
    assert all(dwork_robba_check(LI1_COMP, 3, 40))
    assert all(dwork_robba_check(LI2_SYS, 2, 40))
    # the n = 1 bound genuinely degenerates for y' = y
    assert not all(dwork_robba_check(ONE_SYS, 2, 8))
    # against the definition, one s at a time
    for label, g in _definition_systems():
        sys = cleared_system(g)
        for p in primes_upto(31):
            assert dwork_robba_check(g, p, 80) == dwork_robba_by_definition(sys, p, 80), (label, p)


def test_dwork_robba_all_catalog_systems():
    for label, g in catalog_systems():
        if g.n < 2:
            continue
        for p in (2, 3, 5):
            assert all(dwork_robba_check(g, p, 25)), (label, p)


def test_bombieri_examples():
    rep = bombieri_report(RatMat([[0]]), 10, 11)
    assert rep.sandwich_ok and rep.sigma_hat == {} and rep.rho_hat == {}
    rep = bombieri_report(LI1_COMP, 40, 43, slack=0.3)
    assert rep.sandwich_ok
    # D - 1: exponential series, sigma grows with the prime bound but the
    # sandwich still holds at fixed truncation (rho tracks it exactly here)
    rep_small = bombieri_report(ONE_SYS, 40, 11)
    rep_large = bombieri_report(ONE_SYS, 40, 43)
    assert log_value(rep_large.sigma_hat) > log_value(rep_small.sigma_hat)
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
                want.append([[[c % m for c in poly] for poly in row] for row in cleared_powers(sys, s)])
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


def test_log_value_sums_exponents_times_log_p():
    # e log p summed in ascending p, the order every report's table is built in
    table = {2: Fraction(1, 2), 3: Fraction(1), 7: Fraction(-2, 3)}
    assert log_value(table) == 0.5 * math.log(2) + math.log(3) + float(Fraction(-2, 3)) * math.log(7)
    assert log_value({}) == 0
    assert exact_log_of_integer(12, 5) == {2: 2, 3: 1}
    assert log_value(exact_log_of_integer(360, 5)) == pytest.approx(math.log(360), rel=1e-15)
