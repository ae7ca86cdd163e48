"""Reduction mod p, p-curvature, nilpotence tests, scans."""

import importlib
import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from gop.catalog import (
    CATALOG,
    catalog_get,
    counterexample_theta2_minus_2,
    order1_g_operator,
    polylog_operator,
    polylog_system,
)
from gop.cli import parse_operator, run_command
from gop.diffop import Basis, RatMat, companion
from gop.errors import BadPrime, IrregularPoint
from gop.exact_arith import Poly, RatFn, primes_upto
from gop.growth import cleared_system
from gop.modp import ClearedSequenceMod, PointSequenceMod, reduce_poly_mod_p, reduce_ratfn_mod_p
from gop.p_curvature import (
    FpMat,
    _is_bad,
    _rows_at_primes,
    _runs,
    _scaled_p_curvature,
    global_scan,
    is_nilpotent,
    operator_nilpotence_by_division,
    p_curvature,
    prime_report,
)
from oracles import (
    catalog_systems,
    drawn_operator,
    every_catalog_system,
    gauss_rule_is_bad,
    katz_honda_check,
    naive_division_vanishes,
    naive_gs_sequence,
    per_prime_scan,
    relation_gp_power_holds,
    theta_katz_honda_check,
)


def test_reduce_ratfn_examples():
    f = RatFn(Poly([2, 1]), Poly([-1, 1]))  # (z+2)/(z-1)
    assert reduce_ratfn_mod_p(f, 5) == ([2, 1], [4, 1])
    with pytest.raises(BadPrime):
        reduce_ratfn_mod_p(RatFn(Poly.ONE, Poly([0, 2])), 2)  # 1/(2z)
    g = RatFn(Poly([3]), Poly([6, 1]))  # 3/(z+6) at p=3: content 3 up, unit den
    assert reduce_ratfn_mod_p(g, 3) == ([], [0, 1])
    h = RatFn(Poly([1]), Poly([Fraction(1, 2), 1]))  # 1/(z+1/2) = 2/(2z+1) at p=2
    assert reduce_ratfn_mod_p(h, 2) == ([], [1])
    assert reduce_ratfn_mod_p(RatFn.ZERO, 7) == ([], [1])


def test_p_curvature_examples():
    # D - 1: constant system, never nilpotent
    assert is_nilpotent(p_curvature(RatMat([[1]]), 3)) == (False, None)
    # y' = y/(2z): (1/2)(-1/2)(-3/2) = 0 mod 3
    g = RatMat([[RatFn(Poly([1]), Poly([0, 2]))]])
    gp = p_curvature(g, 3)
    assert gp.is_zero()
    with pytest.raises(BadPrime):
        p_curvature(g, 2)
    assert p_curvature(RatMat([[0, 0], [0, 0]]), 5).is_zero()


def test_is_nilpotent_examples():
    # [row][col] coefficient lists, low degree first; [] is a zero entry
    p = 7
    upper = FpMat(p, [[[], [1]], [[], []]])
    assert is_nilpotent(upper) == (True, 2)
    ident = FpMat(p, [[[1], []], [[], [1]]])
    assert is_nilpotent(ident) == (False, None)
    # a polynomial corner entry: still index 2 over F_7[z]
    z = [[[], [0, 1]], [[], []]]
    assert is_nilpotent(FpMat(p, z)) == (True, 2)
    li2gp = p_curvature(companion(polylog_operator(2)), 5)
    nil, idx = is_nilpotent(li2gp)
    assert nil and idx <= 3


def test_division_examples():
    assert operator_nilpotence_by_division(parse_operator("D"), 5)
    assert not operator_nilpotence_by_division(parse_operator("D - 1"), 3)
    li2 = polylog_operator(2)
    assert operator_nilpotence_by_division(li2, 5)
    assert is_nilpotent(p_curvature(companion(li2), 5))[0]


def test_katz_honda_examples():
    assert katz_honda_check(parse_operator("theta - 3"), 7)
    assert katz_honda_check(polylog_operator(2), 7)
    # 2 is a quadratic residue mod p iff p = +-1 mod 8
    th = counterexample_theta2_minus_2()
    assert not katz_honda_check(th, 5)
    assert katz_honda_check(th, 7)


def test_katz_honda_irregular():
    # reduction of D - 1 has an irregular point at 0? No: 0 is fine; use 1/z^2
    l = parse_operator("theta - 1/z")
    with pytest.raises(IrregularPoint):
        katz_honda_check(l, 5)


def test_global_scan_examples():
    primes = primes_upto(50)
    scan = global_scan(polylog_system(2), primes, subject_id="polylog:2")
    assert scan.verdict == "AllGoodNilpotent"
    scan = global_scan(parse_operator("D - 1"), primes, subject_id="dm1")
    assert scan.verdict == "FoundNonNilpotent"
    assert all(r.method_agreement for r in scan.reports)
    scan = global_scan(order1_g_operator([Fraction(1, 2)], [Fraction(1)]), primes)
    by_p = {r.prime: r for r in scan.reports}
    assert by_p[2].status == "BadPrime"
    assert scan.verdict == "AllGoodNilpotent"
    assert all(r.status == "Nilpotent" for p, r in by_p.items() if p != 2)


def test_theta2_minus_2_scan_mixed():
    scan = global_scan(counterexample_theta2_minus_2(), primes_upto(30))
    by_p = {r.prime: r for r in scan.reports}
    for p, r in by_p.items():
        if p == 2:
            continue
        expected = "Nilpotent" if p % 8 in (1, 7) else "NonNilpotent"
        assert r.status == expected, p
    assert scan.verdict == "Mixed"


def test_relation_gp_all_catalog_systems():
    for label, g in catalog_systems():
        for p in primes_upto(20):
            try:
                assert relation_gp_power_holds(g, p, 3), (label, p)
            except BadPrime:
                continue


def test_p_curvature_is_horizontal():
    # H_p mod p is horizontal, H' = [G, H], that is T H' = (TG) H - H (TG):
    # the identity that lets the scan read H_p off its values at points
    for label, g in every_catalog_system():
        sys = cleared_system(g)
        n = sys.n
        for p in primes_upto(23):
            if _is_bad(sys, p):
                continue
            h = ClearedSequenceMod(sys.t, sys.tg, p).goto(p)
            tg = [[[c % p for c in poly] for poly in row] for row in sys.tg]
            t = [[[c % p for c in sys.t] if i == j else [] for j in range(n)] for i in range(n)]
            dh = [[[i * c % p for i, c in enumerate(poly)][1:] for poly in row] for row in h]
            lhs = _schoolbook_product(t, dh, p)
            left, right = _schoolbook_product(tg, h, p), _schoolbook_product(h, tg, p)
            rhs = [[[(x - y) % p for x, y in zip_longest(u, v, fillvalue=0)] for u, v in zip(*rows)]
                   for rows in zip(left, right)]
            assert _mod(lhs, p) == _mod(rhs, p), (label, p)


def test_reduction_commutes_with_recurrence():
    # H_s mod p = (T^s G_s) mod p for s <= 20: the native mod-p engine against
    # G_s from the naive characteristic-zero recurrence, cleared by T^s there
    for label, g in [("polylog:1:vector", polylog_system(1)),
                     ("li1comp", companion(polylog_operator(1)))]:
        char0 = naive_gs_sequence(g, 20)
        sys = cleared_system(g)
        t = Poly(sys.t)
        for p in (3, 7):
            seq = ClearedSequenceMod(sys.t, sys.tg, p)
            for s in range(1, 21):
                native = seq.goto(s)
                reduced = [
                    [reduce_poly_mod_p((t**s * e.num).exact_div(e.den), p) for e in row]
                    for row in char0[s - 1].entries
                ]
                assert native == reduced, (label, p, s)


def test_matrix_and_division_agree_catalog():
    for entry_id in CATALOG:
        op = catalog_get(entry_id).operator
        g = companion(op)
        for p in primes_upto(50):
            try:
                mat = is_nilpotent(p_curvature(g, p))[0]
                div = operator_nilpotence_by_division(op, p)
            except BadPrime:
                continue
            assert mat == div, (entry_id, p)


def test_division_matches_naive_remainder():
    # the division test against the remainder of D^(pn) by L computed in Q(z)
    # and reduced mod p; polylog:2 at p = 7 alone takes about 20 s there
    cases = [(entry_id, p) for entry_id in CATALOG for p in (2, 3, 5)]
    cases += [(entry_id, 7) for entry_id in ("gauss2f1", "theta2m2", "d-minus-1", "order1-half")]
    for entry_id, p in cases:
        op = CATALOG[entry_id].operator
        try:
            want = naive_division_vanishes(op, p)
        except BadPrime:
            with pytest.raises(BadPrime):
                operator_nilpotence_by_division(op, p)
            continue
        assert operator_nilpotence_by_division(op, p) == want, (entry_id, p)


def test_good_prime_rule_matches_gauss_valuation():
    # p divides every coefficient of T exactly when some entry of G has
    # negative Gauss valuation at p
    rng = random.Random(60)
    systems = list(every_catalog_system())
    for basis in (Basis.D, Basis.THETA):
        for k in range(12):
            systems.append((f"drawn:{basis.value}:{k}", companion(drawn_operator(rng, basis))))
    for label, g in systems:
        for p in primes_upto(60):
            bad = gauss_rule_is_bad(g, p)
            try:
                p_curvature(g, p)
            except BadPrime as exc:
                assert bad and "entry with negative Gauss valuation" in str(exc), (label, p)
            else:
                assert not bad, (label, p)


def test_katz_honda_necessary_condition():
    for entry_id in ("polylog:1", "polylog:2"):
        op = catalog_get(entry_id).operator
        g = companion(op)
        for p in primes_upto(20):
            try:
                nil = is_nilpotent(p_curvature(g, p))[0]
            except BadPrime:
                continue
            if nil:
                try:
                    assert katz_honda_check(op, p)
                except IrregularPoint:
                    pass


def _katz_outcome(check, l, p):
    try:
        return check(l, p)
    except (BadPrime, IrregularPoint) as exc:
        return type(exc).__name__


def test_katz_honda_matches_theta_route():
    # the Frobenius rule on the reduced D form against the reduced monic theta
    # form, including which of BadPrime and IrregularPoint is raised
    rng = random.Random(3)
    ops = [entry.operator for entry in CATALOG.values()]
    ops += [drawn_operator(rng, (Basis.D, Basis.THETA)[k % 2]) for k in range(60)]
    seen = set()
    for l in ops:
        for p in primes_upto(60):
            want = _katz_outcome(theta_katz_honda_check, l, p)
            assert _katz_outcome(katz_honda_check, l, p) == want, (l, p)
            seen.add(want)
    assert seen == {True, False, "BadPrime", "IrregularPoint"}


def _schoolbook_product(a, b, p):
    n = len(a)
    out = [[[0] * (2 * max(len(c) for row in a + b for c in row)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for u, x in enumerate(a[i][k]):
                    for v, y in enumerate(b[k][j]):
                        out[i][j][u + v] += x * y
            out[i][j] = [c % p for c in out[i][j]]
            while out[i][j] and out[i][j][-1] == 0:
                out[i][j].pop()
    return out


def test_kronecker_product_matches_schoolbook():
    rng = random.Random(17)
    for p in (2, 3, 101, 2**31 - 1, 2**61 - 1):
        for _ in range(40):
            n = rng.randint(1, 4)

            def entry():
                kind = rng.random()
                if kind < 0.25:
                    return []
                if kind < 0.45:
                    return [rng.randrange(1, p)]
                if kind < 0.6:  # every coefficient p - 1: the largest sums
                    return [p - 1] * rng.randint(1, 12)
                coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 12))]
                return coeffs[:-1] + [rng.randrange(1, p)]

            a = [[entry() for _ in range(n)] for _ in range(n)]
            b = [[entry() for _ in range(n)] for _ in range(n)]
            assert (FpMat(p, a) * FpMat(p, b)).entries == _schoolbook_product(a, b, p), (p, a, b)
        # entries of p - 1 as long as one product of two of them still fits
        # the byte slots it needs alone: the sum over k needs wider slots
        square = (p - 1) ** 2
        full = [[[p - 1] * ((256 ** -(-square.bit_length() // 8) - 1) // square)] * 4] * 4
        assert (FpMat(p, full) * FpMat(p, full)).entries == _schoolbook_product(full, full, p), p


def _scan_rows(subject, primes):
    return [(r.prime, r.status, r.nilpotence_index, r.method_agreement, r.detail)
            for r in global_scan(subject, primes).reports]


def test_scan_matches_per_prime_runs():
    # the scan reads each prime off runs at its integer points, or off one
    # list run modulo the product of the primes the pool cannot serve; the
    # per-prime side runs each prime on lists on its own modulus.  The range
    # stops at 70, where the per-prime lists are still fast
    rng = random.Random(91)
    subjects = [e.operator if e.system is None else e.system for e in CATALOG.values()]
    subjects += [drawn_operator(rng, (Basis.D, Basis.THETA)[k % 2]) for k in range(16)]
    primes = primes_upto(70)
    for subject in subjects:
        assert per_prime_scan(subject, primes) == _scan_rows(subject, primes), subject


def test_scan_edge_cases(monkeypatch):
    li2, six = polylog_operator(2), parse_operator("6*D - 1")  # 6 D - 1 is bad at 2 and 3
    for subject, primes in [(li2, [7]), (li2, [13, 3, 13, 2, 7, 3]), (six, [5]), (six, [7, 3, 5, 2, 7])]:
        scan = global_scan(subject, primes)
        assert scan.primes == tuple(sorted(primes))
        assert list(scan.reports) == per_prime_scan(subject, primes), (subject, primes)

    def no_sequence(*args, **kwargs):
        raise AssertionError("a scan without a good prime built a sequence")

    module = importlib.import_module("gop.p_curvature")
    monkeypatch.setattr(module, "ClearedSequenceMod", no_sequence)
    monkeypatch.setattr(module, "PointSequenceMod", no_sequence)
    for primes in ([], [3], [3, 2, 3]):
        scan = global_scan(six, primes)
        assert scan.verdict == "NoGoodPrime" and scan.primes == tuple(sorted(primes))
        assert [r.status for r in scan.reports] == ["BadPrime"] * len(primes)
        assert list(scan.reports) == per_prime_scan(six, primes)
    with pytest.raises(BadPrime):
        prime_report(six, 3)


def test_row_run_reads_scaled_p_curvature():
    # for a companion system the row e_0 at p+i is T^i e_i H_p, so scaling
    # row i by T^(n-1-i) gives T^(n-1) H_p; one run over every good prime
    # <= 60 covers p < n, n = 1 and indices read by two primes
    rng = random.Random(44)
    ops = [entry.operator for entry in CATALOG.values()]
    ops += [drawn_operator(rng, (Basis.D, Basis.THETA)[k % 2]) for k in range(16)]
    assert {op.order for op in ops} == {1, 2, 3}
    for op in ops:
        g = companion(op)
        sys, n = cleared_system(g), g.n
        good = [p for p in primes_upto(60) if not gauss_rule_is_bad(g, p)]
        rows = {p: [] for p in good}
        start = [[[1]] + [[] for _ in range(n - 1)]]
        for p, k, block in _rows_at_primes(sys, {p: list(range(p, p + n)) for p in good}, start):
            assert k == p + len(rows[p])
            rows[p].append(block[0])
        for p in good:
            t_power = [[[1]]]
            for _ in range(n - 1):
                t_power = _schoolbook_product(t_power, [[[c % p for c in sys.t]]], p)
            scalar = [[t_power[0][0] if i == j else [] for j in range(n)] for i in range(n)]
            want = _schoolbook_product(scalar, p_curvature(g, p).entries, p)
            assert _scaled_p_curvature(rows[p], sys.t, p).entries == want, (op, p)


def test_one_sequence_per_scan_subject(monkeypatch):
    # a scan or a one-prime report steps at most one list run, shared by the
    # primes the pool cannot serve, and one run per pool point, for an
    # operator as for a system
    built = []

    class CountedLists(ClearedSequenceMod):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    class CountedPoints(PointSequenceMod):
        def __init__(self, t, b, a, m):
            built.append(a)
            super().__init__(t, b, a, m)

    def cli(*argv):
        assert run_command(list(argv))[0] == 0, argv

    module = importlib.import_module("gop.p_curvature")
    monkeypatch.setattr(module, "ClearedSequenceMod", CountedLists)
    monkeypatch.setattr(module, "PointSequenceMod", CountedPoints)
    li2 = polylog_operator(2)
    for run, lists, points in (
        (lambda: global_scan(li2, primes_upto(50)), 1, 7),
        (lambda: prime_report(li2, 101), 0, 7),
        (lambda: global_scan(polylog_system(2), primes_upto(50)), 1, 4),
        (lambda: cli("scan", "--catalog", "gauss2f1", "--primes", "2..60"), 1, 5),
        (lambda: cli("pcurv", "--catalog", "theta2m2", "--prime", "7"), 0, 5),
        (lambda: cli("pcurv", "--catalog", "theta2m2", "--prime", "3"), 1, 0),
    ):
        built.clear()
        run()
        assert built.count(None) == lists
        assert len(built) - lists == len(set(built) - {None}) == points


def test_route_of_each_prime():
    # a prime with q = n e + 1 points of the pool distinct and ordinary mod p
    # is read off runs at points, any other good prime on polynomials; the
    # bench's scans take both routes
    for g, lists, points in (
        (polylog_system(3), [2, 3, 5], [7, 11, 67]),
        (companion(catalog_get("gauss2f1").operator), [3, 5], [7, 11, 29]),
        (companion(polylog_operator(3)), [2, 3, 5, 7, 11, 13], [17, 19, 1999]),
    ):
        sys = cleared_system(g)
        runs = _runs(sys, [p for p in lists + points if not _is_bad(sys, p)])
        assert runs.pop(None) == lists
        assert {p for served in runs.values() for p in served} == set(points)


def _mod(rows, p):
    out = [[[c % p for c in poly] for poly in row] for row in rows]
    for row in out:
        for poly in row:
            while poly and poly[-1] == 0:
                poly.pop()
    return out


def _at(rows, a, p):
    """Each [row][col] coefficient list evaluated at a, mod p, as a constant
    list ([] for zero)."""
    return [[[v] if (v := sum(c * a**i for i, c in enumerate(poly)) % p) else [] for poly in row] for row in rows]


def test_modulus_switch_matches_runs_mod_each_prime():
    # H_s mod M reduced mod p equals the run mod p for every p | M and s <= 30,
    # across a switch to M/q at s = 15 for each q | M; so do the runs at an
    # integer point a, of H_s(a), and of e_0 H_s(a) on a companion system
    # from s = n - 1, where that run starts
    rng = random.Random(12)
    systems = [g for _, g in every_catalog_system()]
    systems += [companion(drawn_operator(rng, (Basis.D, Basis.THETA)[k % 2])) for k in range(4)]
    for moduli in (primes_upto(7)[1:], primes_upto(70)):
        m = math.prod(moduli)
        for g in systems:
            sys = cleared_system(g)
            want = {}
            for p in moduli:
                seq = ClearedSequenceMod(sys.t, sys.tg, p)
                want[p] = [seq.goto(s) for s in range(1, 31)]
            a = next(a for a in range(sys.n + 2) if Poly(sys.t).evaluate(a))
            runs = [
                (lambda d: ClearedSequenceMod(sys.t, sys.tg, d), lambda rows, p: rows, 1),
                (lambda d: PointSequenceMod(sys.t, [sys.tg], a, d), lambda rows, p: _at(rows, a, p), 1),
            ]
            if sys.companion_shape:
                row_equation = [[[c]] for c in sys.tg[-1]]
                runs.append((lambda d: PointSequenceMod(sys.t, row_equation, a, d),
                             lambda rows, p: _at(rows[:1], a, p), max(sys.n - 1, 1)))
            for make, read, first in runs:
                for q in moduli:
                    seq = make(m)
                    for s in range(first, 31):
                        rows = seq.goto(s)
                        for p in moduli:
                            if s <= 15 or p != q:
                                assert _mod(rows, p) == read(want[p][s - 1], p), (g, m, q, p, s, a)
                        if s == 15:
                            seq.reduce_modulus(m // q)
                            assert seq.goto(15) == _mod(rows, m // q), (g, m, q, a)
