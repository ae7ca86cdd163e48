"""Expression grammar, JSON/text reports, and command dispatch.

Grammar (extended with unary minus at the head of a sum and powers of
parenthesized groups, which the catalog operators need):

    operator := ["-"] prod { ("+"|"-") prod }
    prod     := atom { ("*"|"/") atom }
    atom     := primary ["^" nat]
    primary  := nat | "z" | "D" | "theta" | "(" operator ")"

Juxtaposition is never multiplication; "*" is mandatory.  Every value is a
DiffOp: a number or z is an order-0 operator, and "+", "-", "*" and "^" are
op_add, op_sub, op_mul and op_pow, so the usual precedence rules give the
intended non-commutative semantics.  "/" needs both operands of order <= 0
and divides their rational functions; D - D is the zero operator, so
2/(D-D) is a division by zero.  Mixing D and theta is an error.  A result of
order <= 0 takes the basis the expression names, D when it names none.

A layer loads on first use.  `errors`, `exact_arith` and `diffop`, which the
parser needs, load with the package; `catalog`, `growth`, `local_analysis`,
`p_curvature` and `pade` are bound here as lazy modules, and each command
looks their functions up when it runs (`growth.galochkin_trace(...)`), so a
`gop` child compiles and runs only the layers its command reaches:

    classify, exponents                 local_analysis
    pcurv, scan                         growth, modp, p_curvature
    galochkin, size, radius, bombieri   growth
    pade                                pade, growth
    catalog                             catalog

and `catalog` too for a `--catalog ID`.

The command line is read off one table, _SYNTAX, which gives each command
its positionals and its flags, each flag with its type and its default:

    gop [--format {json,text}] COMMAND [WORD | --flag VALUE | --flag=VALUE]... [-- WORD...]

`--format` comes before the command and every other flag after it.  A flag
takes the next word as its value, even one that starts with "-".  Any other
word that starts with "-" is a flag, unless it is a negative number or
holds a space, and every word after "--" is a positional.  `-h` or `--help`
prints the usage built from the table and exits 0 with no envelope.  Any
other malformed line is a UsageError (exit 1), whose envelope names the
command once the parser has read it.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
import types
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from . import __version__, catalog, growth, local_analysis, p_curvature, pade
from .diffop import (
    Basis,
    DiffOp,
    INFINITY,
    RatMat,
    TruncatedSeries,
    companion,
    is_infinity,
    op_add,
    op_mul,
    op_pow,
    op_sub,
    operator_text,
)
from .errors import DomainError, MixedBasisError, ParseError, UsageError
from .exact_arith import (
    PRIME_CHECK_BOUND,
    Poly,
    RatFn,
    is_prime,
    poly_text,
    primes_upto,
)


# ---------------------------------------------------------------------------
# tokenizer and parser


_SYMBOLS = "+-*/^()"


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind, self.value, self.line, self.col = kind, value, line, col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word not in ("z", "D", "theta"):
                raise ParseError(f"unknown symbol {word!r}", line, col)
            tokens.append(_Token(word, word, line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.basis: Optional[Basis] = None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind=None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def _use_basis(self, basis: Basis, tok: _Token):
        if self.basis is None:
            self.basis = basis
        elif self.basis is not basis:
            raise MixedBasisError("both D and theta appear in one expression")

    def parse(self) -> DiffOp:
        value = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input at {tok.kind!r}", tok.line, tok.col)
        if value.order <= 0:
            # the basis of a scalar is arbitrary until the expression names one
            return DiffOp(self.basis or Basis.D, value.coeffs)
        return value

    def sum(self) -> DiffOp:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        acc = self.prod()
        if negate:
            acc = acc.scaled(-1)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.prod()
            acc = op_add(acc, rhs) if op == "+" else op_sub(acc, rhs)
        return acc

    def prod(self) -> DiffOp:
        acc = self.atom()
        while self.peek().kind in ("*", "/"):
            tok = self.take()
            rhs = self.atom()
            if tok.kind == "*":
                acc = op_mul(acc, rhs)
                continue
            if acc.order > 0 or rhs.order > 0:
                raise ParseError("division needs scalar operands", tok.line, tok.col)
            if rhs.is_zero():
                raise ParseError("division by zero", tok.line, tok.col)
            acc = DiffOp(acc.basis, [acc.coeff(0) / rhs.coeff(0)])
        return acc

    def atom(self) -> DiffOp:
        value = self.primary()
        if self.peek().kind == "^":
            self.take()
            value = op_pow(value, self.take("num").value)
        return value

    def primary(self) -> DiffOp:
        tok = self.take()
        if tok.kind == "num":
            return DiffOp(Basis.D, [tok.value])
        if tok.kind == "z":
            return DiffOp(Basis.D, [RatFn.Z])
        if tok.kind == "D":
            self._use_basis(Basis.D, tok)
            return DiffOp(Basis.D, [0, 1])
        if tok.kind == "theta":
            self._use_basis(Basis.THETA, tok)
            return DiffOp(Basis.THETA, [0, 1])
        if tok.kind == "(":
            inner = self.sum()
            self.take(")")
            return inner
        raise ParseError(f"unexpected {tok.kind!r}", tok.line, tok.col)


def parse_operator(text: str) -> DiffOp:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# serialization


def frac_str(q) -> str:
    q = Fraction(q)
    return str(q)


def dec15(x) -> str:
    """15 significant digits of a float, or of a Decimal past the float
    range, written the same way."""
    if isinstance(x, Decimal):
        mantissa, exp = f"{x:.14e}".split("e")
        return f"{mantissa.rstrip('0').rstrip('.')}e{exp}"
    return f"{x:.15g}"


def poly_json(p: Poly) -> dict:
    return {"coeffs": [frac_str(c) for c in p.coeffs], "text": poly_text(p, "x")}


def exactlog_json(table: dict) -> dict:
    """A {prime: exponent} table of log p multiples, exact and as a float."""
    return {
        "terms": [[p, frac_str(e)] for p, e in table.items()],
        "decimal": dec15(growth.log_value(table)),
    }


def location_json(loc) -> object:
    if is_infinity(loc):
        return "inf"
    if isinstance(loc, Poly):
        return {"algebraic_class": poly_json(loc)}
    return frac_str(loc)


def indicial_json(data: local_analysis.IndicialData) -> dict:
    return {
        "location": location_json(data.point.location),
        "regular": data.point.regular,
        "pole_profile": [list(x) for x in data.point.pole_profile],
        "indicial_polynomial": None if data.phi is None else poly_json(data.phi),
        "rational_exponents": [frac_str(e) for e in data.rational_exponents],
        "nonrational_factors": [poly_json(f) for f in data.nonrational_factors],
        "apparent_singularity_candidate": data.apparent_candidate,
    }


def profile_json(profile: local_analysis.OperatorProfile) -> dict:
    return {
        "operator": operator_text(profile.operator),
        "order": profile.operator.order,
        "basis": profile.operator.basis.value,
        "points": [indicial_json(pt) for pt in profile.points],
        "fuchsian": profile.fuchsian,
        "all_exponents_rational": profile.all_exponents_rational,
        "katz_consistent": profile.katz_consistent,
    }


def scan_json(scan: p_curvature.GlobalScan) -> dict:
    return {
        "subject": scan.subject,
        "primes": list(scan.primes),
        "reports": [
            {
                "prime": r.prime,
                "status": r.status,
                "nilpotence_index": r.nilpotence_index,
                "method_agreement": r.method_agreement,
                "detail": r.detail,
            }
            for r in scan.reports
        ],
        "verdict": scan.verdict,
    }


def trace_json(trace: growth.GalochkinTrace) -> dict:
    return {
        "T": poly_json(trace.T) | {"text": poly_text(trace.T, "z")},
        "s": list(trace.s_values),
        "q": [str(q) for q in trace.q],
        "log_q_over_s": [dec15(x) for x in trace.log_q_over_s],
    }


def bombieri_json(rep: growth.SizeRadiusReport) -> dict:
    return {
        "n": rep.n,
        "s": rep.s_max,
        "prime_bound": rep.prime_bound,
        "h_table": {str(p): frac_str(e) for p, e in rep.h_table.items()},
        "sigma_hat": exactlog_json(rep.sigma_hat),
        "rho_hat": exactlog_json(rep.rho_hat),
        "slack": dec15(rep.slack),
        "lower_ok": rep.lower_ok,
        "upper_ok": rep.upper_ok,
        "sandwich_ok": rep.sandwich_ok,
    }


# ---------------------------------------------------------------------------
# input resolution


def _parse_point(text: str):
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad point {text!r}") from exc


# Bounds on the flags that set how much work a command does.  Each comment
# gives the slowest of the listed catalog entries and polylog:3 at the bound,
# one command on a 2-core x86-64 machine; higher polylog weights and larger
# operators cost more at the same bound.

# pcurv runs p·n steps of one row, mod p at q = n e + 1 integer points when
# F_p holds q of the first q + deg T + 1 points that are not roots of T, else
# on polynomials mod p (n and e as below): polylog:3 at p = 1999 took 0.8 s
PCURV_PRIME_MAX = 2000
# scan does that once for all the primes in its range, one run per point and
# one on polynomials, each modulo the product of the primes it serves:
# gauss2f1 over 2..1000 took 0.2 s
SCAN_PRIME_MAX = 1000
# both take longer with the subject's order or dimension n and with e, the
# most degree H_s gains per step (1 for polylog's chain systems, k for the
# weight-k operator), so both also bound n^2 e times p, the top of --primes
# for scan, by this times their p cap.  At the bound pcurv took 0.8 s on
# polylog:3 (p = 1999), 2.1 s on polylog:8 (139), 5.8 s on polylog:9 (89),
# 7.1 s on polylog:10 (79), 7.9 s on polylog:12 (47), 9.4 s on polylog:15
# (23) and 16.0 s on polylog:20 (7), from weight 10 up every prime below the
# pool, on polynomials; scan took 1.2 s on polylog:3's operator (2..1000),
# 2.1 s on polylog:8 (2..592) and 2.8 s on polylog:10 (2..396)
ORDER_WEIGHT_MAX = 48
# galochkin and radius run smax, size and bombieri s, integer steps of the
# rows of H_s, kept as primitive parts, only the row e_0 on a companion
# system; size and bombieri then read each prime p <= s off q_s and r_s, one
# valuation each.  At 500, galochkin, size, bombieri and radius each took
# 1.0-1.4 s and 113 MB peak RSS on polylog:3's 4 x 4 chain system, and
# galochkin, size and bombieri 0.6-0.8 s and 65 MB on gauss2f1
S_MAX = 500
# each of those steps costs more with the system dimension n, so all four
# commands also bound n·s: at n·s near the bound, each of them on polylog:3,
# 5, 10, 20 and 30 took 1.6-2.4 s and at most 120 MB peak RSS (polylog:30's
# entry alone takes 1.4 s to build); galochkin on polylog:10 at smax 300, n·s
# 3300, took 5.7 s and 376 MB
GROWTH_NS_MAX = 2000
# pade solves n·M order conditions in N + 1 unknowns over Q, n the system
# dimension: polylog:3 at N 200 took 0.5-0.7 s with M 6 and 3.6-4.7 s with
# M 20, most of it in that solve
PADE_N_MAX = 200
PADE_M_MAX = 20


def _parse_primes(text: str) -> list[int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad prime range {text!r}, expected a..b") from exc
    _check_at_most("the top of --primes", hi, SCAN_PRIME_MAX)
    primes = [p for p in primes_upto(hi) if p >= lo]
    if not primes:
        raise UsageError(f"the range --primes {text} holds no prime")
    return primes


def _check_prime(p: int) -> None:
    if p >= PRIME_CHECK_BOUND:
        raise UsageError(f"--prime must be below {PRIME_CHECK_BOUND}, got {p}")
    if not is_prime(p):
        raise UsageError(f"--prime must be a prime number, got {p}")


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError(f"{name} must be >= {least}, got {value}")


def _check_at_most(name: str, value: int, most: int) -> None:
    if value > most:
        raise UsageError(f"{name} must be <= {most}, got {value}")


def _check_growth_work(flag: str, s: int, g: RatMat) -> None:
    _check_at_most(f"{flag} times the system dimension {g.n}", g.n * s, GROWTH_NS_MAX)


def _check_prime_work(flag: str, p: int, cap: int, g: RatMat) -> None:
    e = p_curvature.degree_growth(growth.cleared_system(g))
    weight = f"n^2 e, for the order or dimension n = {g.n} and the degree growth per step e = {e},"
    _check_at_most(f"{flag} times {weight}", g.n**2 * e * p, ORDER_WEIGHT_MAX * cap)


def _catalog_entry(entry_id: Optional[str]) -> catalog.CatalogEntry:
    if not entry_id:
        raise UsageError("need a catalog id")
    try:
        return catalog.catalog_get(entry_id)
    except KeyError as exc:
        known = ", ".join(catalog.catalog_ids() + ["polylog:<s>"])
        raise UsageError(f"unknown catalog id {entry_id!r}; known: {known}") from exc
    except ValueError as exc:
        raise UsageError(f"bad catalog id {entry_id!r}: {exc}") from exc


def _resolve_operator(args) -> tuple[str, DiffOp]:
    if getattr(args, "catalog", None):
        entry = _catalog_entry(args.catalog)
        return entry.id, entry.operator
    if getattr(args, "expr", None):
        op = parse_operator(args.expr)
        if op.order < 1:
            raise UsageError("expression has no derivation symbol")
        return args.expr, op
    raise UsageError("need an operator expression or --catalog ID")


def _resolve_system(args) -> tuple[str, RatMat]:
    if getattr(args, "catalog", None):
        entry = _catalog_entry(args.catalog)
        return entry.id, companion(entry.operator) if entry.system is None else entry.system
    label, op = _resolve_operator(args)
    return label, companion(op)


def _series_integer(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def _load_series_file(path: str) -> list[TruncatedSeries]:
    """The series vector of a JSON file {"trunc_order": N, "components":
    [[[num, den], ...], ...]}, integers given as JSON integers or strings;
    UsageError for a file that cannot be read or does not have that shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        order = data["trunc_order"]
        components = [
            [Fraction(_series_integer(num), _series_integer(den)) for num, den in comp]
            for comp in data["components"]
        ]
    except OSError as exc:
        raise UsageError(f"cannot read series file {path!r}: {exc.strerror}") from exc
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed series file {path!r}: {type(exc).__name__}: {exc}") from exc
    if not components:
        raise UsageError("series file has no components")
    if any(len(coeffs) != order for coeffs in components):
        raise UsageError("component length does not match trunc_order")
    return [TruncatedSeries(coeffs) for coeffs in components]


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args) -> dict:
    label, op = _resolve_operator(args)
    return {"input": label, "profile": profile_json(local_analysis.classify_operator(op))}


def _cmd_exponents(args) -> dict:
    label, op = _resolve_operator(args)
    point = _parse_point(args.point)
    rationals, leftovers = local_analysis.exponents(op, point)
    return {
        "input": label,
        "point": "inf" if is_infinity(point) else frac_str(point),
        "rational_exponents": [frac_str(e) for e in rationals],
        "nonrational_factors": [poly_json(f) for f in leftovers],
    }


def _cmd_pcurv(args) -> dict:
    # single-prime detail: BadPrime propagates (exit 2), unlike in scans
    _check_prime(args.prime)
    _check_at_most("--prime", args.prime, PCURV_PRIME_MAX)
    label, op = _resolve_operator(args)
    _check_prime_work("--prime", args.prime, PCURV_PRIME_MAX, companion(op))
    report = p_curvature.prime_report(op, args.prime)
    return {
        "input": label,
        "prime": args.prime,
        "status": report.status,
        "nilpotence_index": report.nilpotence_index,
        "method_agreement": report.method_agreement,
    }


def _cmd_scan(args) -> dict:
    primes = _parse_primes(args.primes)
    if getattr(args, "catalog", None):
        entry = _catalog_entry(args.catalog)
        label, subject = entry.id, entry.operator if entry.system is None else entry.system
    else:
        label, subject = _resolve_operator(args)
    g = subject if isinstance(subject, RatMat) else companion(subject)
    _check_prime_work("the top of --primes", max(primes), SCAN_PRIME_MAX, g)
    return scan_json(p_curvature.global_scan(subject, primes, subject_id=label))


def _cmd_galochkin(args) -> dict:
    _check_at_least("--smax", args.smax, 1)
    _check_at_most("--smax", args.smax, S_MAX)
    label, g = _resolve_system(args)
    _check_growth_work("--smax", args.smax, g)
    trace = growth.galochkin_trace(g, args.smax)
    return {"input": label} | trace_json(trace)


def _cmd_size(args) -> dict:
    _check_at_least("--s", args.s, 1)
    _check_at_most("--s", args.s, S_MAX)
    _check_at_least("--prime-bound", args.prime_bound, 2)
    label, g = _resolve_system(args)
    _check_growth_work("--s", args.s, g)
    value = growth.size_estimate(g, args.s, args.prime_bound)
    return {
        "input": label,
        "s": args.s,
        "prime_bound": args.prime_bound,
        "sigma_hat": exactlog_json(value),
    }


def _cmd_radius(args) -> dict:
    _check_prime(args.prime)
    label, g = _resolve_system(args)
    # the Hadamard window starts at the system order
    _check_at_least("--smax", args.smax, g.n)
    _check_at_most("--smax", args.smax, S_MAX)
    _check_growth_work("--smax", args.smax, g)
    value = growth.radius_estimate(g, args.prime, args.smax)
    return {
        "input": label,
        "prime": args.prime,
        "s_max": args.smax,
        "rho_p_hat": exactlog_json({args.prime: value} if value else {}),
    }


def _cmd_bombieri(args) -> dict:
    _check_at_least("--s", args.s, 1)
    _check_at_most("--s", args.s, S_MAX)
    _check_at_least("--prime-bound", args.prime_bound, 2)
    if not math.isfinite(args.slack):
        raise UsageError(f"--slack must be a finite number, got {args.slack}")
    label, g = _resolve_system(args)
    _check_growth_work("--s", args.s, g)
    rep = growth.bombieri_report(g, args.s, args.prime_bound, slack=args.slack)
    return {"input": label} | bombieri_json(rep)


def _cmd_pade(args) -> dict:
    _check_at_least("--N", args.N, 0)
    _check_at_least("--M", args.M, 0)
    _check_at_most("--N", args.N, PADE_N_MAX)
    _check_at_most("--M", args.M, PADE_M_MAX)
    if args.series:
        f = _load_series_file(args.series)
        q, ps = pade.pade_type2(f, args.N, args.M)
        res = pade.residual_order(q, ps, f)
        return {
            "input": args.series,
            "N": args.N,
            "M": args.M,
            "Q": poly_json(q) | {"text": poly_text(q, "z")},
            "P": [poly_json(p) | {"text": poly_text(p, "z")} for p in ps],
            "residual_order": res,
            "siegel": _siegel_json(pade.siegel_bound_report(f, args.N, args.M)),
        }
    entry = _catalog_entry(args.catalog) if args.catalog else None
    if entry is None or entry.system is None:
        raise UsageError("pade needs --series FILE or a --catalog entry with a system")
    order = args.N + args.M + 8
    f = [gen.series(order) for gen in entry.components]
    system = pade.build_pade_system(f, entry.system, args.N, args.M)
    return {
        "input": entry.id,
        "N": system.big_n,
        "M": system.big_m,
        "Q": poly_json(system.q) | {"text": poly_text(system.q, "z")},
        "P": [poly_json(p) | {"text": poly_text(p, "z")} for p in system.p],
        "T": poly_json(system.t) | {"text": poly_text(system.t, "z")},
        "residual_order": system.residual,
        "tower_degrees": [
            [p.degree for p in vec] for vec in system.tower
        ],
        "delta_degree": system.delta.degree,
        "delta_is_zero": system.delta.is_zero(),
        "siegel": _siegel_json(system.siegel),
    }


def _siegel_json(data: dict) -> dict:
    return {
        "equations": data["equations"],
        "unknowns": data["unknowns"],
        "height": str(data["height"]),
        "denominator_scale": str(data["denominator_scale"]),
        "bound": dec15(data["bound"]),
    }


def _cmd_catalog(args) -> dict:
    if args.action == "list":
        return {
            "entries": [
                {
                    "id": e.id,
                    "description": e.description,
                    "order": e.operator.order,
                    "has_system": e.system is not None,
                }
                for e in catalog.CATALOG.values()
            ]
        }
    entry = _catalog_entry(args.id)
    return {
        "id": entry.id,
        "description": entry.description,
        "operator": operator_text(entry.operator),
        "order": entry.operator.order,
        "basis": entry.operator.basis.value,
        "system_dimension": None if entry.system is None else entry.system.n,
        "ordinary_point": frac_str(entry.ordinary_point),
    }


_COMMANDS = {
    "classify": _cmd_classify,
    "exponents": _cmd_exponents,
    "pcurv": _cmd_pcurv,
    "scan": _cmd_scan,
    "galochkin": _cmd_galochkin,
    "size": _cmd_size,
    "radius": _cmd_radius,
    "bombieri": _cmd_bombieri,
    "pade": _cmd_pade,
    "catalog": _cmd_catalog,
}


# the command line: command -> (positionals, flags).  A positional ending in
# "?" may be left out; a flag maps to (type, default), and the default ...
# marks a required flag.  Each sets the attribute of its name, without the
# leading dashes and with "_" for "-" ("--prime-bound" sets prime_bound).
_OPERAND = {"--catalog": (str, None)}
_SYNTAX = {
    "classify": (("expr?",), _OPERAND),
    "exponents": (("expr?",), _OPERAND | {"--point": (str, ...)}),
    "pcurv": (("expr?",), _OPERAND | {"--prime": (int, ...)}),
    "scan": (("expr?",), _OPERAND | {"--primes": (str, "2..50")}),
    "galochkin": (("expr?",), _OPERAND | {"--smax": (int, 30)}),
    "size": (("expr?",), _OPERAND | {"--s": (int, ...), "--prime-bound": (int, ...)}),
    "radius": (("expr?",), _OPERAND | {"--prime": (int, ...), "--smax": (int, ...)}),
    "bombieri": (("expr?",), _OPERAND | {"--s": (int, ...), "--prime-bound": (int, ...), "--slack": (float, 0.3)}),
    "pade": ((), {"--series": (str, None), "--catalog": (str, None), "--N": (int, ...), "--M": (int, ...)}),
    "catalog": (("action", "id?"), {}),
}
_TOP_FLAGS = {"--format": (str, "json")}
_CHOICES = {"format": ("json", "text"), "action": ("list", "get"), "command": tuple(_SYNTAX)}
# as for argparse, a word with a space or a negative number is never a flag
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _is_flag(word: str) -> bool:
    return len(word) > 1 and word[0] == "-" and " " not in word and not _NEGATIVE_NUMBER.fullmatch(word)


def _attr(name: str) -> str:
    return name.lstrip("-").replace("-", "_").rstrip("?")


def _choice(name: str, value):
    if value not in _CHOICES.get(_attr(name), (value,)):
        raise UsageError(f"argument {_attr(name)}: invalid choice: {value!r}")
    return value


def _usage(command: str = "") -> str:
    lines = [f"usage: gop [--format {{json,text}}] {command or 'COMMAND'} ..."]
    for name in [command] if command else _SYNTAX:
        positionals, flags = _SYNTAX[name]
        words = ["{" + ",".join(_CHOICES[p]) + "}" if p in _CHOICES else f"[{_attr(p).upper()}]" for p in positionals]
        words += [f"{f} {_attr(f).upper()}" if d is ... else f"[{f} {_attr(f).upper()}]" for f, (_, d) in flags.items()]
        lines.append("  " + " ".join([name, *words]))
    return "\n".join(lines)


def _parse_args(argv, args) -> bool:
    """Set args.format, args.command and the command's attributes from argv
    by _SYNTAX; False when -h or --help printed the usage instead.  A
    malformed line raises UsageError, args.command set as soon as the
    command is read.  Unknown flags and extra positionals are reported only
    at the end, so that a later --help still prints the usage."""
    args.format, positionals, flags = "json", (), _TOP_FLAGS
    free, extra = [], []

    def positional(word):
        free.append(_choice(positionals[len(free)], word) if len(free) < len(positionals) else word)

    words = iter(argv)
    for word in words:
        name, eq, value = word.partition("=")
        if word in ("-h", "--help"):
            print(_usage(args.command))
            return False
        if name in flags:
            kind = flags[name][0]
            try:
                value = value if eq else next(words)
                setattr(args, _attr(name), _choice(name, kind(value)))
            except (StopIteration, ValueError):
                raise UsageError(f"argument {name}: expected one {kind.__name__} value") from None
        elif word == "--" and positionals:
            for word in words:
                positional(word)
        elif _is_flag(word) and (word != "--" or args.command):
            extra.append(word)
        elif not args.command:
            args.command = _choice("command", word)
            positionals, flags = _SYNTAX[word]
        else:
            positional(word)
    if not args.command:
        raise UsageError("the following arguments are required: COMMAND")
    missing = [p for p in positionals[len(free):] if not p.endswith("?")]
    missing += [f for f, (_, d) in flags.items() if d is ... and not hasattr(args, _attr(f))]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    for name, value in zip(positionals, free + [None] * len(positionals)):
        setattr(args, _attr(name), value)
    for name, (_, default) in flags.items():
        vars(args).setdefault(_attr(name), default)
    if extra or free[len(positionals):]:
        raise UsageError(f"unrecognized arguments: {' '.join(extra + free[len(positionals):])}")
    return True


def _render_text(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def run_command(argv, emit=None) -> tuple[int, dict]:
    """Dispatch one command; returns (exit code, envelope).  With emit, the
    envelope is also rendered in the --format the command line asks for and
    handed to emit as one string."""
    # the command is recorded as soon as the parser reads it, so an error in
    # its arguments names it and an earlier error names none
    args = types.SimpleNamespace(command="")
    try:
        if not _parse_args(argv, args):
            return 0, {}
    except UsageError as exc:
        code, envelope = 1, _error_envelope(args.command, exc)
    else:
        code, envelope = _dispatch(args)
    if emit is not None:
        if args.format == "text":
            emit("\n".join(_render_text(envelope)))
        else:
            emit(json.dumps(envelope, indent=2))
    return code, envelope


def _dispatch(args) -> tuple[int, dict]:
    started = time.perf_counter()
    try:
        result = _COMMANDS[args.command](args)
    except UsageError as exc:
        return 1, _error_envelope(args.command, exc)
    except DomainError as exc:
        return 2, _error_envelope(args.command, exc) | {"error_kind": type(exc).__name__}
    except Exception as exc:
        # a fault of gop's own: one envelope on stdout, its traceback on stderr
        import traceback

        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        return 2, _error_envelope(args.command, error) | {"error_kind": "InternalError"}
    envelope = {
        "tool": "gop",
        "version": __version__,
        "command": args.command,
        "result": result,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }
    return 0, envelope


def _error_envelope(command: str, error) -> dict:
    return {"tool": "gop", "version": __version__, "command": command, "error": str(error)}


def main(argv=None) -> int:
    """Run one command and print its envelope; returns the exit code, or 1
    when stdout is closed before the envelope is written (`gop ... | head`)."""
    try:
        code, _ = run_command(sys.argv[1:] if argv is None else argv, emit=print)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointed at devnull, that flush
        # cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
