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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from . import __version__
from .catalog import CATALOG, CatalogEntry, catalog_get, catalog_ids
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
from .growth import (
    ExactLog,
    GalochkinTrace,
    SizeRadiusReport,
    bombieri_report,
    galochkin_trace,
    radius_estimate,
    size_estimate,
)
from .local_analysis import IndicialData, OperatorProfile, classify_operator, exponents
from .p_curvature import GlobalScan, global_scan, prime_report
from .pade import build_pade_system, pade_type2, residual_order, siegel_bound_report


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


def exactlog_json(v: ExactLog) -> dict:
    return {
        "terms": [[p, frac_str(e)] for p, e in v.terms.items()],
        "decimal": dec15(v.to_float()),
    }


def location_json(loc) -> object:
    if is_infinity(loc):
        return "inf"
    if isinstance(loc, Poly):
        return {"algebraic_class": poly_json(loc)}
    return frac_str(loc)


def indicial_json(data: IndicialData) -> dict:
    return {
        "location": location_json(data.point.location),
        "regular": data.point.regular,
        "pole_profile": [list(x) for x in data.point.pole_profile],
        "indicial_polynomial": None if data.phi is None else poly_json(data.phi),
        "rational_exponents": [frac_str(e) for e in data.rational_exponents],
        "nonrational_factors": [poly_json(f) for f in data.nonrational_factors],
        "apparent_singularity_candidate": data.apparent_candidate,
    }


def profile_json(profile: OperatorProfile) -> dict:
    return {
        "operator": operator_text(profile.operator),
        "order": profile.operator.order,
        "basis": profile.operator.basis.value,
        "points": [indicial_json(pt) for pt in profile.points],
        "fuchsian": profile.fuchsian,
        "all_exponents_rational": profile.all_exponents_rational,
        "katz_consistent": profile.katz_consistent,
    }


def scan_json(scan: GlobalScan) -> dict:
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


def trace_json(trace: GalochkinTrace) -> dict:
    return {
        "T": poly_json(trace.T) | {"text": poly_text(trace.T, "z")},
        "s": list(trace.s_values),
        "q": [str(q) for q in trace.q],
        "log_q_over_s": [dec15(x) for x in trace.log_q_over_s],
    }


def bombieri_json(rep: SizeRadiusReport) -> dict:
    return {
        "n": rep.n,
        "s": rep.s_max,
        "prime_bound": rep.prime_bound,
        "h_table": {str(p): frac_str(e) for p, e in sorted(rep.h_table.items()) if e},
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

# pcurv runs p·n steps of one row mod p, the step at index s O(s): polylog:3
# at p = 1999 took 9.1-9.2 s
PCURV_PRIME_MAX = 2000
# scan does that once for all the primes in its range, on one run modulo their
# product, steps of O(s) operations on integers of up to that product's size:
# gauss2f1 over 2..1000 took 4.1 s
SCAN_PRIME_MAX = 1000
# galochkin and radius run smax integer steps and keep every H_s: galochkin on
# gauss2f1 at smax 500 took 7.2 s and 254 MB peak RSS
SMAX_MAX = 500
# size and bombieri run s of those steps and then read each prime p <= s off
# every H_m: bombieri on gauss2f1 at s 500 took 6.2 s and 255 MB peak RSS
S_MAX = 500
# pade solves n·M order conditions in N + 1 unknowns over Q, n the system
# dimension: polylog:3 at N 200 took 3.1 s with M 6 and 8.4 s with M 20
PADE_N_MAX = 200
PADE_M_MAX = 20


def _parse_primes(text: str) -> list[int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad prime range {text!r}, expected a..b") from exc
    _check_at_most("the top of --primes", hi, SCAN_PRIME_MAX)
    return [p for p in primes_upto(hi) if p >= lo]


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


def _catalog_entry(entry_id: Optional[str]) -> CatalogEntry:
    if not entry_id:
        raise UsageError("need a catalog id")
    try:
        return catalog_get(entry_id)
    except KeyError as exc:
        known = ", ".join(catalog_ids() + ["polylog:<s>"])
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
        if entry.system is not None:
            return entry.id, entry.system
        return entry.id, companion(entry.operator)
    if getattr(args, "expr", None):
        return args.expr, companion(parse_operator(args.expr))
    raise UsageError("need an operator expression or --catalog ID")


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
    return {"input": label, "profile": profile_json(classify_operator(op))}


def _cmd_exponents(args) -> dict:
    label, op = _resolve_operator(args)
    point = _parse_point(args.point)
    rationals, leftovers = exponents(op, point)
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
    report = prime_report(op, args.prime)
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
        subject = entry.operator if entry.system is None else entry.system
        scan = global_scan(subject, primes, subject_id=entry.id)
    else:
        label, op = _resolve_operator(args)
        scan = global_scan(op, primes, subject_id=label)
    return scan_json(scan)


def _cmd_galochkin(args) -> dict:
    _check_at_least("--smax", args.smax, 1)
    _check_at_most("--smax", args.smax, SMAX_MAX)
    label, g = _resolve_system(args)
    trace = galochkin_trace(g, args.smax)
    return {"input": label} | trace_json(trace)


def _cmd_size(args) -> dict:
    _check_at_least("--s", args.s, 1)
    _check_at_most("--s", args.s, S_MAX)
    label, g = _resolve_system(args)
    value = size_estimate(g, args.s, args.prime_bound)
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
    _check_at_most("--smax", args.smax, SMAX_MAX)
    value = radius_estimate(g, args.prime, args.smax)
    return {
        "input": label,
        "prime": args.prime,
        "s_max": args.smax,
        "rho_p_hat": exactlog_json(value),
    }


def _cmd_bombieri(args) -> dict:
    _check_at_least("--s", args.s, 1)
    _check_at_most("--s", args.s, S_MAX)
    if not math.isfinite(args.slack):
        raise UsageError(f"--slack must be a finite number, got {args.slack}")
    label, g = _resolve_system(args)
    rep = bombieri_report(g, args.s, args.prime_bound, slack=args.slack)
    return {"input": label} | bombieri_json(rep)


def _cmd_pade(args) -> dict:
    _check_at_least("--N", args.N, 0)
    _check_at_least("--M", args.M, 0)
    _check_at_most("--N", args.N, PADE_N_MAX)
    _check_at_most("--M", args.M, PADE_M_MAX)
    if args.series:
        f = _load_series_file(args.series)
        q, ps = pade_type2(f, args.N, args.M)
        res = residual_order(q, ps, f)
        return {
            "input": args.series,
            "N": args.N,
            "M": args.M,
            "Q": poly_json(q) | {"text": poly_text(q, "z")},
            "P": [poly_json(p) | {"text": poly_text(p, "z")} for p in ps],
            "residual_order": res,
            "siegel": _siegel_json(siegel_bound_report(f, args.N, args.M)),
        }
    entry = _catalog_entry(args.catalog) if args.catalog else None
    if entry is None or entry.system is None:
        raise UsageError("pade needs --series FILE or a --catalog entry with a system")
    order = args.N + args.M + 8
    f = [gen.series(order) for gen in entry.components]
    system = build_pade_system(f, entry.system, args.N, args.M)
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
                for e in CATALOG.values()
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


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gop", description="exact analysis of linear differential operators over Q(z)")
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
    try:
        args = _build_argparser().parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code == 0 else 1), {}
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
        return 1, {
            "tool": "gop",
            "version": __version__,
            "command": args.command,
            "error": str(exc),
        }
    except DomainError as exc:
        return 2, {
            "tool": "gop",
            "version": __version__,
            "command": args.command,
            "error": str(exc),
            "error_kind": type(exc).__name__,
        }
    envelope = {
        "tool": "gop",
        "version": __version__,
        "command": args.command,
        "result": result,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }
    return 0, envelope


def main(argv=None) -> int:
    code, _ = run_command(sys.argv[1:] if argv is None else argv, emit=print)
    return code


if __name__ == "__main__":
    sys.exit(main())
