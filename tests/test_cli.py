"""Expression grammar, report schemas, golden files, exit codes."""

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import types
from decimal import Decimal, localcontext
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import validate

import gop
from gop import cli
from gop.catalog import CATALOG, hypergeom_operator
from gop.cli import (
    GROWTH_NS_MAX,
    ORDER_WEIGHT_MAX,
    PADE_M_MAX,
    PADE_N_MAX,
    PCURV_PRIME_MAX,
    S_MAX,
    SCAN_PRIME_MAX,
    main,
    operator_text,
    parse_operator,
    run_command,
)
from gop.diffop import Basis, DiffOp
from gop.errors import DomainError, MixedBasisError, ParseError, UsageError
from gop.exact_arith import Poly, RatFn, is_prime
from gop.local_analysis import APPARENT_ORDER_MAX
from oracles import argparse_reading

GOLDEN_DIR = Path(__file__).parent / "golden"
BENCH_INVOCATIONS = Path(__file__).resolve().parents[1] / "bench" / "invocations.py"

GOLDEN_CASES = {
    "classify_theta2m2": ["classify", "--catalog", "theta2m2"],
    "classify_polylog1": ["classify", "--catalog", "polylog:1"],
    "exponents_gauss_inf": ["exponents", "--catalog", "gauss2f1", "--point", "inf"],
    "pcurv_polylog2_p5": ["pcurv", "--catalog", "polylog:2", "--prime", "5"],
    "scan_dm1": ["scan", "--catalog", "d-minus-1", "--primes", "2..20"],
    "scan_polylog2": ["scan", "--catalog", "polylog:2", "--primes", "2..20"],
    "scan_gauss2f1": ["scan", "--catalog", "gauss2f1", "--primes", "2..60"],
    "scan_theta2m2": ["scan", "--catalog", "theta2m2", "--primes", "2..40"],
    "galochkin_polylog1": ["galochkin", "--catalog", "polylog:1", "--smax", "12"],
    "size_polylog1": ["size", "--catalog", "polylog:1", "--s", "12", "--prime-bound", "13"],
    "radius_polylog1": ["radius", "--catalog", "polylog:1", "--prime", "2", "--smax", "16"],
    "bombieri_polylog1": ["bombieri", "--catalog", "polylog:1", "--s", "20", "--prime-bound", "23"],
    "pade_polylog2": ["pade", "--catalog", "polylog:2", "--N", "12", "--M", "4"],
    "catalog_list": ["catalog", "list"],
    "catalog_get_polylog1": ["catalog", "get", "polylog:1"],
}


def _load_bench_invocations():
    spec = importlib.util.spec_from_file_location("bench_invocations", BENCH_INVOCATIONS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds the classes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_schema(command):
    with resources.files("gop.schemas").joinpath(f"{command}.json").open() as fh:
        return json.load(fh)


def validate_usage_error(env):
    validate(env, load_schema("error"))
    assert "error_kind" not in env, env


def validate_domain_error(env, kind):
    validate(env, load_schema("error"))
    assert env["error_kind"] == kind, env


# -- grammar


def test_parse_examples():
    li1 = parse_operator("(1-z)*D^2 - D")
    assert li1.order == 2 and li1.basis is Basis.D
    th = parse_operator("theta^2 - 2")
    assert th == DiffOp(Basis.THETA, [-2, 0, 1])
    gauss = parse_operator("theta*(theta) - z*(theta+1/2)^2")
    assert gauss == hypergeom_operator([Fraction(1, 2), Fraction(1, 2)], [1])


def test_parse_scalars_and_precedence():
    op = parse_operator("2*D + 3*D")
    assert op == parse_operator("5*D")
    assert parse_operator("1/2*z*D") == parse_operator("(z/2)*D")
    assert parse_operator("D*z") == parse_operator("z*D + 1")
    assert parse_operator("-D + D").is_zero()


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_operator("D + $")
    assert err.value.column == 4
    with pytest.raises(ParseError):
        parse_operator("D D")
    with pytest.raises(ParseError):
        parse_operator("(D")
    with pytest.raises(MixedBasisError):
        parse_operator("D + theta")


def test_parse_division_errors():
    # "/" needs operands of order <= 0; D - D is the zero operator
    for text, message, column in [("D/z", "division needs scalar operands", 1),
                                  ("(D)/2", "division needs scalar operands", 3),
                                  ("2/(D-D)", "division by zero", 1)]:
        with pytest.raises(ParseError, match=message) as err:
            parse_operator(text)
        assert err.value.column == column, text


def test_parse_against_coefficients():
    z_third = RatFn(Poly([Fraction(-1, 3), 1]))
    cases = {
        "-z*D": DiffOp(Basis.D, [0, -RatFn.Z]),
        "z^0*D": DiffOp(Basis.D, [0, 1]),
        "2^3/4*D": DiffOp(Basis.D, [0, 2]),
        "theta^0": DiffOp(Basis.THETA, [1]),
        "(z-1/3)^40*D^2+1": DiffOp(Basis.D, [1, 0, z_third**40]),
    }
    for text, want in cases.items():
        assert parse_operator(text) == want, text


def test_roundtrip_catalog_operators():
    for entry in CATALOG.values():
        text = operator_text(entry.operator)
        assert parse_operator(text) == entry.operator


# -- dispatch and formats


def test_golden_files():
    for name, argv in GOLDEN_CASES.items():
        code, env = run_command(argv)
        assert code == 0, name
        env["timing_ms"] = 0
        want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert env == want, name


def test_schema_validation():
    for name, argv in GOLDEN_CASES.items():
        code, env = run_command(argv)
        assert code == 0
        validate(env, load_schema(env["command"]))


def test_exit_codes():
    code, _ = run_command(["classify", "theta^2 - 2"])
    assert code == 0
    code, env = run_command(["classify", "bogus("])
    assert code == 1 and "error" in env
    code, env = run_command(["pcurv", "D - 1/(2*z)", "--prime", "2"])
    assert code == 2 and env["error_kind"] == "BadPrime"
    validate_domain_error(env, "BadPrime")
    code, env = run_command(["exponents", "D - 1", "--point", "inf"])
    assert code == 2 and env["error_kind"] == "IrregularPoint"
    validate_domain_error(env, "IrregularPoint")
    code, env = run_command(["scan", "--primes", "bad"])
    assert code == 1
    validate_usage_error(env)


def test_error_schema_names_every_domain_error():
    kinds = load_schema("error")["properties"]["error_kind"]["enum"]
    domain = {cls.__name__ for cls in DomainError.__subclasses__()}
    assert set(kinds) == domain | {"InternalError"} and len(kinds) == len(set(kinds))


def test_unexpected_exception_gives_an_internal_error_envelope(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("a fault of the command itself")

    monkeypatch.setitem(cli._COMMANDS, "classify", broken)
    code, env = run_command(["classify", "D"])
    assert code == 2 and env["command"] == "classify"
    validate_domain_error(env, "InternalError")
    assert env["error"] == "RuntimeError: a fault of the command itself"
    assert "Traceback" in capsys.readouterr().err
    assert main(["classify", "D"]) == 2
    out = capsys.readouterr()
    validate_domain_error(json.loads(out.out), "InternalError")
    assert "RuntimeError" in out.err


def test_scan_badprime_inline_not_fatal():
    code, env = run_command(["scan", "D - 1/(2*z)", "--primes", "2..7"])
    assert code == 0
    by_p = {r["prime"]: r for r in env["result"]["reports"]}
    assert by_p[2]["status"] == "BadPrime"
    assert env["result"]["verdict"] == "AllGoodNilpotent"


def test_series_file_pade(tmp_path):
    data = {
        "trunc_order": 12,
        "components": [[["1", "1"] for _ in range(12)]],
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(data))
    code, env = run_command(["pade", "--series", str(path), "--N", "1", "--M", "1"])
    assert code == 0
    assert env["result"]["Q"]["coeffs"] == ["1", "-1"]
    assert env["result"]["P"][0]["coeffs"] == ["1"]
    validate(env, load_schema("pade"))


def test_malformed_series_file_is_usage_error(tmp_path):
    def entries(**changed):
        return {"trunc_order": 3, "components": [[["1", "1"], ["1", "2"], ["1", "3"]]]} | changed

    files = {
        "invalid.json": "{not json",
        "zero-den.json": json.dumps(entries(components=[[["1", "1"], ["1", "0"], ["1", "3"]]])),
        "no-key.json": json.dumps({"components": entries()["components"]}),
        "non-integer.json": json.dumps(entries(components=[[["1", "1"], ["1/2", "1"], ["1", "3"]]])),
        "float.json": json.dumps(entries(components=[[["1", "1"], [1.5, 1], ["1", "3"]]])),
        "no-components.json": json.dumps(entries(components=[])),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for name in ["missing.json"] + list(files):
        code, env = run_command(["pade", "--series", str(tmp_path / name), "--N", "1", "--M", "1"])
        assert code == 1 and "error" in env, name


def test_text_format(capsys):
    rc = main(["--format", "text", "exponents", "theta^2 - 2", "--point", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rational_exponents" in out and "{" not in out
    # --format is a flag of the line before the command: an unknown value is
    # a usage error, raised before the parser reaches the command
    rc = main(["--format", "xml", "classify", "D"])
    env = json.loads(capsys.readouterr().out)
    assert rc == 1 and env["command"] == "" and "xml" in env["error"]


def test_command_line_errors_give_usage_envelopes(capsys):
    cases = {
        ("classify", "-z*D+1"): "classify",
        ("pcurv", "--catalog", "polylog:2"): "pcurv",
        ("pcurv", "--catalog", "polylog:2", "--prime", "x"): "pcurv",
        ("frobnicate", "D"): "",
        (): "",
    }
    for argv, command in cases.items():
        code, env = run_command(list(argv))
        assert code == 1 and env["command"] == command, argv
        validate_usage_error(env)
    assert main(["classify", "-z*D+1"]) == 1
    assert json.loads(capsys.readouterr().out)["command"] == "classify"
    # --help prints the usage and succeeds, with no envelope
    assert main(["--help"]) == 0 and capsys.readouterr().out.startswith("usage: gop")


# the ways the table parser reads a line unlike the argparse parser it
# replaced (tests/oracles.py): argparse refused a flag value that starts
# with "-" unless it looked like a negative number, and took any prefix of a
# flag as the flag
PARSER_DIFFERENCES = {
    ("exponents", "D+1", "--point", "-1/2"): "value starting with -",
    ("exponents", "--catalog", "gauss2f1", "--point", "-inf"): "value starting with -",
    ("scan", "--catalog", "-polylog:2"): "value starting with -",
    ("pcurv", "D", "--prime", "--catalog"): "value starting with -",
    ("classify", "--catalog", "-h"): "value starting with -",
    ("classify", "--cat", "polylog:2"): "prefix abbreviation",
    ("size", "--catalog", "polylog:2", "--s", "5", "--prime-b", "5"): "prefix abbreviation",
    ("--form", "text", "catalog", "list"): "prefix abbreviation",
    ("--he",): "prefix abbreviation",
}


def _argvs_in_this_file() -> list[list[str]]:
    """Every list or tuple of string constants in this file that starts like
    a command line."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.List, ast.Tuple)) and node.elts:
            words = [e.value for e in node.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            if len(words) == len(node.elts) and (words[0] in cli._SYNTAX or words[0] == "--format"):
                out.append(words)
    return out


def _generated_argvs() -> list[list[str]]:
    """For each command a well-formed line and malformed variants of it."""
    sample = {int: "5", float: "0.5", str: "polylog:2"}
    out = [[], ["frobnicate", "D"], ["-h"], ["--help"], ["--format", "text"], ["--", "catalog", "list"],
           ["catalog", "lst"], ["catalog", "lst", "-h"], ["catalog", "--", "lst", "polylog:1"],
           ["catalog", "get", "--", "polylog:1"], ["catalog", "--", "get", "polylog:1"],
           ["classify", "-3"], ["classify", "-z*D + 1"], ["classify", "--", "-z*D+1"], ["classify", "D", "--", "E"],
           ["classify", "--", "--"], ["bombieri", "D", "--s", "-4", "--prime-bound", "-.5"]]
    for command, (positionals, flags) in cli._SYNTAX.items():
        free = ["D"] if positionals == ("expr?",) else ["get", "polylog:1"] if positionals else []
        required = [[flag, sample[kind]] for flag, (kind, default) in flags.items() if default is ...]
        options = [[flag, sample[kind]] for flag, (kind, _) in flags.items()]
        base = [command, *free, *(w for pair in required for w in pair)]
        out += [base, [command, *(w for pair in options for w in pair), *free],
                [command, *(f"{f}={v}" for f, v in options), *free],
                ["--format", "text", *base], ["--format=text", *base], ["--format", "xml", *base],
                [*base, "--format", "text"], [*base, "-h"], [command, "-h"], [command, "--help", "--bogus"],
                [*base, "--bogus"], [*base, "--bogus=1", "-h"], ["--bogus", *base], [*base, "extra", "more"],
                [command, *(w for pair in required for w in pair), "--", *free], ["--", *base]]
        for flag, _ in options:
            out.append([*base, flag])
            if flags[flag][0] is not str:
                out += [[*base, flag, "x"], [*base, f"{flag}=1.5x"], [*base, flag, "-7"]]
        for i in range(len(required)):
            out.append([command, *free, *(w for pair in required[:i] + required[i + 1:] for w in pair)])
    return out


def _table_reading(argv) -> tuple[str, object, str]:
    """How cli's table parser reads argv, in the form of oracles.argparse_reading."""
    args = types.SimpleNamespace(command="")
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if not cli._parse_args(argv, args):
                return "help", None, args.command
        except UsageError:
            return "error", None, args.command
    return "args", vars(args), args.command


def test_table_parser_reads_lines_as_argparse_did():
    bench = _load_bench_invocations()
    corpus = [list(inv.argv) for w in bench.WORKLOADS for seed in range(10) for inv in bench.build(w, seed)]
    corpus += _argvs_in_this_file() + _generated_argvs() + [list(argv) for argv in PARSER_DIFFERENCES]
    outcomes = set()
    for argv in corpus:
        old, new = argparse_reading(argv), _table_reading(argv)
        outcomes.add(old[0])
        if tuple(argv) not in PARSER_DIFFERENCES:
            # floats compare by repr, so that nan reads equal to nan
            assert [new[0], new[2]] == [old[0], old[2]], argv
            if old[0] == "args":
                assert {k: repr(v) for k, v in new[1].items()} == {k: repr(v) for k, v in old[1].items()}, argv
        elif PARSER_DIFFERENCES[tuple(argv)] == "value starting with -":
            assert old[0] == "error" and new[0] in ("args", "error") and new[2] == old[2], argv
        else:
            assert old[0] in ("args", "help") and new[0] == "error", argv
    assert outcomes == {"args", "help", "error"} and len(corpus) > 500


def test_json_format_default(capsys):
    rc = main(["catalog", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    parsed = json.loads(out)
    assert parsed["command"] == "catalog"


def _child_stdout(script, *args):
    """stdout of a fresh interpreter running script, killed if it hangs."""
    env = dict(os.environ, PYTHONPATH=str(Path(gop.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True, timeout=60, env=env, check=True)
    return out.stdout


def _run_in_child(cases):
    """Run each argv in one child, which is killed if it hangs; returns
    (exit code, has an error key, seconds, envelope) per case."""
    script = (
        "import json, sys, time\n"
        "from gop.cli import run_command\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    t = time.perf_counter()\n"
        "    code, env = run_command(argv)\n"
        "    print(json.dumps([code, 'error' in env, time.perf_counter() - t, env]))\n"
    )
    results = [json.loads(line) for line in _child_stdout(script, json.dumps(cases)).splitlines()]
    assert len(results) == len(cases)
    return results


# the envelope of a UsageError, exit code 1
def _assert_usage_errors(cases):
    for argv, (code, has_error, seconds, env) in zip(cases, _run_in_child(cases)):
        assert code == 1 and has_error, argv
        assert seconds < 5, argv
        validate_usage_error(env)


def test_prime_validated_at_boundary():
    # non-primes must be rejected before any arithmetic: vp_int(n, 1) never
    # ends, and mod 4 there are zero divisors; primes past the exact range of
    # is_prime are refused too
    _assert_usage_errors([[cmd, "--catalog", "polylog:2", "--prime", str(p)] + extra
                          for p in (0, 1, 4, -3, 10**25)
                          for cmd, extra in (("pcurv", []), ("radius", ["--smax", "8"]))])


def test_growth_sizes_validated_at_boundary():
    _assert_usage_errors([
        ["size", "--catalog", "polylog:2", "--s", "0", "--prime-bound", "5"],
        ["bombieri", "--catalog", "polylog:2", "--s", "0", "--prime-bound", "5"],
        ["bombieri", "--catalog", "polylog:2", "--s", "-4", "--prime-bound", "5"],
        ["galochkin", "--catalog", "polylog:2", "--smax", "0"],
        ["radius", "--catalog", "polylog:1", "--prime", "2", "--smax", "0"],
        ["radius", "--catalog", "polylog:2", "--prime", "3", "--smax", "2"],
        ["pade", "--catalog", "polylog:2", "--N", "-1", "--M", "2"],
        ["pade", "--catalog", "polylog:2", "--N", "4", "--M", "-2"],
        ["bombieri", "--catalog", "polylog:2", "--s", "4", "--prime-bound", "5", "--slack", "nan"],
        ["bombieri", "--catalog", "polylog:2", "--s", "4", "--prime-bound", "5", "--slack", "inf"],
        ["bombieri", "--catalog", "polylog:2", "--s", "4", "--prime-bound", "5", "--slack=-inf"],
        # no prime is at most a --prime-bound below 2, so the sums would be empty
        ["size", "--catalog", "polylog:2", "--s", "4", "--prime-bound", "-3"],
        ["size", "--catalog", "polylog:2", "--s", "4", "--prime-bound", "1"],
        ["bombieri", "--catalog", "polylog:2", "--s", "4", "--prime-bound", "-3"],
        ["bombieri", "--catalog", "polylog:2", "--s", "4", "--prime-bound", "0"],
    ])


def test_empty_prime_ranges_are_usage_errors():
    # a scan of no prime answered NoGoodPrime with exit 0
    _assert_usage_errors([["scan", "--catalog", "polylog:2", "--primes", "5..2"],
                          ["scan", "--catalog", "polylog:2", "--primes", "24..28"],
                          ["scan", "D - 1", "--primes", "0..1"]])


def test_catalog_ids_and_points_validated_at_boundary():
    cases = [["catalog", "get", "nope"], ["catalog", "get"], ["catalog", "get", "polylog:x"],
             ["catalog", "get", "polylog:0"], ["exponents", "--catalog", "polylog:2", "--point", "1/0"],
             ["pade", "--catalog", "nope", "--N", "3", "--M", "2"]]
    cases += [[cmd, "--catalog", "nope"] + extra for cmd, extra in (
        ("classify", []), ("exponents", ["--point", "0"]), ("pcurv", ["--prime", "3"]),
        ("scan", ["--primes", "2..5"]), ("galochkin", []), ("size", ["--s", "3", "--prime-bound", "5"]),
        ("radius", ["--prime", "3", "--smax", "5"]), ("bombieri", ["--s", "3", "--prime-bound", "5"]))]
    _assert_usage_errors(cases)


def test_work_flags_bounded_at_boundary():
    # pcurv at p near 10^18 needs about 10^18 recurrence steps and galochkin
    # at smax 10^8 as many integer steps; past each bound the command refuses
    # before any arithmetic
    above_pcurv = next(p for p in range(PCURV_PRIME_MAX + 1, 2 * PCURV_PRIME_MAX) if is_prime(p))
    _assert_usage_errors([
        ["pcurv", "--catalog", "polylog:2", "--prime", "1000000000000000009"],
        ["pcurv", "--catalog", "polylog:2", "--prime", str(above_pcurv)],
        ["scan", "--catalog", "polylog:2", "--primes", f"2..{SCAN_PRIME_MAX + 1}"],
        ["scan", "--catalog", "polylog:2", "--primes", "2..1000000000000000009"],
        ["galochkin", "--catalog", "polylog:1", "--smax", "100000000"],
        ["galochkin", "--catalog", "polylog:1", "--smax", str(S_MAX + 1)],
        ["radius", "--catalog", "polylog:1", "--prime", "2", "--smax", "100000000"],
        ["size", "--catalog", "polylog:2", "--s", "2000", "--prime-bound", "5"],
        ["size", "--catalog", "polylog:2", "--s", str(S_MAX + 1), "--prime-bound", "5"],
        ["bombieri", "--catalog", "polylog:3", "--s", str(S_MAX + 1), "--prime-bound", "5"],
        ["pade", "--catalog", "polylog:2", "--N", str(PADE_N_MAX + 1), "--M", "6"],
        ["pade", "--catalog", "polylog:2", "--N", "20", "--M", str(PADE_M_MAX + 1)],
        ["pade", "--catalog", "polylog:2", "--N", "100000000", "--M", "100000000"],
    ])


def test_apparent_singularity_order_bounded():
    # the exponents 0 and k at z = 0 make the apparent-singularity test expand
    # the series to order k + 10; k = 20000 took 3 s and 0.8 GB unbounded
    gap = APPARENT_ORDER_MAX - 9
    _assert_usage_errors([["classify", f"theta^2 - {gap}*theta + z"],
                          ["classify", "theta^2 - 20000*theta + z"]])


def test_radius_at_large_prime():
    # a prime near 10^18 is checked in microseconds, and at a prime above
    # every m <= smax each v_p(H_m) is one division of the content
    argv = ["radius", "--catalog", "polylog:2", "--prime", str(10**18 + 9), "--smax", "20"]
    [(code, has_error, seconds, env)] = _run_in_child([argv])
    assert code == 0 and not has_error
    assert seconds < 5
    assert env["result"]["rho_p_hat"]["terms"] == []


def test_galochkin_at_the_smax_cap():
    # only the row e_0 of gauss2f1's companion system is stepped, as a
    # primitive part; stepping and keeping every full H_s took 5.0 s.  size
    # and bombieri at the s cap read h and the radius off one valuation of
    # q_s and of r_s per prime.  Each command runs in a child of its own, so
    # none reuses another's stepped system
    cases = [
        ("galochkin", ["--catalog", "gauss2f1", "--smax", str(S_MAX)]),
        ("size", ["--catalog", "polylog:3", "--s", str(S_MAX), "--prime-bound", str(S_MAX)]),
        ("bombieri", ["--catalog", "polylog:3", "--s", str(S_MAX), "--prime-bound", str(S_MAX)]),
    ]
    for command, args in cases:
        [(code, has_error, seconds, env)] = _run_in_child([[command, *args]])
        assert code == 0 and not has_error, command
        assert seconds < 3, command
        validate(env, load_schema(command))


def test_growth_work_bounded_by_dimension_times_s():
    # every step of H_s costs more with the system dimension n (11 for
    # polylog:10), so s alone bounds too little: galochkin on polylog:10 at
    # smax 300 took 5.7 s and 376 MB
    s = GROWTH_NS_MAX // 11
    [(code, has_error, seconds, env)] = _run_in_child([["galochkin", "--catalog", "polylog:10", "--smax", str(s)]])
    assert code == 0 and not has_error
    assert seconds < 5
    _assert_usage_errors([
        ["galochkin", "--catalog", "polylog:10", "--smax", str(s + 1)],
        ["radius", "--catalog", "polylog:10", "--prime", "3", "--smax", str(s + 1)],
        ["size", "--catalog", "polylog:10", "--s", str(s + 1), "--prime-bound", "5"],
        ["bombieri", "--catalog", "polylog:10", "--s", str(s + 1), "--prime-bound", "5"],
    ])


def test_prime_work_bounded_by_order_and_degree_growth():
    # a run's time grows about as the square of n^2 e p, so p alone bounds
    # too little: pcurv on polylog:8 at p = 1009 took 188 s and on polylog:10 at p = 211
    # 30 s, scan on polylog:10 over 2..1000 33.5 s.  polylog:10's operator has
    # n = 11 and e = 10, its chain system n = 11 and e = 1
    p = max(q for q in range(2, ORDER_WEIGHT_MAX * PCURV_PRIME_MAX // 1210 + 1) if is_prime(q))
    above = next(q for q in range(p + 1, 2 * p) if is_prime(q))
    assert 1210 * p <= ORDER_WEIGHT_MAX * PCURV_PRIME_MAX < 1210 * above
    [(code, has_error, seconds, env)] = _run_in_child([["pcurv", "--catalog", "polylog:10", "--prime", str(p)]])
    assert code == 0 and not has_error
    assert seconds < 15
    validate(env, load_schema("pcurv"))
    top = ORDER_WEIGHT_MAX * SCAN_PRIME_MAX // 121
    above_top = next(q for q in range(top + 1, 2 * top) if is_prime(q))
    _assert_usage_errors([
        ["pcurv", "--catalog", "polylog:10", "--prime", str(above)],
        ["scan", "--catalog", "polylog:10", "--primes", f"2..{above_top}"],
        ["pcurv", "--catalog", "polylog:8", "--prime", "1009"],
        ["pcurv", "--catalog", "polylog:10", "--prime", "211"],
        ["scan", "--catalog", "polylog:10", "--primes", "2..1000"],
    ])


def test_polylog_weight_bounded_at_boundary():
    # the weight-150 operator alone takes longer than 20 s to build
    _assert_usage_errors([["catalog", "get", "polylog:150"],
                          ["scan", "--catalog", "polylog:150", "--primes", "2..5"]])


def test_growth_at_large_prime_bound():
    # h(s, p) = 0 for p > s, so primes above s cost nothing and change nothing
    small, *bigs = ([[cmd, "--catalog", "polylog:2", "--s", "5", "--prime-bound", bound]
                     for cmd in ("size", "bombieri")] for bound in ("5", "3000000", str(10**18)))
    want = _run_in_child(small)
    for big in bigs:
        for (code, _, seconds, env), (_, _, _, ref) in zip(_run_in_child(big), want):
            assert code == 0 and seconds < 5
            for key in ("sigma_hat", "rho_hat", "h_table", "sandwich_ok"):
                assert env["result"].get(key) == ref["result"].get(key), key


def test_pade_determinant_polynomial_in_dimension():
    # Delta of the weight-7 tower is an 8 x 8 polynomial determinant; a
    # cofactor expansion (8! terms) took 46 s here
    argv = ["pade", "--catalog", "polylog:7", "--N", "20", "--M", "2"]
    [(code, has_error, seconds, env)] = _run_in_child([argv])
    assert code == 0 and not has_error
    assert seconds < 10
    validate(env, load_schema("pade"))


def test_siegel_bound_past_float_range():
    code, env = run_command(["pade", "--catalog", "polylog:2", "--N", "40", "--M", "12"])
    assert code == 0
    validate(env, load_schema("pade"))
    siegel = env["result"]["siegel"]
    u, m, height = siegel["unknowns"], siegel["equations"], int(siegel["height"])
    with localcontext() as ctx:
        ctx.prec = 40
        exact = Decimal(u * height) ** (Decimal(m) / (u - m))
        assert abs(Decimal(siegel["bound"]) / exact - 1) < Decimal("1e-13")
    assert siegel["bound"] == "1.21821593487488e+321"


def test_cli_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect and ast, ~11 ms of every child's start
    script = "import sys\nimport gop.cli\nprint('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    assert _child_stdout(script).split() == ["False", "False"]


def test_numpy_loaded_only_by_the_mod_p_engine():
    # the mod-p engine steps lists until the process has done about one numpy
    # import's worth of list work, and numpy blocks from then on; a single
    # prime runs modulo that prime, where int64 blocks hold
    script = (
        "import contextlib, io, sys\n"
        "import gop.cli\n"
        "print('numpy' in sys.modules)\n"
        "for argv in (['bombieri', '--catalog', 'polylog:2', '--s', '20', '--prime-bound', '20'],\n"
        "             ['scan', '--catalog', 'polylog:2', '--primes', '2..5'],\n"
        "             ['pcurv', '--catalog', 'polylog:3', '--prime', '101']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert gop.cli.main(argv) == 0\n"
        "    print('numpy' in sys.modules)\n"
    )
    assert _child_stdout(script).split() == ["False", "False", "False", "True"]


LAZY_LAYERS = ("catalog", "growth", "modp", "local_analysis", "p_curvature", "pade")


def _layers_loaded(script, *args):
    """The lazy layers a fresh interpreter has loaded after running script:
    a lazy module's type is ModuleType once its source has run."""
    probe = f"import sys, types\nprint(*[n for n in {LAZY_LAYERS!r} if type(sys.modules['gop.' + n]) is types.ModuleType])\n"
    return set(_child_stdout(script + "\n" + probe, *args).split())


def _layers_loaded_by(*argv):
    script = "import json, sys\nfrom gop.cli import run_command\nassert run_command(json.loads(sys.argv[1]))[0] == 0\n"
    return _layers_loaded(script, json.dumps(argv))


def test_each_command_loads_only_the_layers_it_runs():
    assert _layers_loaded("import gop") == set()
    assert _layers_loaded("import gop.cli") == set()
    assert _layers_loaded_by("catalog", "list") == {"catalog"}
    assert not _layers_loaded_by("classify", "theta*(theta-1/2) - z*(theta+1/3)*(theta+1/4)") & {
        "catalog", "growth", "p_curvature", "pade"}
    assert not _layers_loaded_by("exponents", "theta*(theta-1/2) - z*(theta+1/3)*(theta+1/4)", "--point", "0") & {
        "catalog", "growth", "p_curvature", "pade"}
    assert not _layers_loaded_by("galochkin", "--catalog", "gauss2f1") & {
        "modp", "local_analysis", "p_curvature", "pade"}
    assert not _layers_loaded_by("pade", "--catalog", "polylog:2", "--N", "12", "--M", "4") & {
        "p_curvature", "local_analysis"}
    # Katz's indicial test, the one reader of local_analysis in p_curvature,
    # lives in tests/oracles.py
    assert _layers_loaded_by("scan", "--catalog", "polylog:3", "--primes", "2..30") == {
        "catalog", "growth", "modp", "p_curvature"}
    assert not _layers_loaded_by("pcurv", "D - 1", "--prime", "5") & {"local_analysis", "pade"}
    # argparse and the gettext it imports cost about 3 ms of every child's
    # start; cli reads the command line off its own table
    script = (
        "import contextlib, io, json, sys\n"
        "from gop.cli import run_command\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        run_command(argv, emit=print)\n"
        "    print('argparse' in sys.modules)\n"
    )
    argvs = [argv for argv in GOLDEN_CASES.values()] + [["--help"], ["scan", "-h"], ["frobnicate"], []]
    assert _child_stdout(script, json.dumps(argvs)).split() == ["False"] * len(argvs)


def test_closed_stdout_ends_quietly():
    # `gop catalog list | head -c 10`: the reader is gone before the envelope
    # is written, and the child exits 1 with nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(gop.__file__).parents[1]))
    try:
        child = subprocess.run([sys.executable, "-m", "gop.cli", "catalog", "list"], stdout=write_end,
                               stderr=subprocess.PIPE, timeout=60, env=env)
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == b""
