"""Expression grammar, report schemas, golden files, exit codes."""

import json
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import validate

import gop
from gop.catalog import CATALOG, hypergeom_operator
from gop.cli import (
    PADE_M_MAX,
    PADE_N_MAX,
    PCURV_PRIME_MAX,
    S_MAX,
    SCAN_PRIME_MAX,
    SMAX_MAX,
    main,
    operator_text,
    parse_operator,
    run_command,
)
from gop.diffop import Basis, DiffOp
from gop.errors import MixedBasisError, ParseError
from gop.exact_arith import Poly, RatFn, is_prime
from gop.local_analysis import APPARENT_ORDER_MAX

GOLDEN_DIR = Path(__file__).parent / "golden"

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


def load_schema(command):
    with resources.files("gop.schemas").joinpath(f"{command}.json").open() as fh:
        return json.load(fh)


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
    code, env = run_command(["exponents", "D - 1", "--point", "inf"])
    assert code == 2 and env["error_kind"] == "IrregularPoint"
    code, _ = run_command(["scan", "--primes", "bad"])
    assert code == 1


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
    # --format is one argparse option: an unknown value is a usage error
    rc = main(["--format", "xml", "classify", "D"])
    assert rc == 1 and capsys.readouterr().out == ""


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
USAGE_ERROR_SCHEMA = {
    "type": "object",
    "required": ["tool", "version", "command", "error"],
    "additionalProperties": False,
    "properties": {
        "tool": {"const": "gop"},
        "version": {"type": "string"},
        "command": {"type": "string"},
        "error": {"type": "string"},
    },
}


def _assert_usage_errors(cases):
    for argv, (code, has_error, seconds, env) in zip(cases, _run_in_child(cases)):
        assert code == 1 and has_error, argv
        assert seconds < 5, argv
        validate(env, USAGE_ERROR_SCHEMA)


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
    ])


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
        ["galochkin", "--catalog", "polylog:1", "--smax", str(SMAX_MAX + 1)],
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
