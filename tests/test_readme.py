"""README.md's command table against the code: its commands are the CLI's,
and every src function, schema, bound, test and golden it names exists."""

import importlib
import re
from pathlib import Path

from gop import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _table() -> list[list[str]]:
    rows = [line for line in README.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def _names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def _resolve(dotted: str, default_module: str = "cli"):
    """The gop attribute a name such as local_analysis.exponents or S_MAX
    (a constant of cli) stands for."""
    module, _, attr = dotted.rpartition(".")
    return getattr(importlib.import_module(f"gop.{module or default_module}"), attr)


def test_command_table_matches_the_code():
    rows = _table()
    assert [len(row) for row in rows] == [7] * len(rows)
    assert [_names(row[0])[0] for row in rows] == list(cli._COMMANDS)
    for command, _quantity, function, schema, bounds, codes, pins in rows:
        assert callable(_resolve(_names(function)[0])), command
        assert _names(schema) == [f"schemas/{_names(command)[0]}.json"], command
        assert (ROOT / "src" / "gop" / _names(schema)[0]).is_file(), command
        for bound in _names(bounds):
            value = _resolve(bound)
            assert isinstance(value, int) and bound.rpartition(".")[2].isupper(), (command, bound)
        assert codes.startswith("0, 1"), command
        assert any(name.startswith("golden/") for name in _names(pins)), command


def test_every_named_test_and_golden_exists():
    cited = set(re.findall(r"`(tests/test_\w+\.py)::(test_\w+)`", README))
    assert len(cited) >= 30
    for path, name in cited:
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), (path, name)
    goldens = set(re.findall(r"`golden/(\w+\.json)`", README))
    assert goldens == {p.name for p in (ROOT / "tests" / "golden").glob("*.json")}
