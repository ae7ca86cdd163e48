"""The public surface of `gop`: every public module-level name in
src/gop/*.py is used inside the package, or is one of the few listed below; no module imports a name it never uses; every name
the package re-exports is its layer's own object; and the package imports nothing outside the standard library.
Reference implementations that only tests need live in tests/oracles.py."""

import ast
import sys
from pathlib import Path

import gop

SRC = Path(__file__).resolve().parent.parent / "src" / "gop"

# public names no other code in src reaches, kept because each is an object
# of the paper that the tests check the scan against, and that bench/spans.py
# traces from outside the package
PAPER_IDENTITIES = {
    "p_curvature": "H_p = T^p G_p mod p at one prime, on its own modulus",
    "operator_nilpotence_by_division": "L right-divides D^(pn) mod p iff the p-curvature of L is nilpotent",
    "reduce_ratfn_mod_p": "reduction of Q(z) to F_p(z) by the Gauss valuation, the paper's good-prime rule",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Public module-level name -> the statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                out[name] = node
    return out


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every Name read in tree, outside the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _imports(tree: ast.Module):
    """(source module, imported name, bound name) for every import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = (node.module or "").rpartition(".")[2] if node.level else node.module
            for alias in node.names:
                yield source, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, (alias.asname or alias.name).split(".")[0]


def _reached(tree: ast.Module):
    """(source module, name) for every name tree imports from a module, or
    reads off a layer it binds with `from . import layer` (`growth.h_s_p`)."""
    layers = {}
    for source, name, bound in _imports(tree):
        if source == "" and name is not None:
            layers[bound] = name
        else:
            yield source, name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in layers:
            yield layers[node.value.id], node.attr


def test_every_public_name_is_used_in_src():
    modules = _modules()
    imported = {pair for tree in modules.values() for pair in _reached(tree)}
    unused = []
    for module, tree in modules.items():
        for name, node in _definitions(tree).items():
            if name in PAPER_IDENTITIES or (module, name) in imported:
                continue
            if name not in _names_used(tree, skip=node):
                unused.append(f"{module}.{name}")
    assert not unused, f"public names only tests reach (move them to tests/oracles.py): {unused}"


def test_paper_identities_exist_and_are_not_used_in_src():
    modules = _modules()
    defined = {name for tree in modules.values() for name in _definitions(tree)}
    assert set(PAPER_IDENTITIES) <= defined
    imported = {name for tree in modules.values() for _, name in _reached(tree)}
    # an allow-list entry that src itself reaches no longer needs to be here
    assert not set(PAPER_IDENTITIES) & imported


def test_no_unused_imports():
    unused = []
    for module, tree in _modules().items():
        used = _names_used(tree)
        for _, _, bound in _imports(tree):
            if bound not in used:
                unused.append(f"{module}: {bound}")
    assert not unused, f"imports never used: {unused}"


def test_reexports_are_the_layers_own_objects():
    # gop resolves each name of its re-export table on first access; a name
    # that shadowed a layer would hide that layer from `from . import layer`
    assert not set(gop._EXPORTS) & {name for names in gop._EXPORTS.values() for name in names}
    for layer, names in gop._EXPORTS.items():
        module = getattr(gop, layer)
        for name in names:
            assert getattr(gop, name) is getattr(module, name), f"{layer}.{name}"


def test_growth_is_a_characteristic_zero_layer():
    # growth reads p-adic quantities off integers; the test whether G reduces
    # mod p and every mod-p run live in p_curvature and modp, which import
    # growth, never the other way round
    imported = {name if source == "" else source for source, name, _ in _imports(_modules()["growth"])}
    assert not imported & {"modp", "p_curvature", "errors"}, imported


def test_only_the_standard_library_is_imported():
    # gop has no third-party dependency (pyproject.toml: dependencies = [])
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.stem}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"imports outside the standard library: {outside}"
