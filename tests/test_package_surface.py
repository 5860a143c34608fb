"""Static checks of the package surface: no unused imports, no stale exports,
no idle settings, and no top-level name that no caller outside the package
takes.

Only the stdlib ``ast`` and ``json`` modules are used, so the checks run
without a linter and without importing the package.
"""

import ast
import json
from pathlib import Path

import pytest

from test_readme import library_block

PKG = Path(__file__).resolve().parents[1] / "src" / "gkzperiods"
MODULES = sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree):
    """Module-level import bindings: bound name -> (source module, level)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (alias.name, 0)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, node.level)
    return out


def defined_names(tree):
    """Every name bound at module level, imports included."""
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def dunder_all(tree):
    """The literal ``__all__`` list, or [] when the module has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    tree = parse(path)
    loaded = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unused = sorted(set(imported_names(tree)) - loaded - set(dunder_all(tree)))
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", [*MODULES, PKG / "__init__.py"],
                         ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    tree = parse(path)
    missing = sorted(set(dunder_all(tree)) - defined_names(tree))
    assert not missing, f"{path.name}: __all__ names {missing} are not defined"


def test_package_reexports_exist_in_their_modules():
    for name, (module, level) in imported_names(parse(PKG / "__init__.py")).items():
        assert level == 1, f"__init__ imports {name} from outside the package"
        source = parse(PKG / f"{module}.py")
        assert name in defined_names(source), f"{module} defines no {name}"


def settings_defaults():
    """EvalSettings field name -> default value, as written in scenario.py."""
    for node in parse(PKG / "scenario.py").body:
        if isinstance(node, ast.ClassDef) and node.name == "EvalSettings":
            return {
                stmt.target.id: ast.literal_eval(stmt.value)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
            }
    raise AssertionError("scenario.py defines no EvalSettings")


def cli_flags():
    """Every ``--option`` string that cli.py passes to add_argument."""
    return {
        arg.value
        for node in ast.walk(parse(PKG / "cli.py"))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    }


def test_every_setting_is_set_somewhere():
    # a setting that no shipped scenario moves off its default and no CLI
    # flag overrides is a constant in disguise
    defaults = settings_defaults()
    moved = set()
    for path in (PKG / "scenarios").glob("*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        moved.update(
            key for key, val in doc.get("settings", {}).items()
            if val != defaults.get(key)
        )
    flags = cli_flags()
    idle = sorted(
        name for name in defaults
        if name not in moved and "--" + name.replace("_", "-") not in flags
    )
    assert not idle, f"settings no scenario or CLI flag sets: {idle}"


def batch_lookups(unit):
    """Nodes in ``unit`` that look up ``batch`` on an object other than
    ``self``, as an attribute or through getattr."""
    for node in ast.walk(unit):
        if isinstance(node, ast.Attribute) and node.attr == "batch":
            if getattr(node.value, "id", None) != "self":
                yield node
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            if any(isinstance(a, ast.Constant) and a.value == "batch" for a in node.args):
                yield node


def test_phi_batch_is_looked_up_in_one_place():
    # a second caller of phi.batch would be a second evaluation path; a
    # class calling its own batch method (self.batch) is not one
    places = [
        (path.name, getattr(unit, "name", None))
        for path in [*MODULES, PKG / "__init__.py"]
        for top in parse(path).body
        for unit in (top.body if isinstance(top, ast.ClassDef) else [top])
        for _ in batch_lookups(unit)
    ]
    assert places == [("_stencils.py", "batch_of")]


PERFBENCH = PKG.parents[1] / "perfbench"
# the version the CLI prints, and the two error bases a caller catches
SURFACE_EXTRAS = {"__version__", "EvaluationError", "ScenarioError"}


def names_taken_from_package(tree):
    """Names that code takes from the top-level ``gkzperiods`` package: by
    ``from gkzperiods import``, as ``gkzperiods.name``, or as a string
    beside ``gkzperiods`` in a call such as ``setattr(gkzperiods, "name",
    ...)``.  Submodules and module dunders are not names of the surface."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gkzperiods":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            if getattr(node.value, "id", None) == "gkzperiods":
                names.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) > 1:
            owner, attr = node.args[:2]
            if getattr(owner, "id", None) == "gkzperiods" and isinstance(
                attr, ast.Constant
            ):
                names.add(attr.value)
    submodules = {p.stem for p in PKG.glob("*.py")}
    return {n for n in names if n not in submodules and not n.startswith("__")}


def test_package_surface_is_what_callers_take():
    # README's library block and the benchmark are the callers outside the
    # package; a name none of them takes belongs to its module, and a name
    # one of them takes must stay on the surface
    taken = names_taken_from_package(ast.parse(library_block()))
    for path in sorted(PERFBENCH.glob("*.py")):
        taken |= names_taken_from_package(parse(path))
    exported = set(dunder_all(parse(PKG / "__init__.py")))
    wanted = taken | SURFACE_EXTRAS
    unused, missing = sorted(exported - wanted), sorted(wanted - exported)
    assert not unused, f"exported but taken by no caller: {unused}"
    assert not missing, f"taken but not exported: {missing}"
