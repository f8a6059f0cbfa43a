"""Every name a module exports exists, every name a module imports is
used, and every private module-level function has a reader."""

import ast
from collections import Counter
import importlib
import pkgutil
from pathlib import Path

import pytest

import knotcalc

MODULES = ["knotcalc"] + [f"knotcalc.{m.name}"
                          for m in pkgutil.iter_modules(knotcalc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


ROOT = Path(__file__).resolve().parent.parent
# a perfbench test pins skein._simplify_diagram as moves.simplify
PINNED = {("src/knotcalc/skein.py", "_simplify_diagram")}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT).as_posix()
    return [f"{rel}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and (rel, name) not in PINNED]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").rglob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []


def _names_read(tree) -> list[str]:
    """Names, attributes and imported names that ``tree`` refers to."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name)
    return out


def test_every_private_helper_has_a_reader():
    # a module-level ``def _name`` in src/knotcalc must be referred to by
    # name somewhere in src/ outside its own body
    trees = {p: ast.parse(p.read_text())
             for p in sorted((ROOT / "src").rglob("*.py"))}
    read = Counter(n for tree in trees.values() for n in _names_read(tree))
    dead = [f"{p.relative_to(ROOT).as_posix()}:{node.lineno} {node.name}"
            for p, tree in trees.items() if "knotcalc" in p.parts
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.endswith("__")
            and read[node.name] == _names_read(node).count(node.name)]
    assert dead == []
