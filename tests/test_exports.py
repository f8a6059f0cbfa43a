"""Every name a module exports exists, and every name a module imports
is used."""

import ast
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
