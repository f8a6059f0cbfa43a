"""Every name a module exports exists and has a reader, every name a
module imports is used, every private module-level function has a
reader, and the package runs with only ``src/`` on the path."""

import ast
from collections import Counter
import importlib
import os
import pkgutil
from pathlib import Path
import subprocess
import sys

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


# exported with no reader yet, each kept for an open ROADMAP item
UNREAD_EXPORTS = {
    ("presentations", "plat_wedge"),      # item 4: J' tied into a band
    ("seifert", "elementary_enlarge"),    # item 5: the band surface's form
}


def _binds(node, name) -> bool:
    """Whether the module-level statement ``node`` binds ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any((a.asname or a.name) == name for a in node.names)
    if isinstance(node, ast.Assign):
        return any(getattr(t, "id", None) == name for t in node.targets)
    return False


def test_every_export_has_a_reader():
    # each name in a src/knotcalc module's __all__ must be referred to in
    # src/ outside the statement that binds it, or in a non-test file of
    # perfbench/.  Only the root of a chain of test-only functions shows:
    # one read by another unread one passes (the state-sum ``jones``
    # reads ``bracket_state_sum``), and so does a name that only shares
    # its identifier with a field or attribute.  So this check keeps new
    # unread exports out, but what moved to tests/ was chosen by a census
    # of the functions that the commands and the benchmark enter.
    trees = {p: ast.parse(p.read_text())
             for p in sorted((ROOT / "src").rglob("*.py"))}
    bench = [ast.parse(p.read_text())
             for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    read = Counter(n for tree in [*trees.values(), *bench]
                   for n in _names_read(tree))
    unread = set()
    for p, tree in trees.items():
        module = p.stem
        exported = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)]
        for name in (exported[0] if exported else []):
            own = sum(_names_read(node).count(name) for node in tree.body
                      if _binds(node, name))
            if read[name] == own:
                unread.add((module, name))
    assert unread == UNREAD_EXPORTS


def test_package_runs_with_only_src_on_the_path(tmp_path):
    # pytest puts tests/ on sys.path, so a src module that imported a test
    # helper would still pass in process; a fresh interpreter in an empty
    # directory sees only src/
    script = (
        "import importlib, pkgutil, knotcalc\n"
        "for m in pkgutil.iter_modules(knotcalc.__path__):\n"
        "    importlib.import_module('knotcalc.' + m.name)\n"
        "from knotcalc import cli\n"
        "raise SystemExit(cli.main(['verify-paper']))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
