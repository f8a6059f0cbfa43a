"""Every name a module exports exists and has a reader, every name a
module imports is used, every private module-level function has a
reader, and the package runs with only ``src/`` on the path."""

import ast
import functools
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


SRC = sorted((ROOT / "src").rglob("*.py"))


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _module(path: Path) -> str:
    """Dotted name of a module under src/, e.g. ``knotcalc.skein``."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _binds(node, name) -> bool:
    """Whether the module-level statement ``node`` binds ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any((a.asname or a.name) == name for a in node.names)
    if isinstance(node, ast.Assign):
        return any(getattr(t, "id", None) == name for t in node.targets)
    return False


def _reads(path: Path) -> set[tuple[str, str]]:
    """The (module, name) pairs that the file reads: a load of a name of
    its own module outside the statement that binds it, a name imported
    from a package module (``from .mod import name``), and ``m.name``
    where an import binds ``m`` to a package module (``from knotcalc
    import skein``, ``from . import table as table_mod``)."""
    tree = _tree(path)
    own = _module(path) if path.is_relative_to(ROOT / "src") else ""
    package = own if path.stem == "__init__" else own.rpartition(".")[0]
    bound = {}   # local name -> the package module an import binds to it
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:   # the package has no subpackages
                source = f"{package}.{source}" if source else package
            for a in node.names:
                if f"{source}.{a.name}" in MODULES:
                    bound[a.asname or a.name] = f"{source}.{a.name}"
                else:
                    out.add((source, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            out.add((bound[node.value.id], node.attr))
    for stmt in tree.body if own else ():
        out.update((own, n.id) for n in ast.walk(stmt)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   and not _binds(stmt, n.id))
    return out


def test_every_private_helper_has_a_reader():
    # a module-level ``def _name`` in src/knotcalc must be read in src/:
    # loaded in its own module outside its own body, imported from it, or
    # read as an attribute of the module
    read = set().union(*map(_reads, SRC))
    dead = [f"{p.relative_to(ROOT).as_posix()}:{node.lineno} {node.name}"
            for p in SRC if "knotcalc" in p.parts for node in _tree(p).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.endswith("__")
            and (_module(p), node.name) not in read]
    assert dead == []


# exported with no reader yet, each kept for an open ROADMAP item
UNREAD_EXPORTS = {
    ("knotcalc.presentations", "plat_wedge"),   # item 4: J' tied into a band
    ("knotcalc.seifert", "elementary_enlarge"),  # item 5: the band surface
}


BENCH = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
         if not p.name.startswith("test_")]


def test_every_export_has_a_reader():
    # each name in a src/knotcalc module's __all__ must be read, as
    # ``_reads`` resolves reads, in src/ or in a non-test file of
    # perfbench/.  A field or attribute that only shares the name's
    # spelling is no read.  Only the root of a chain of test-only
    # functions shows: one read by another unread one passes.  So this
    # check keeps new unread exports out, but what moved to tests/ was
    # chosen by a census of the functions that the commands and the
    # benchmark enter.
    read = set().union(*map(_reads, SRC + BENCH))
    unread = {(_module(p), name) for p in SRC for node in _tree(p).body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)
              for name in ast.literal_eval(node.value)
              if (_module(p), name) not in read}
    assert unread == UNREAD_EXPORTS


def test_every_public_method_has_a_reader():
    """Each non-dunder method, property or classmethod of a class in
    src/knotcalc must be read in src/ or in a non-test file of
    perfbench/: loaded as an attribute of that name, or named by a
    string constant given to ``getattr`` or ``hasattr``.  The check
    matches by name, not by class, so ``Tangle.n_crossings`` passes
    because ``Diagram.n_crossings`` is read; the export check has the
    same limit on fields that share a name's spelling."""
    read = set()
    for p in SRC + BENCH:
        for node in ast.walk(_tree(p)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("getattr",
                                                           "hasattr")
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    unread = [f"{cls.name}.{fn.name}" for p in SRC
              for cls in ast.walk(_tree(p)) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not (fn.name.startswith("__") and fn.name.endswith("__"))
              and fn.name not in read]
    assert unread == []


# the operator each arithmetic method implements
OPERATORS = {"__add__": ast.Add, "__radd__": ast.Add, "__sub__": ast.Sub,
             "__rsub__": ast.Sub, "__mul__": ast.Mult, "__rmul__": ast.Mult,
             "__neg__": ast.USub, "__pow__": ast.Pow}


def test_every_operator_method_is_applied():
    """Each arithmetic operator method that a class in src/knotcalc
    defines, by ``def`` or by assignment in the class body, must have its
    operator applied (an ``ast.BinOp`` or ``ast.UnaryOp``) in src/ or in
    a non-test file of perfbench/, outside the bodies of the methods of
    that operator.  The check matches the operator, not the operand
    types, so an integer ``-`` keeps ``__neg__`` of every class."""
    applied = set()
    for p in SRC + BENCH:
        own = {id(node) for fn in ast.walk(_tree(p))
               if isinstance(fn, ast.FunctionDef) and fn.name in OPERATORS
               for node in ast.walk(fn)
               if isinstance(getattr(node, "op", None), OPERATORS[fn.name])}
        applied |= {type(node.op) for node in ast.walk(_tree(p))
                    if isinstance(node, (ast.BinOp, ast.UnaryOp))
                    and id(node) not in own}
    unapplied = [f"{cls.name}.{name}" for p in SRC
                 for cls in ast.walk(_tree(p)) if isinstance(cls, ast.ClassDef)
                 for stmt in cls.body
                 for name in ([stmt.name] if isinstance(stmt, ast.FunctionDef)
                              else [t.id for t in getattr(stmt, "targets", ())
                                    if isinstance(t, ast.Name)])
                 if name in OPERATORS and OPERATORS[name] not in applied]
    assert unapplied == []


def test_oracles_borrow_no_skein_internals():
    # the oracles check the skein engines, so of ``knotcalc.skein`` they
    # read only what it exports, imported or as an attribute
    skein = importlib.import_module("knotcalc.skein")
    borrowed = {name for module, name in _reads(ROOT / "tests" / "oracles.py")
                if module == "knotcalc.skein"}
    assert borrowed - set(skein.__all__) == set()


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


def test_importing_the_package_loads_no_fractions(tmp_path):
    # fractions pulls in decimal, milliseconds of set-up on every command;
    # the package takes an exact rational exponent without importing it
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              f"import {', '.join(MODULES)}\n"
              "print('fractions' in set(sys.modules) - before)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
