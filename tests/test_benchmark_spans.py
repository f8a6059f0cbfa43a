"""Every span of the benchmark's tracer still wraps what it names.

``perfbench/tracing.py`` is read, not changed.  A name missing from the
program is reported absent, but a method a class only inherits is
callable, so it is not reported, and ``Tracer.install`` replaces only a
class's own bindings: its span would read 0 in silence.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import knotcalc

# spans whose code is gone; their metrics read 0
RETIRED = ["knotcalc.diagram.Diagram.canonical_key",
           "knotcalc.presentations.tangle_substitute"]
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(module_name, path):
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, getattr(owner, attr)


def _bindings(homes):
    return {(home, key): value for home in homes
            for key, value in vars(home).items()}


def test_every_span_wraps_its_binding_and_uninstall_restores_them():
    modules = [importlib.import_module(f"knotcalc.{m.name}")
               for m in pkgutil.iter_modules(knotcalc.__path__)]
    tracing = _tracing()
    live = [(m, p) for m, p, _, _ in tracing.SPANS
            if f"{m}.{p}" not in RETIRED]
    originals = {key: _binding(*key)[1] for key in live}
    homes = [knotcalc, *modules] + [_binding(*key)[0] for key in live
                                   if "." in key[1]]
    before = _bindings(homes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == RETIRED
        for key, original in originals.items():
            now = _binding(*key)[1]
            assert getattr(now, "__wrapped__", None) is original, key
    finally:
        tracer.uninstall()
    after = _bindings(homes)
    assert after.keys() == before.keys()
    assert [k for k, v in after.items() if v is not before[k]] == []
