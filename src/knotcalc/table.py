"""The bundled table of prime knots through eight crossings.

Each entry carries a PD code and the stored invariants (Jones, Alexander,
determinant, signature, genus, fiberedness).  The stored strings use the
canonical polynomial grammar; ``verify_entry`` recomputes everything with
the package's own engines and reports any differences.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from .diagram import Diagram, pd_parse
from .seifert import (alexander_from_seifert, determinant, is_monic,
                      normalize_alexander, seifert_matrix,
                      seifert_surface_genus, signature)
from .skein import (DEFAULT_ENGINE_CAP, alexander_from_conway, conway,
                    jones_memoized)

__all__ = ["KnotTableEntry", "load_table", "entry", "diagram", "verify_entry"]


class KnotTableEntry(NamedTuple):
    name: str
    pd: str
    jones: str
    alexander: str
    determinant: int
    signature: int
    genus: int
    fibered: bool

    def diagram(self) -> Diagram:
        return pd_parse(self.pd)


_cache: list[KnotTableEntry] | None = None


def load_table() -> list[KnotTableEntry]:
    global _cache
    if _cache is None:
        text = resources.files("knotcalc").joinpath(
            "data/knot_table.json").read_text()
        _cache = [KnotTableEntry(**row) for row in json.loads(text)]
    return list(_cache)


def entry(name: str) -> KnotTableEntry:
    for e in load_table():
        if e.name == name:
            return e
    raise KeyError(f"no table entry {name!r}")


def diagram(name: str) -> Diagram:
    return entry(name).diagram()


def verify_entry(e: KnotTableEntry, max_crossings: int = DEFAULT_ENGINE_CAP
                 ) -> dict[str, tuple[str, str]]:
    """Recompute every stored invariant; returns {field: (stored, computed)}
    for the fields that differ (empty dict: clean entry).  The Alexander
    polynomial is computed twice, from the Seifert matrix and through
    Conway, which takes a knot's Fox matrix."""
    d = e.diagram()
    s = seifert_matrix(d)
    alex_seifert = alexander_from_seifert(s)
    alex_conway = normalize_alexander(
        alexander_from_conway(conway(d, max_crossings)))
    computed = {
        "jones": str(jones_memoized(d, max_crossings)),
        "alexander": str(alex_seifert),
        "alexander_conway_path": str(alex_conway),
        "determinant": determinant(s),
        "signature": signature(s),
        "genus": seifert_surface_genus(d),
        "fibered": is_monic(alex_seifert),
    }
    stored = {
        "jones": e.jones,
        "alexander": e.alexander,
        "alexander_conway_path": e.alexander,
        "determinant": e.determinant,
        "signature": e.signature,
        "genus": e.genus,
        "fibered": e.fibered,
    }
    return {key: (str(stored[key]), str(computed[key]))
            for key in computed if stored[key] != computed[key]}
