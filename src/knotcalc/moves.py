"""Reidemeister reduction of a diagram, ``simplify``.

``simplify`` is ``diagram._reduce``, the reduction of Kauffman F, run on a
``Diagram``: it removes the first kink, else the first bigon, with both
strands run through, and rebuilds the diagram from the kept records with
their ``over_in`` slots, so every component keeps its direction.  No
command calls it; the benchmark traces it as the ``moves.simplify`` span,
which ``skein`` binds as ``_simplify_diagram``, so it stays here.  The
Reidemeister move library, its site finders, adders and removers, serves
the tests as scramblers and lives in ``tests/scramblers.py``.
"""

from __future__ import annotations

from .diagram import Diagram, _reduce

__all__ = ["simplify"]


def simplify(d: Diagram) -> tuple[Diagram, list[str]]:
    """Remove the first kink, else the first bigon, until neither is
    left, by ``diagram._reduce``, the reduction of Kauffman F; returns
    the move log."""
    records, closed, _, log, kept = _reduce(d.crossings)
    return Diagram(records, [d.over_in[i] for i in kept],
                   d.free_loops + closed), log
