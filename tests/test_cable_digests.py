"""Committed digests of the records of cables and hats, recomputed.

The corpus holds 360 diagrams: the 2-cable and the hat of each of the 35
table knots and of the crossing-free unknot, at framings -2..2.  Each
diagram's digest is the first 16 hex digits of the SHA-256 of
``str((crossings, over_in, free_loops))``.  Invariants do not see a
relabelled arc or a record turned half a turn, so these digests pin
what the Jones, Conway and Kauffman digests cannot: the very records
that ``cable2`` and ``make_hat`` build.  To rewrite the file after a
deliberate change of output, run

    PYTHONPATH=src python tests/test_cable_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

from knotcalc.cable import cable2, make_hat
from knotcalc.diagram import pd_parse
from knotcalc.table import load_table

DIGESTS = Path(__file__).resolve().parent / "golden" / "cable-digests.json"


def corpus():
    """(name, diagram) pairs of the corpus, in a fixed order."""
    bases = [(e.name, e.diagram()) for e in load_table()]
    bases.append(("O", pd_parse("O")))
    for name, d in bases:
        for framing in range(-2, 3):
            cab = cable2(d, framing)
            yield f"{name} cable {framing}", cab.diagram
            yield f"{name} hat {framing}", make_hat(cab).diagram


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(
                str((d.crossings, d.over_in, d.free_loops)).encode()
            ).hexdigest()[:16] for name, d in corpus()}


def test_cable_digests_match():
    expected = json.loads(DIGESTS.read_text())
    got = digests()
    assert list(got) == list(expected)
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS.name}", file=sys.stderr)
