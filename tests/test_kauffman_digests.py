"""Committed Kauffman F, King and Seifert-form digests: three per
diagram, recomputed and compared.

The corpus is the Jones digests' corpus (``test_jones_digests.corpus``),
in the same order, less the 2-cables and hats of the 8-crossing knots
(each takes seconds of F), and then the torus knots T(5,6) and T(5,8),
whose chord sweeps reach a frontier of 10 positions.  For each diagram
the file stores the first 16 hex digits of the SHA-256 of ``str`` of

- ``kauffman_F(d)`` with a cap of at least the diagram's crossings,
- ``king_substitution`` of that F,
- ``seifert_matrix(d).matrix``,

or the name of the error's type where one of the last two raises (on
the links, for instance).  A change that leaves F, the substitution and
the Seifert form as they are must leave every entry as it is.  To
rewrite the file after a deliberate change of output, run

    PYTHONPATH=src python tests/test_kauffman_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

from knotcalc.cable import king_substitution
from knotcalc.errors import KnotError
from knotcalc.presentations import BraidWord, braid_to_tangle, trace_closure
from knotcalc.seifert import seifert_matrix
from knotcalc.skein import DEFAULT_ENGINE_CAP, kauffman_F

from test_jones_digests import corpus

DIGESTS = Path(__file__).resolve().parent / "golden" / "kauffman-digests.json"


def _digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def _digest_or_error(compute) -> str:
    try:
        return _digest(compute())
    except KnotError as e:
        return type(e).__name__


def kauffman_corpus():
    """(name, diagram) pairs of the corpus, in a fixed order."""
    for name, d in corpus():
        knot, _, kind = name.partition(" ")
        if not (knot.startswith("8_") and kind.startswith(("cable", "hat"))):
            yield name, d
    for p, q in ((5, 6), (5, 8)):
        word = BraidWord(p, tuple(range(1, p)) * q)
        yield f"T({p},{q})", trace_closure(braid_to_tangle(word))


def digests() -> dict[str, list[str]]:
    out = {}
    for name, d in kauffman_corpus():
        f = kauffman_F(d, max(DEFAULT_ENGINE_CAP, d.n_crossings))
        out[name] = [_digest(f),
                     _digest_or_error(lambda: king_substitution(f)),
                     _digest_or_error(lambda: seifert_matrix(d).matrix)]
    return out


def test_kauffman_king_seifert_digests_match():
    expected = json.loads(DIGESTS.read_text())
    got = digests()
    assert list(got) == list(expected)
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS.name}", file=sys.stderr)
