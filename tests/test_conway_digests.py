"""Committed Conway and Alexander digests: three per diagram, recomputed
and compared.

The corpus is the Jones digests' corpus (``test_jones_digests.corpus``),
in the same order.  For each diagram the file stores the first 16 hex
digits of the SHA-256 of ``str`` of

- ``conway(d)``,
- ``alexander_from_conway(conway(d))``,
- ``alexander_from_seifert(seifert_matrix(d))``, or the name of the
  error's type where that raises (on the links, for instance).

A change that leaves Conway and the Seifert route as they are must leave
every entry as it is.  To rewrite the file after a deliberate change of
output, run

    PYTHONPATH=src python tests/test_conway_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

from knotcalc.errors import KnotError
from knotcalc.seifert import alexander_from_seifert, seifert_matrix
from knotcalc.skein import DEFAULT_ENGINE_CAP, alexander_from_conway, conway

from test_jones_digests import corpus

DIGESTS = (Path(__file__).resolve().parent / "golden"
           / "conway-alexander-digests.json")


def _digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def digests() -> dict[str, list[str]]:
    out = {}
    for name, d in corpus():
        nabla = conway(d, max(DEFAULT_ENGINE_CAP, d.n_crossings))
        try:
            seifert = _digest(alexander_from_seifert(seifert_matrix(d)))
        except KnotError as e:
            seifert = type(e).__name__
        out[name] = [_digest(nabla), _digest(alexander_from_conway(nabla)),
                     seifert]
    return out


def test_conway_alexander_digests_match():
    expected = json.loads(DIGESTS.read_text())
    got = digests()
    assert list(got) == list(expected)
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS.name}", file=sys.stderr)
