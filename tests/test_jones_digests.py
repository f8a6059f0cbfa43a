"""Committed Jones digests: one per diagram, recomputed and compared.

The corpus holds 1,420 diagrams: the 35 table knots and their mirrors,
their 2-cables and hats at framings -2..2, and 1,000 braid closures on
2 to 8 strands with 0 to 14 letters drawn from ``random.Random(3)``.
Each diagram's digest is the first 16 hex digits of the SHA-256 of
``str(V)``, V from ``jones_memoized`` with a cap of at least the
diagram's crossings.  A change that leaves Jones as it is must leave
every digest as it is.  The corpus is run twice, once without a memo and
once through one memo for all of it, where each hat reads its cable's
bracket: a key that named two different brackets would hand one diagram
another's value, and each sweep resumes from the one before it where
their plans agree.  The corpus also pins the bracket sweep's plans to
those of a plain rescan of the records left.  To rewrite the file after
a deliberate change of output, run

    PYTHONPATH=src python tests/test_jones_digests.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from knotcalc.cable import cable2, make_hat
from knotcalc.presentations import BraidWord, braid_to_tangle, trace_closure
from knotcalc.diagram import _occurrences
from knotcalc.skein import (DEFAULT_ENGINE_CAP, SkeinMemo, _sweep_plan,
                            jones_memoized)
from knotcalc.table import load_table

from ops import mirror

DIGESTS = Path(__file__).resolve().parent / "golden" / "jones-digests.json"


def corpus():
    """(name, diagram) pairs of the corpus, in a fixed order."""
    for e in load_table():
        d = e.diagram()
        yield e.name, d
        yield f"{e.name} mirror", mirror(d)
        for framing in range(-2, 3):
            cab = cable2(d, framing)
            yield f"{e.name} cable {framing}", cab.diagram
            yield f"{e.name} hat {framing}", make_hat(cab).diagram
    rng = random.Random(3)
    for k in range(1000):
        n = rng.randint(2, 8)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(0, 14)))
        word = BraidWord(n, letters)
        yield (f"closure {k} on {n} strands: {word}",
               trace_closure(braid_to_tangle(word)))


def digests(memo: SkeinMemo | None = None) -> dict[str, str]:
    out = {}
    for name, d in corpus():
        v = jones_memoized(d, max(DEFAULT_ENGINE_CAP, d.n_crossings), memo)
        out[name] = hashlib.sha256(str(v).encode()).hexdigest()[:16]
    return out


def test_jones_digests_match():
    expected = json.loads(DIGESTS.read_text())
    got = digests()
    assert list(got) == list(expected)
    assert [name for name in got if got[name] != expected[name]] == []


def test_jones_digests_match_through_one_memo():
    expected = json.loads(DIGESTS.read_text())
    memo = SkeinMemo()
    got = digests(memo)
    assert list(got) == list(expected)
    assert [name for name in got if got[name] != expected[name]] == []
    # each of the 175 hats hits its cable; the rest are closures that
    # meet a closure swept before with the same records up to half-turns
    assert (memo.hits, memo.misses, len(memo.table)) == (293, 1127, 1127)


def rescan_plan(records):
    """The bracket sweep's plan as ``_sweep_plan`` made it before its
    heap: every step rescans the records left for the one that closes
    the most open arcs, ties to the lower index."""
    occ = _occurrences(records)
    closes = [0] * len(records)
    left = list(range(len(records)))
    slot_of: dict[int, int] = {}
    free: list[int] = []
    n_slots = 0
    plan = []
    while left:
        i = max(left, key=closes.__getitem__)
        left.remove(i)
        slots, closed = [], []
        for a in records[i]:
            if a in slot_of:
                s = slot_of.pop(a)
                closed.append(s)
                step = -1
            else:
                s = slot_of[a] = free.pop() if free else n_slots
                n_slots = max(n_slots, s + 1)
                step = 1
            slots.append(s)
            for j, _ in occ[a]:
                closes[j] += step
        plan.append((tuple(slots), tuple(closed)))
        free += closed
    return n_slots, plan


def test_sweep_plans_match_the_rescan():
    differ = [name for name, d in corpus()
              if _sweep_plan(d.crossings) != rescan_plan(d.crossings)]
    assert differ == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS.name}", file=sys.stderr)
