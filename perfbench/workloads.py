"""The benchmark's workloads: seeded inputs, operations and their checks.

A workload builds one pass: a fixed batch of operations, each a call (or
a few calls) into knotcalc's public functions, and for each operation a
check against an independent exact reference.  The seed orders the
cases, in ways that keep each case's work the same, so runs with
different seeds measure the same batch.

Engines are called through their modules (``skein.kauffman_F``) so that
the tracer's wrappers, or a test's substitute, are seen at call time.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import partial
from typing import Callable, NamedTuple

from knotcalc import cable, presentations, seifert, skein, table, verification
from knotcalc.polyring import LaurentPoly

import reference as ref

ENGINE_CAP = skein.DEFAULT_ENGINE_CAP

CABLE_KNOTS = ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_2")
FRAMINGS = (-2, -1, 0, 1, 2)

TORUS_KNOTS = ((3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (3, 11),
               (4, 3), (4, 5))
# (strands, letters) of the mixed-sign braid words; a closure on n
# strands is a knot only if the word length has the parity of n - 1.
# The words are drawn once from WORDS_SEED and --seed only orders them:
# drawn from --seed, they moved op_p50_ms and op_p90_ms by 20-30%
# between seeds, more than any bound could allow.  There are many, so
# that the median call lies among many calls of similar cost.
RANDOM_WORDS = ((3, 8), (3, 10), (3, 12), (4, 9), (4, 11), (4, 13)) * 4
WORDS_SEED = 1701

BRAID_CALLS = ("seifert_matrix", "alexander_from_seifert", "determinant",
               "signature", "conway", "kauffman_F")


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]   # problems found; empty when correct


class Memos:
    """The benchmark's own SkeinMemo objects and their counts, by engine.

    A memo from ``fresh`` is dropped when its call ends, so the pass's
    peak memory does not depend on the order of the calls."""

    def __init__(self):
        self._done = {engine: {"hits": 0, "misses": 0, "entries": 0}
                      for engine in ("bracket", "kauffman", "conway")}
        self._kept: list[tuple[str, object]] = []

    def shared(self, engine: str):
        memo = skein.SkeinMemo()
        self._kept.append((engine, memo))
        return memo

    @contextmanager
    def fresh(self, engine: str):
        memo = skein.SkeinMemo()
        try:
            yield memo
        finally:
            self._fold(self._done[engine], memo)

    @staticmethod
    def _fold(counts: dict, memo) -> None:
        counts["hits"] += memo.hits
        counts["misses"] += memo.misses
        counts["entries"] += len(memo.table)

    def stats(self) -> dict:
        out = {engine: dict(counts) for engine, counts in self._done.items()}
        for engine, memo in self._kept:
            self._fold(out[engine], memo)
        for counts in out.values():
            looked_up = counts["hits"] + counts["misses"]
            counts["hit_ratio"] = counts["hits"] / looked_up if looked_up else 0.0
        return out


def build(name: str, seed: int) -> tuple[list[Op], Memos]:
    """Set up one pass of a workload: parse and build every input."""
    memos = Memos()
    return _BUILDERS[name](random.Random(seed), memos), memos


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _real_poly(terms: dict) -> LaurentPoly:
    return LaurentPoly({q: c for q, (c, _) in terms.items()})


# ---------------------------------------------------------------- cable-sweep

def _cable_case(base, framing: int, bracket_memo, kauffman_memo) -> dict:
    cab = cable.cable2(base, framing)
    hat = cable.make_hat(cab)
    cap = max(ENGINE_CAP, cab.diagram.n_crossings)
    v_cable = skein.jones_memoized(cab.diagram, cap, bracket_memo)
    v_hat = skein.jones_memoized(hat.diagram, cap, bracket_memo)
    f_poly = skein.kauffman_F(base, ENGINE_CAP, kauffman_memo)
    king = cable.king_verify(f_poly, v_cable, framing)
    return {"cable": cab, "v_cable": v_cable, "v_hat": v_hat,
            "f": f_poly, "king": king}


def check_cable_case(entry, base, framing: int, out: dict) -> list:
    problems: list = []
    cab, f_terms = out["cable"], out["f"].terms
    v_cable = ref.from_laurent(out["v_cable"])
    _expect(problems, cab.diagram.n_crossings
            == 4 * base.n_crossings + 2 * abs(framing - base.writhe()),
            "cable crossing count")
    _expect(problems, cab.linking() == framing, "cable framing")
    _expect(problems, out["king"] is True, "king_verify")
    _expect(problems, ref.king_identity_holds(f_terms, v_cable, framing),
            "cabling identity (reference)")
    _expect(problems, ref.from_laurent(out["v_hat"])
            == ref.shifted(v_cable, -12 * framing), "V(hat) = t^-3f V(cable)")
    jones = ref.kauffman_to_jones(f_terms)
    _expect(problems, jones is not None and ref.to_real_terms(jones) is not None
            and str(_real_poly(jones)) == entry.jones,
            "F specialized to Jones vs the table")
    if entry.name == "6_1" and framing == 0:
        _expect(problems, f_terms == verification.KAUFFMAN_61_CORRECTED.terms,
                "F(6_1) vs the paper")
        _expect(problems, v_cable
                == ref.from_laurent(verification.JONES_CABLE_61),
                "V(cable of 6_1) vs the paper")
    return problems


def _cable_sweep(rng: random.Random, memos: Memos) -> list[Op]:
    entries = {e.name: e for e in table.load_table()}
    # The seed orders the knots.  The five framings of a knot run in
    # ascending order and share one memo per engine, as verify-paper
    # shares its memos, so reuse between framings counts.  Each knot has
    # its own memos: shared across knots, the order the seed picks would
    # move work from one case to another.
    names = list(CABLE_KNOTS)
    rng.shuffle(names)
    ops = []
    for n in names:
        base = entries[n].diagram()
        bracket_memo = memos.shared("bracket")
        kauffman_memo = memos.shared("kauffman")
        ops += [Op(f"{n}@{f}",
                   partial(_cable_case, base, f, bracket_memo, kauffman_memo),
                   partial(check_cable_case, entries[n], base, f))
                for f in FRAMINGS]
    return ops


# ----------------------------------------------------------- braid-invariants

def random_word(rng: random.Random, strands: int, length: int) -> tuple:
    """A mixed-sign braid word whose closure is a knot using every
    generator, without adjacent cancelling letters (cyclically)."""
    if (length - strands + 1) % 2:
        raise ValueError("an n-strand closure is a knot only for words "
                         "whose length has the parity of n - 1")
    gens = range(1, strands)
    while True:
        letters: list[int] = []
        while len(letters) < length:
            x = rng.choice(gens) * rng.choice((1, -1))
            if not letters or letters[-1] != -x:
                letters.append(x)
        word = presentations.BraidWord(strands, tuple(letters))
        perm = word.permutation()
        cycle, k = 1, perm[0]
        while k != 0:
            k, cycle = perm[k], cycle + 1
        if (cycle == strands and letters[0] != -letters[-1]
                and {abs(x) for x in letters} == set(gens)
                and min(letters) < 0 < max(letters)):
            return word.letters


def _braid_ops(label: str, d, torus: tuple | None, memos: Memos) -> list[Op]:
    """The six engine calls on one knot; later calls read earlier results."""
    got: dict = {}

    def call(name: str):
        if name == "seifert_matrix":
            got[name] = seifert.seifert_matrix(d)
        elif name == "conway":
            with memos.fresh("conway") as memo:
                got[name] = skein.conway(d, ENGINE_CAP, memo)
        elif name == "kauffman_F":
            with memos.fresh("kauffman") as memo:
                got[name] = skein.kauffman_F(d, ENGINE_CAP, memo)
        else:
            got[name] = getattr(seifert, name)(got["seifert_matrix"])
        return got

    return [Op(f"{label}:{name}", partial(call, name),
               partial(check_braid_call, name, d, torus))
            for name in BRAID_CALLS]


def check_braid_call(name: str, d, torus: tuple | None, got: dict) -> list:
    problems: list = []
    if name == "seifert_matrix":
        size = got[name].size
        _expect(problems, size % 2 == 0 and (
            torus is None or size == (torus[0] - 1) * (torus[1] - 1)),
            "Seifert matrix size")
        return problems
    delta = ref.from_laurent(got["alexander_from_seifert"])
    if name == "alexander_from_seifert":
        _expect(problems, torus is None or delta == ref.torus_alexander(*torus),
                "Alexander vs the torus closed form")
        return problems
    at_minus_one = ref.value_at_minus_one(delta)
    if name == "determinant":
        _expect(problems, at_minus_one is not None
                and got[name] == abs(at_minus_one), "determinant = |Delta(-1)|")
    elif name == "signature":
        at_one = sum(c for c, _ in delta.values())
        _expect(problems, at_minus_one is not None and ref.signature_consistent(
            got[name], at_minus_one * at_one, got["seifert_matrix"].size),
            "signature parity and bound")
        _expect(problems, torus is None
                or got[name] == ref.torus_signature(*torus),
                "signature vs the torus formula")
    elif name == "conway":
        z_image = {2: (1, 0), -2: (-1, 0)}   # t^1/2 - t^-1/2
        from_conway = ref.add(*(
            ref.scale(ref.power(z_image, q // 4), re, im)
            for q, (re, im) in ref.from_laurent(got[name]).items()
            if q % 4 == 0 and q >= 0))
        at_one = sum(c for c, _ in delta.values())
        _expect(problems, at_one in (1, -1) and from_conway
                == ref.scale(delta, at_one), "Conway route vs Seifert route")
    elif name == "kauffman_F":
        if torus is not None:
            jones = ref.torus_jones(*torus)
        else:
            jones = ref.from_laurent(skein.jones_memoized(d, ENGINE_CAP,
                                                          skein.SkeinMemo()))
        _expect(problems, ref.kauffman_to_jones(got[name].terms) == jones,
                "F specialized to Jones")
    return problems


def _closure(strands: int, letters: tuple):
    word = presentations.BraidWord(strands, letters)
    return presentations.trace_closure(presentations.braid_to_tangle(word))


def _braid_invariants(rng: random.Random, memos: Memos) -> list[Op]:
    # The torus knots come first in a fixed order, so the largest calls
    # see the same heap in every run and peak memory repeats.
    table.load_table()   # set-up covers the table load in every workload
    knots = [(f"T({p},{q})", _closure(p, tuple(range(1, p)) * q), (p, q))
             for p, q in TORUS_KNOTS]
    draw = random.Random(WORDS_SEED)
    words = [random_word(draw, strands, length)
             for strands, length in RANDOM_WORDS]
    rng.shuffle(words)
    for letters in words:
        strands = 1 + max(abs(x) for x in letters)
        word = presentations.BraidWord(strands, letters)
        knots.append((f"[{word}]", _closure(strands, letters), None))
    return [op for label, d, torus in knots
            for op in _braid_ops(label, d, torus, memos)]


# --------------------------------------------------------------- table-verify

def _verify_entry(e, memos: Memos) -> dict:
    """``table.verify_entry`` composed from the same public calls, with a
    fresh memo for every engine call (verify_entry's conway call would
    fill the module-level memo)."""
    d = e.diagram()
    s = seifert.seifert_matrix(d)
    alex = seifert.alexander_from_seifert(s)
    with memos.fresh("conway") as memo:
        nabla = skein.conway(d, ENGINE_CAP, memo)
    with memos.fresh("bracket") as memo:
        jones = skein.jones_memoized(d, ENGINE_CAP, memo)
    return {
        "jones": str(jones),
        "alexander": str(alex),
        "alexander_conway_path": str(
            seifert.normalize_alexander(skein.alexander_from_conway(nabla))),
        "determinant": seifert.determinant(s),
        "signature": seifert.signature(s),
        "genus": seifert.seifert_surface_genus(d),
        "fibered": seifert.is_monic(alex),
    }


def check_entry(e, computed: dict) -> list:
    stored = {"jones": e.jones, "alexander": e.alexander,
              "alexander_conway_path": e.alexander,
              "determinant": e.determinant, "signature": e.signature,
              "genus": e.genus, "fibered": e.fibered}
    return [f"{key}: stored {stored[key]}, computed {computed[key]}"
            for key in stored if stored[key] != computed[key]]


def _chain() -> dict:
    # The chain hands its one memo argument to both the bracket and the
    # Kauffman engine, whose keys coincide: given a memo, it raises
    # TypeError.  So it runs on its module-level memos, which are cold in
    # every pass because every pass runs in a fresh interpreter.
    return verification.stevedore_chain_report(ENGINE_CAP)


def check_chain(report: dict) -> list:
    steps = report["payload"]["steps"]
    problems = [f"chain step {s['name']}" for s in steps if not s["pass"]]
    _expect(problems, len(steps) == 9 and report["payload"]["all_pass"],
            "chain all_pass over nine steps")
    return problems


def _table_verify(rng: random.Random, memos: Memos) -> list[Op]:
    entries = table.load_table()
    for e in entries:
        e.diagram()   # reject unparsable input before the first operation
    ops = [Op(e.name, partial(_verify_entry, e, memos), partial(check_entry, e))
           for e in entries]
    rng.shuffle(ops)
    ops.insert(rng.randrange(len(ops) + 1),
               Op("stevedore-chain", _chain, check_chain))
    return ops


_BUILDERS = {"cable-sweep": _cable_sweep,
             "braid-invariants": _braid_invariants,
             "table-verify": _table_verify}
