import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotcalc.cable import cable2, make_hat
from knotcalc.diagram import (Diagram, _erase, _glue, _occurrences,
                              _split_pieces, pd_parse)
from knotcalc.errors import (
    DanglingArc,
    DiagramSyntaxError,
    InconsistentOrientation,
    SameComponent,
    UnknownComponent,
)
from knotcalc.presentations import BraidWord, braid_to_tangle, trace_closure
from knotcalc.table import diagram as table_diagram
from knotcalc.table import load_table

from canonical import _encode, canonical_form, canonical_key
from strategies import braid_words, knot_braid_words

TABLE_NAMES = [e.name for e in load_table()]
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
HOPF = "X[4,1,3,2] X[2,3,1,4]"
SIX_ONE = "X[1,4,2,5] X[7,10,8,11] X[3,9,4,8] X[9,3,10,2] X[5,12,6,1] X[11,6,12,7]"


class TestParsing:
    def test_trefoil(self):
        d = pd_parse(TREFOIL)
        assert d.n_crossings == 3
        assert d.n_components == 1
        assert set(d.components[0]) == {1, 2, 3, 4, 5, 6}

    def test_empty_unknot(self):
        d = pd_parse("O")
        assert d.n_crossings == 0
        assert d.n_components == 1

    def test_dangling_arc(self):
        with pytest.raises(DanglingArc):
            pd_parse("X[1,4,2,5] X[3,6,4,1] X[5,2,6,4]")

    def test_bad_token(self):
        with pytest.raises(DiagramSyntaxError):
            pd_parse("X[1,2,3]")

    @pytest.mark.parametrize("build", [
        lambda: pd_parse(""),
        lambda: Diagram.from_json('{"crossings": [], "free_loops": 0}'),
        lambda: Diagram.unknot(0),
    ], ids=["pd_text", "json", "unknot"])
    def test_empty_diagram_rejected(self, build):
        with pytest.raises(DiagramSyntaxError, match="empty diagram"):
            build()

    @pytest.mark.parametrize("build, error, message", [
        (lambda: pd_parse("X[1,4,2,5] X[3,6,4,1] X[5,2,6,4]"), DanglingArc,
         "arc 3 occurs 1 times (every arc must occur twice)"),
        (lambda: Diagram.from_pd([(1, 1, 1, 2), (2, 3, 3, 4)]), DanglingArc,
         "arc 1 occurs 3 times (every arc must occur twice)"),
        (lambda: Diagram.from_pd([(0, 1, 1, 0)]), DiagramSyntaxError,
         "arc labels must be positive, got 0"),
        (lambda: Diagram.from_pd([(1, 2, 3)]), DiagramSyntaxError,
         "crossing record (1, 2, 3) must have 4 arcs"),
        (lambda: Diagram.from_pd([]), DiagramSyntaxError,
         "empty diagram: no crossings and no free loops"),
        (lambda: Diagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)], -1),
         DiagramSyntaxError, "negative free loop count"),
        (lambda: Diagram.from_pd([], -1), DiagramSyntaxError,
         "negative free loop count"),
        (lambda: Diagram.from_json('{"crossings": [], "free_loops": -2}'),
         DiagramSyntaxError, "negative free loop count"),
        # a dangling arc is found before a negative loop count
        (lambda: Diagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 4)], -1),
         DanglingArc, "arc 3 occurs 1 times (every arc must occur twice)"),
        (lambda: Diagram.from_pd([(2, 5, 1, 4), (3, 6, 4, 1), (5, 2, 6, 3)], -1),
         InconsistentOrientation, "record 1 slot 0 is listed as entering, "
         "but the strand walked from an earlier end leaves there"),
        (lambda: Diagram.from_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)],
                                 entering=[(0, 0), (0, 2)]),
         InconsistentOrientation, "record 0 slot 2 is listed as entering, "
         "but the strand walked from an earlier end leaves there"),
    ], ids=["dangling", "thrice", "zero-label", "short-record", "empty",
            "negative-loops", "negative-loops-only", "negative-json",
            "dangling-before-negative", "orientation-before-negative",
            "listed-end-left"])
    def test_errors(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("records, over_in, error, message", [
        ([(1, 2, 2, 1)], [5], DiagramSyntaxError, "bad over_in slot 5"),
        ([(1, 2, 2, 1)], [3, 1], DiagramSyntaxError,
         "over_in length mismatch"),
        # arc 4 is entered at record 0 slot 3 and at record 1 slot 0: the
        # walk from record 0 slot 3 leaves record 1 by slot 0
        ([(1, 2, 3, 4), (4, 3, 2, 1)], [3, 3], InconsistentOrientation,
         "record 1 slot 0 is listed as entering, "
         "but the strand walked from an earlier end leaves there"),
        # arc 2 leaves records 0 and 1: the walk from record 0 slot 0
        # runs through records 2 and 1 and leaves record 0 by slot 3
        ([(1, 2, 3, 4), (5, 1, 2, 6), (3, 4, 5, 6)], [3, 3, 3],
         InconsistentOrientation, "record 0 slot 3 is listed as entering, "
         "but the strand walked from an earlier end leaves there"),
    ], ids=["bad-slot", "length", "entered-twice", "left-twice"])
    def test_validate_errors(self, records, over_in, error, message):
        # a direct build is walked from its records' entering ends,
        # slot 0 and the over-strand's slot
        with pytest.raises(error) as exc:
            Diagram(records, over_in)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_roundtrip(self):
        d = pd_parse(SIX_ONE)
        assert pd_parse(d.pd_text()) == d
        assert Diagram.from_json(d.to_json()) == d

    def test_sequential_orientation(self):
        # arcs numbered along the strand: successor follows the numbering
        d = pd_parse(TREFOIL)
        succ = d.successor()
        for a in range(1, 7):
            assert succ[a] == a % 6 + 1

    @pytest.mark.parametrize("pd", [TREFOIL, FIG8, HOPF, SIX_ONE,
                                    "X[1,1,2,2]", "X[2,1,1,2]"])
    def test_arc_ends_follow_the_orientation(self, pd):
        # each arc runs from an outgoing slot to an incoming one, and its
        # successor leaves the record that it enters
        d = pd_parse(pd)
        succ = d.successor()
        for a in d.arcs:
            (hc, hs), (tc, ts) = d.head_of(a), d.tail_of(a)
            assert d.crossings[hc][hs] == a and hs in (0, d.over_in[hc])
            assert d.crossings[tc][ts] == a
            assert ts in (2, (d.over_in[tc] + 2) % 4)
            assert d.tail_of(succ[a])[0] == hc

    def test_arc_ends_of_a_missing_arc(self):
        d = pd_parse(TREFOIL)
        for end in (d.head_of, d.tail_of, d.component_of):
            with pytest.raises(UnknownComponent, match="no arc 7"):
                end(7)


def passes_under_everywhere(d):
    """Every strand circle of d passes under at some crossing, so slot 0
    of the records fixes its direction."""
    return len({d.component_of(rec[0]) for rec in d.crossings}) == len(
        d.components)


class TestOrientation:
    # the trefoil with its first record turned half a turn: slot 0 now
    # names the arc where the under-strand leaves
    @pytest.mark.parametrize("build", [
        lambda: pd_parse("X[2,5,1,4] X[3,6,4,1] X[5,2,6,3]"),
        lambda: Diagram.from_json(
            '{"crossings": [[2, 5, 1, 4], [3, 6, 4, 1], [5, 2, 6, 3]]}'),
    ], ids=["pd_text", "json"])
    def test_half_turned_record_is_inconsistent(self, build):
        with pytest.raises(InconsistentOrientation):
            build()

    def test_over_only_circle_starts_at_slot_3(self):
        # the closure of s1 s1^-1: the second circle passes only over, so
        # it is walked from its least record's slot 3
        d = Diagram.from_pd([(1, 3, 4, 2), (4, 3, 1, 2)])
        assert d.over_in == (3, 1)

    def test_no_listed_end_walks_every_circle_from_its_least_record(self):
        # the same records turned half a turn, with no listed end: the
        # over circle starts at record 0's slot 3, the under circle at
        # its slot 0
        d = Diagram.from_pd([(4, 2, 1, 3), (1, 2, 4, 3)], entering=())
        assert d.crossings == ((4, 2, 1, 3), (1, 2, 4, 3))
        assert d.over_in == (3, 1)

    def test_table_roundtrip(self, table_diagrams):
        for d in table_diagrams.values():
            for e in (d, d.mirror()):
                assert Diagram.from_pd(e.crossings, e.free_loops) == e

    def test_cable_and_hat_roundtrip(self, table_diagrams):
        for name in ("3_1", "4_1", "5_2", "6_1", "7_4", "8_20"):
            for framing in (-1, 0, 2):
                cable = cable2(table_diagrams[name], framing)
                for e in (cable.diagram, make_hat(cable).diagram):
                    assert Diagram.from_pd(e.crossings, e.free_loops) == e

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(knot_braid_words(9), braid_words()))
    def test_braid_closure_roundtrip(self, word):
        # a circle that passes only over takes the fallback direction,
        # which need not be the braid's
        d = trace_closure(braid_to_tangle(word))
        assume(passes_under_everywhere(d))
        assert Diagram.from_pd(d.crossings, d.free_loops) == d


def rebuilds_and_rejects_flips(d):
    """A direct build of d's own parts is d, and turning any one record's
    over-strand around leaves an arc entered at both ends."""
    assert Diagram(d.crossings, d.over_in, d.free_loops) == d
    for i, o in enumerate(d.over_in):
        flipped = d.over_in[:i] + (4 - o,) + d.over_in[i + 1:]
        with pytest.raises(InconsistentOrientation):
            Diagram(d.crossings, flipped, d.free_loops)


class TestConstructor:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(TABLE_NAMES)), st.integers(-2, 2))
    def test_table_cable_and_hat(self, table_diagrams, name, framing):
        d = table_diagrams[name]
        cable = cable2(d, framing)
        for e in (d, cable.diagram, make_hat(cable).diagram):
            rebuilds_and_rejects_flips(e)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(knot_braid_words(9), braid_words()))
    def test_braid_closure(self, word):
        rebuilds_and_rejects_flips(trace_closure(braid_to_tangle(word)))


class TestWrithe:
    def test_unknot(self):
        assert Diagram.unknot().writhe() == 0

    def test_trefoil(self):
        assert pd_parse(TREFOIL).writhe() == -3

    def test_six_one_table_diagram(self):
        assert pd_parse(SIX_ONE).writhe() == -2

    def test_fig8(self):
        assert pd_parse(FIG8).writhe() == 0


class TestLinking:
    def test_unlink(self):
        d = Diagram.unknot(2)
        assert d.n_components == 2

    def test_hopf(self):
        d = pd_parse(HOPF)
        assert d.n_components == 2
        assert abs(d.linking_number(0, 1)) == 1
        assert d.linking_number(0, 1) == d.linking_number(1, 0)

    def test_same_component_rejected(self):
        with pytest.raises(SameComponent):
            pd_parse(HOPF).linking_number(0, 0)

    def test_unknown_component(self):
        with pytest.raises(UnknownComponent):
            pd_parse(HOPF).linking_number(0, 5)


class TestMirrorReverse:
    def test_mirror_involution(self):
        for text in (TREFOIL, FIG8, HOPF, SIX_ONE):
            d = pd_parse(text)
            assert d.mirror().mirror() == d

    def test_mirror_negates_writhe(self):
        for text in (TREFOIL, FIG8, HOPF, SIX_ONE):
            d = pd_parse(text)
            assert d.mirror().writhe() == -d.writhe()

    def test_reverse_negates_linking(self):
        d = pd_parse(HOPF)
        lk = d.linking_number(0, 1)
        for c in (0, 1):
            assert d.reverse_component(c).linking_number(0, 1) == -lk

    def test_reverse_twice_is_identity(self):
        d = pd_parse(HOPF)
        assert d.reverse_component(1).reverse_component(1) == d

    def test_reverse_knot_preserves_writhe(self):
        d = pd_parse(TREFOIL)
        assert d.reverse_component(0).writhe() == d.writhe()


class TestUnion:
    def test_disjoint_union_counts(self):
        d1, d2 = pd_parse(TREFOIL), pd_parse(FIG8)
        u = d1.disjoint_union(d2)
        assert u.n_crossings == 7
        assert u.n_components == 2
        assert u.writhe() == d1.writhe() + d2.writhe()


class TestSplitPieces:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(knot_braid_words(6), st.just(BraidWord(1, ()))),
                    min_size=1, max_size=3),
           st.randoms(use_true_random=False))
    def test_pieces_of_shuffled_closures(self, words, rng):
        # each knot closure with crossings is one piece; the crossing-free
        # closure of the empty braid adds none
        closures = [trace_closure(braid_to_tangle(w)) for w in words]
        u = closures[0]
        for d in closures[1:]:
            u = u.disjoint_union(d)
        order = list(range(u.n_crossings))
        rng.shuffle(order)
        records = [u.crossings[k] for k in order]
        pieces = _split_pieces(records)
        assert sorted(i for p in pieces for i in p) == sorted(order)
        arcs = [{a for i in p for a in records[i]} for p in pieces]
        assert sum(map(len, arcs)) == len(set().union(*arcs))
        assert all(p == sorted(p) for p in pieces)
        assert [p[0] for p in pieces] == sorted(p[0] for p in pieces)
        shuffled = Diagram(records, [u.over_in[k] for k in order],
                           u.free_loops)
        assert shuffled.connected_pieces() == sum(
            1 for d in closures if d.crossings)


class TestGlue:
    RECORDS = ((1, 7, 3, 8), (4, 9, 2, 10), (5, 6, 7, 8))

    @pytest.mark.parametrize("pairs", [[(1, 2), (2, 3)], [(2, 3), (1, 2)]])
    def test_chain_takes_its_start_label(self, pairs):
        records, rename, closed = _glue(self.RECORDS, pairs)
        assert rename == {2: 1, 3: 1}
        assert closed == 0
        assert records[:2] == ((1, 7, 1, 8), (4, 9, 1, 10))

    def test_untouched_records_come_back_unchanged(self):
        records, _, _ = _glue(self.RECORDS, [(1, 2)])
        assert records[2] is self.RECORDS[2]

    def test_first_arc_wins_over_the_least(self):
        _, rename, _ = _glue(self.RECORDS, [(9, 4)])
        assert rename == {4: 9}

    def test_pair_of_one_arc_closes_a_circle(self):
        records, rename, closed = _glue(self.RECORDS, [(5, 5)])
        assert (records, rename, closed) == (self.RECORDS, {}, 1)

    def test_cycle_of_pairs_closes_one_circle(self):
        _, rename, closed = _glue(self.RECORDS, [(1, 2), (2, 3), (3, 1)])
        assert rename == {2: 1, 3: 1}
        assert closed == 1


def faces_by_min_walk(d):
    """The faces of d, each walked from the least dart not yet used."""
    darts = [(a, along) for a in sorted(d.arcs) for along in (True, False)]
    remaining = set(darts)
    faces = []
    while remaining:
        d0 = min(remaining)
        walk = []
        dart = d0
        while True:
            walk.append(dart)
            remaining.discard(dart)
            arc, along = dart
            ci, s = d.head_of(arc) if along else d.tail_of(arc)
            nxt_arc = d.crossings[ci][(s + 1) % 4]
            dart = (nxt_arc, d.tail_of(nxt_arc) == (ci, (s + 1) % 4))
            if dart == d0:
                break
        faces.append(tuple(walk))
    return tuple(faces)


class TestFaces:
    def test_table_cables_and_hats_as_the_min_walk(self, table_diagrams):
        for name, d in table_diagrams.items():
            for e in (d, d.mirror(), d.add_free_loops(2)):
                assert e.faces() == faces_by_min_walk(e), name
            for framing in (-2, 1):
                cable = cable2(d, framing)
                for e in (cable.diagram, make_hat(cable).diagram):
                    assert e.faces() == faces_by_min_walk(e), (name, framing)

    @settings(max_examples=150, deadline=None)
    @given(braid_words(12, strands=(2, 3, 4, 5)), st.integers(0, 2))
    def test_closures_as_the_min_walk(self, word, loops):
        # links, and kinks whose arcs have both ends at one record
        d = trace_closure(braid_to_tangle(word)).add_free_loops(loops)
        assert d.faces() == faces_by_min_walk(d)
        relabeled = Diagram.from_pd(d.relabeled().crossings, loops)
        assert relabeled.faces() == faces_by_min_walk(relabeled)

    @pytest.mark.parametrize("text", [TREFOIL, FIG8, HOPF, SIX_ONE])
    def test_euler_formula(self, text):
        d = pd_parse(text)
        v = d.n_crossings
        e = 2 * v
        f = len(d.faces())
        assert v - e + f == 2

    def test_every_dart_used_once(self):
        d = pd_parse(TREFOIL)
        darts = [dart for face in d.faces() for dart in face]
        assert len(darts) == len(set(darts)) == 4 * d.n_crossings


class TestCanonicalKey:
    def test_relabeling_invariance(self):
        d = pd_parse(SIX_ONE)
        relabeled = pd_parse(
            "X[11,14,12,15] X[17,20,18,21] X[13,19,14,18] "
            "X[19,13,20,12] X[15,22,16,11] X[21,16,22,17]")
        assert canonical_key(d) == canonical_key(relabeled)

    def test_crossing_reordering_invariance(self):
        d = pd_parse(TREFOIL)
        e = pd_parse("X[3,6,4,1] X[5,2,6,3] X[1,4,2,5]")
        assert canonical_key(d) == canonical_key(e)

    def test_mirror_distinct(self):
        d = pd_parse(TREFOIL)
        assert canonical_key(d) != canonical_key(d.mirror())

    def test_extra_unknot_distinct(self):
        d = pd_parse(TREFOIL)
        assert canonical_key(d) != canonical_key(d.add_free_loops(1))

    def test_over_only_component_direction_distinct(self):
        # a circle laid over the trefoil never passes under, so its
        # direction shows only in the crossing signs, not in the records
        d = pd_parse("X[8,4,2,5] X[3,6,4,1] X[5,2,6,3] X[1,9,7,10] X[7,9,8,10]")
        r = d.reverse_component(d.component_of(9))
        assert r.crossings == d.crossings and r.signs != d.signs
        assert canonical_key(d) != canonical_key(r)
        assert canonical_key(r) == canonical_key(r.relabeled())


def all_starts_form(records, tags=None):
    """The least encoding of each piece over every start record and turn,
    with no filter on the starts: the reference for ``canonical_form``."""
    occ = _occurrences(records)
    turns = (0, 2) if tags is None else (0,)
    return tuple(sorted(
        min(_encode(records, tags, occ, start, turn, None)
            for start in members for turn in turns)
        for members in _split_pieces(records)))


def smoothed_state(d, rng):
    """An unoriented state: D with a random subset of crossings smoothed."""
    state = d.crossings
    for _ in range(rng.randrange(len(state))):
        smoothing = rng.choice((((0, 1), (2, 3)), ((0, 3), (1, 2))))  # A, B
        state, _ = _erase(state, (rng.randrange(len(state)),), smoothing)
    return state


def disguised(state, rng, half_turns=True):
    """The state with its arcs relabeled, its records shuffled and, if
    ``half_turns``, random records turned half a turn."""
    arcs = sorted({a for rec in state for a in rec})
    relabel = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs)), len(arcs))))
    recs = []
    for rec in state:
        rec = tuple(relabel[a] for a in rec)
        if half_turns and rng.random() < 0.5:
            rec = rec[2:] + rec[:2]
        recs.append(rec)
    rng.shuffle(recs)
    return tuple(recs)


class TestCanonicalForm:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(TABLE_NAMES), st.randoms(use_true_random=False))
    def test_unoriented_key_invariance(self, name, rng):
        state = smoothed_state(table_diagram(name), rng)
        assert canonical_form(disguised(state, rng)) == canonical_form(state)

    def test_same_classes_as_all_starts(self):
        # untagged states from random smoothings of table diagrams, each
        # also disguised: new keys and reference keys are in bijection
        rng = random.Random(3)
        states = []
        for name in TABLE_NAMES:
            for _ in range(6):
                state = smoothed_state(table_diagram(name), rng)
                states += [state, disguised(state, rng)]
        to_ref, from_ref = {}, {}
        for state in states:
            key, ref = canonical_form(state), all_starts_form(state)
            assert to_ref.setdefault(key, ref) == ref
            assert from_ref.setdefault(ref, key) == key
        assert len(to_ref) < len(set(states))  # some classes are shared

    def test_oriented_keys_tablewide(self):
        rng = random.Random(11)
        for name in TABLE_NAMES:
            d = table_diagram(name)
            moved = Diagram.from_pd(disguised(d.crossings, rng, False))
            assert canonical_key(moved) == canonical_key(d), name
            assert canonical_key(d.mirror()) != canonical_key(d), name
