import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcalc.diagram import _occurrences, pd_parse
from knotcalc.moves import simplify
from knotcalc.presentations import braid_parse, braid_to_tangle, trace_closure
from knotcalc.seifert import (alexander_from_seifert, determinant,
                              seifert_circles, seifert_matrix, signature)
from knotcalc.skein import SkeinMemo, conway, jones_memoized, kauffman_F
from knotcalc.table import diagram as table_diagram
from knotcalc.table import load_table

from canonical import canonical_key
from oracles import skein_triple
from scramblers import (
    PatternNotFound,
    find_r1_sites,
    find_r2_sites,
    find_r3_sites,
    random_move,
    reidemeister_r1_add,
    reidemeister_r1_remove,
    reidemeister_r2_add,
    reidemeister_r2_remove,
    reidemeister_r3,
)
from strategies import (braid_words, knot_braid_words, over_strand_words,
                        planted_pair_words, twisted_pair_words)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
KINKED = "X[1,2,2,1]"  # one-crossing unknot


class TestR1:
    def test_detect_kink(self):
        assert find_r1_sites(pd_parse(KINKED)) == [0]
        assert find_r1_sites(pd_parse(TREFOIL)) == []

    def test_remove_kink(self):
        res = reidemeister_r1_remove(pd_parse(KINKED), 0)
        assert res.diagram.n_crossings == 0
        assert res.diagram.free_loops == 1
        assert not res.regular

    def test_add_then_remove_roundtrip(self):
        d = pd_parse(TREFOIL)
        for sign in (1, -1):
            for arc in sorted(d.arcs):
                added = reidemeister_r1_add(d, arc, sign).diagram
                assert added.writhe() == d.writhe() + sign
                assert added.n_crossings == 4
                (site,) = find_r1_sites(added)
                back = reidemeister_r1_remove(added, site).diagram
                assert canonical_key(back) == canonical_key(d)

    def test_add_on_free_loop(self):
        d = pd_parse("O")
        added = reidemeister_r1_add(d, None, -1).diagram
        assert added.n_crossings == 1
        assert added.writhe() == -1
        assert added.free_loops == 0

    def test_remove_rejects_non_kink(self):
        with pytest.raises(PatternNotFound):
            reidemeister_r1_remove(pd_parse(TREFOIL), 0)


class TestR2:
    def test_add_then_remove(self):
        d = pd_parse(TREFOIL)
        face = max(d.faces(), key=len)
        darts = [dart for dart in face]
        pairs = [(a, b) for a in darts for b in darts if a[0] != b[0]]
        for dart_x, dart_y in pairs[:6]:
            for x_over in (True, False):
                added = reidemeister_r2_add(d, dart_x, dart_y, x_over).diagram
                assert added.n_crossings == d.n_crossings + 2
                assert added.writhe() == d.writhe()
                sites = find_r2_sites(added)
                assert sites
                back = reidemeister_r2_remove(added, sites[0]).diagram
                assert canonical_key(back) == canonical_key(d)

    def test_add_preserves_planarity(self):
        d = pd_parse(TREFOIL)
        face = d.faces()[0]
        dart_x, dart_y = face[0], next(x for x in face if x[0] != face[0][0])
        added = reidemeister_r2_add(d, dart_x, dart_y).diagram
        v = added.n_crossings
        assert v - 2 * v + len(added.faces()) == 2

    def test_twisted_pair_is_no_site(self):
        # records 0 and 1 share over arc 3 and under arc 7 with equal slot
        # offsets: two curls of one sign, whose removal would drop the
        # writhe by 2
        d = trace_closure(braid_to_tangle(braid_parse("s2 s3 s4^-1 s4 s1 s1")))
        sites = find_r2_sites(d)
        assert (0, 1, 3, 7) not in sites
        assert sites
        for site in sites:
            assert reidemeister_r2_remove(d, site).diagram.writhe() == d.writhe()
        with pytest.raises(PatternNotFound):
            reidemeister_r2_remove(d, (0, 1, 3, 7))

    @settings(max_examples=60, deadline=None)
    @given(braid_words(10, strands=(3, 4, 5, 6)))
    def test_removal_keeps_the_writhe(self, word):
        d = trace_closure(braid_to_tangle(word))
        for site in find_r2_sites(d):
            assert reidemeister_r2_remove(d, site).diagram.writhe() == d.writhe()

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(braid_words(10, strands=(3, 4, 5, 6)),
                     planted_pair_words(), twisted_pair_words()))
    def test_sites_are_the_bigon_faces(self, word):
        # independent oracle: walk the faces of the projection and keep
        # each two-sided one whose arcs run over at both corners and
        # under at both corners
        d = trace_closure(braid_to_tangle(word))
        incid = _occurrences(d.crossings)
        bigons = set()
        for face in d.faces():
            arcs = {arc for arc, _ in face}
            if len(face) != 2 or len(arcs) != 2:
                continue
            over = [a for a in arcs if all(s % 2 for _, s in incid[a])]
            under = [a for a in arcs if not any(s % 2 for _, s in incid[a])]
            if over and under:
                corners = frozenset(c for c, _ in incid[over[0]])
                bigons.add((corners, over[0], under[0]))
        sites = [(frozenset((p, q)), x, y) for p, q, x, y in find_r2_sites(d)]
        assert len(set(sites)) == len(sites)
        assert set(sites) == bigons

    def test_remove_rejects_bad_site(self):
        with pytest.raises(PatternNotFound):
            reidemeister_r2_remove(pd_parse(TREFOIL), (0, 1, 1, 4))

    def test_poke_needs_shared_face(self):
        d = pd_parse(TREFOIL)
        with pytest.raises(PatternNotFound):
            reidemeister_r2_add(d, (1, True), (1, False))


class TestR3:
    # trace closure of the braid s1 s2 s1: a trefoil drawn with a triangle
    BRAID_TREFOIL = "X[2,1,4,5] X[3,5,6,3] X[6,4,1,2]"

    @classmethod
    def _diagram_with_triangle(cls):
        d = pd_parse(cls.BRAID_TREFOIL)
        sites = find_r3_sites(d)
        assert sites, "the braid closure must expose an R3 triangle"
        return d, sites

    def test_r3_preserves_regular_invariants(self):
        d, sites = self._diagram_with_triangle()
        for site in sites:
            moved = reidemeister_r3(d, site).diagram
            assert moved.n_crossings == d.n_crossings
            assert moved.writhe() == d.writhe()
            v = moved.n_crossings
            assert v - 2 * v + len(moved.faces()) == 2

    def test_r3_changes_key_but_is_reversible_in_spirit(self):
        d, sites = self._diagram_with_triangle()
        moved = reidemeister_r3(d, sites[0]).diagram
        # a second R3 at the matching new site restores the diagram
        back_keys = {
            canonical_key(reidemeister_r3(moved, s).diagram)
            for s in find_r3_sites(moved)
        }
        assert canonical_key(d) in back_keys


class TestSimplify:
    def test_kink_chain(self):
        d = pd_parse("O")
        for sign in (1, -1, 1, 1):
            d = reidemeister_r1_add(d, None if d.n_crossings == 0 else min(d.arcs), sign).diagram
        out, log = simplify(d)
        assert out.n_crossings == 0
        assert out.free_loops == 1
        assert len(log) == 4

    def test_poked_trefoil_recovers(self):
        d = pd_parse(TREFOIL)
        face = max(d.faces(), key=len)
        dart_x = face[0]
        dart_y = next(x for x in face if x[0] != dart_x[0])
        poked = reidemeister_r2_add(d, dart_x, dart_y).diagram
        out, log = simplify(poked)
        assert canonical_key(out) == canonical_key(d)
        assert log == ["R2-"]

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(braid_words(10, strands=(3, 4, 5)),
                     planted_pair_words()))
    def test_same_moves_as_kauffman_reduction(self, word):
        # simplify is Kauffman F's reduction, diagram._reduce, with the
        # kept records' over_in slots, so both remove as many kinks and
        # bigons and leave as many crossings
        d = trace_closure(braid_to_tangle(word))
        out, log = simplify(d)
        memo = SkeinMemo()
        kauffman_F(d, max(32, d.n_crossings), memo)
        assert log.count("R1-") == memo.kinks
        assert log.count("R2-") == memo.bigons
        assert [len(key) for key in memo.table] == ([out.n_crossings]
                                                    if out.crossings else [])


class TestOverStrandLinks:
    """Links with a component that is never the under strand.  No record
    holds it in slot 0, so after a removal only the kept records'
    ``over_in`` slots say which way it runs; a walk from slot 0 ends
    alone would pick its direction afresh."""

    @settings(max_examples=100, deadline=None)
    @given(over_strand_words(), st.data())
    def test_removals_keep_every_direction(self, word, data):
        d = trace_closure(braid_to_tangle(word))

        def kept_signs(removed):
            return tuple(s for i, s in enumerate(d.signs) if i not in removed)

        arc = data.draw(st.sampled_from(sorted(d.arcs)))
        curled = reidemeister_r1_add(d, arc, data.draw(st.sampled_from((1, -1))))
        back = reidemeister_r1_remove(curled.diagram, d.n_crossings).diagram
        assert canonical_key(back) == canonical_key(d)
        # removals keep the record order, so each kept record its sign
        for site in find_r2_sites(d):
            out = reidemeister_r2_remove(d, site).diagram
            assert out.signs == kept_signs(site[:2])
        for i in range(d.n_crossings):
            assert skein_triple(d, i)[2].signs == kept_signs((i,))
        # simplify makes the moves of the public removers, in their order
        e, moves = d, []
        while find_r1_sites(e) or find_r2_sites(e):
            kinks = find_r1_sites(e)
            res = (reidemeister_r1_remove(e, kinks[0]) if kinks
                   else reidemeister_r2_remove(e, find_r2_sites(e)[0]))
            e = res.diagram
            moves.append(res.move)
        out, log = simplify(d)
        assert log == moves
        assert canonical_key(out) == canonical_key(e)


SMALL_KNOTS = [e.name for e in load_table() if int(e.name.split("_")[0]) <= 7]


def link_invariants(d):
    """Ambient-isotopy invariants of links: Jones from the bracket sweep,
    Kauffman F and Conway from the Kauffman and oriented Conway rings of
    the skein kernel."""
    return jones_memoized(d), kauffman_F(d), conway(d)


def invariants(d):
    """The link invariants of a knot, and its Alexander polynomial from a
    Seifert matrix, a path apart from the skein kernel."""
    return link_invariants(d) + (alexander_from_seifert(seifert_matrix(d)),)


class TestInvariance:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_KNOTS), st.integers(1, 3),
           st.randoms(use_true_random=False))
    def test_reidemeister_moves_keep_invariants(self, name, moves, rng):
        d = table_diagram(name)
        moved = d
        for _ in range(moves):
            moved = random_move(moved, rng)
        assert invariants(moved) == invariants(d)

    @settings(max_examples=30, deadline=None)
    @given(braid_words(), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_moves_on_braid_closures_keep_invariants(self, word, moves, rng):
        # braid closures, links and free circles included, offer more R3
        # sites than the reduced table diagrams
        d = trace_closure(braid_to_tangle(word))
        moved = d
        for _ in range(moves):
            moved = random_move(moved, rng)
        assert link_invariants(moved) == link_invariants(d)

    @settings(max_examples=100, deadline=None)
    @given(knot_braid_words(9), st.integers(1, 3),
           st.randoms(use_true_random=False))
    def test_moves_keep_the_seifert_invariants(self, word, moves, rng):
        # a moved closure is no longer a braid closure: its Seifert circles
        # need not be concentric, nor coherently oriented
        d = trace_closure(braid_to_tangle(word))
        moved = d
        for _ in range(moves):
            moved = random_move(moved, rng)
        s, s0 = seifert_matrix(moved), seifert_matrix(d)
        assert s.size == moved.n_crossings - len(seifert_circles(moved)) + 1
        for invariant in (alexander_from_seifert, signature, determinant):
            assert invariant(s) == invariant(s0)
