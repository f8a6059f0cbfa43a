import random
import tracemalloc

import pytest
from hypothesis import given, settings

from knotcalc.cable import cable2, make_hat
from knotcalc.errors import (
    DanglingArc,
    DiagramSyntaxError,
    DisconnectedBoundary,
    ExtraComponents,
    InconsistentOrientation,
    StrandMismatch,
)
from knotcalc.moves import simplify
from knotcalc.polyring import LaurentPoly
from knotcalc.presentations import (
    BraidWord,
    PlatPresentation,
    Tangle,
    braid_parse,
    braid_to_tangle,
    plat_wedge,
    spine_boundary_knot,
    tangle_compose,
    tangle_parallel_double,
    trace_closure,
)
from knotcalc.seifert import (alexander_from_seifert, seifert_matrix,
                              seifert_surface_genus, signature)
from knotcalc.skein import jones_memoized, kauffman_F
from knotcalc.table import diagram as table_diagram
from knotcalc.table import entry as table_entry
from knotcalc.verification import KAUFFMAN_61_CORRECTED

from canonical import canonical_form, canonical_key
from scramblers import tangle_double_delta, tangle_mirror
from strategies import braid_words


def random_word(rng, strands, length):
    return BraidWord(strands, tuple(
        rng.choice((1, -1)) * rng.randint(1, strands - 1)
        for _ in range(length)))


class TestBraidWords:
    def test_parse(self):
        b = braid_parse("s1 s2^-1 s1")
        assert b.strands == 3
        assert b.letters == (1, -2, 1)
        assert str(b) == "s1 s2^-1 s1"

    def test_parse_errors(self):
        with pytest.raises(DiagramSyntaxError):
            braid_parse("s1 q2")
        with pytest.raises(DiagramSyntaxError):
            braid_parse("s0")
        with pytest.raises(DiagramSyntaxError):
            braid_parse("s3", strands=3)

    def test_single_letter_tangle(self):
        t = braid_to_tangle(braid_parse("s1"))
        assert t.n_crossings == 1
        assert t.n_top == t.n_bottom == 2

    def test_empty_word_is_trivial(self):
        t = braid_to_tangle(BraidWord(4, ()))
        assert t.n_crossings == 0
        assert t.top == t.bottom

    def test_positive_letters_make_positive_crossings(self):
        d = trace_closure(braid_to_tangle(braid_parse("s1 s1")))
        assert d.writhe() == 2
        assert d.linking_number(0, 1) == 1


def permutation_cycles(perm):
    seen = set()
    cycles = 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return cycles


class TestTraceClosure:
    @settings(max_examples=60, deadline=None)
    @given(braid_words())
    def test_components_are_permutation_cycles(self, word):
        d = trace_closure(braid_to_tangle(word))
        assert d.n_components == permutation_cycles(word.permutation())

    @settings(max_examples=60, deadline=None)
    @given(braid_words())
    def test_crossings_have_their_letters_signs(self, word):
        # every strand runs downward, links included
        d = trace_closure(braid_to_tangle(word))
        assert d.signs == tuple(1 if x > 0 else -1 for x in word.letters)

    def test_strand_turning_back_raises(self):
        # the strand entering at top 3 crosses over and leaves by top 1:
        # it cannot run down
        t = Tangle([(2, 1, 4, 3)], [1, 2, 3], [4, 7, 7])
        with pytest.raises(InconsistentOrientation):
            trace_closure(t)


class TestCompose:
    def test_identity_composition(self):
        eps = braid_to_tangle(BraidWord(3, ()))
        assert tangle_compose(eps, eps).n_crossings == 0

    def test_compose_with_identity(self):
        t = braid_to_tangle(braid_parse("s1 s2", 3))
        eps = braid_to_tangle(BraidWord(3, ()))
        left = tangle_compose(t, eps)
        assert left.n_crossings == t.n_crossings
        assert (canonical_key(trace_closure(left))
                == canonical_key(trace_closure(t)))

    def test_crossing_counts_add(self):
        t1 = braid_to_tangle(braid_parse("s1 s2", 3))
        t2 = braid_to_tangle(braid_parse("s2^-1", 3))
        assert tangle_compose(t1, t2).n_crossings == 3

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            tangle_compose(braid_to_tangle(BraidWord(2, ())),
                           braid_to_tangle(BraidWord(3, ())))

    def test_inverse_word_cancels_under_r2(self):
        t = braid_to_tangle(braid_parse("s1"))
        ti = braid_to_tangle(braid_parse("s1^-1"))
        closed = trace_closure(tangle_compose(t, ti))
        out, log = simplify(closed)
        assert out.n_crossings == 0 and log == ["R2-"]


class TestMirror:
    def test_involution(self):
        t = braid_to_tangle(braid_parse("s1 s2 s1^-1", 3))
        back = tangle_mirror(tangle_mirror(t))
        assert (canonical_key(trace_closure(back))
                == canonical_key(trace_closure(t)))

    def test_mirror_of_identity(self):
        eps = braid_to_tangle(BraidWord(2, ()))
        assert tangle_mirror(eps).n_crossings == 0

    def test_mirror_of_generator_is_inverse(self):
        m = tangle_mirror(braid_to_tangle(braid_parse("s1")))
        want = trace_closure(braid_to_tangle(braid_parse("s1^-1")))
        assert canonical_key(trace_closure(m)) == canonical_key(want)


class TestDoubleDelta:
    def test_trivial(self):
        eps = braid_to_tangle(BraidWord(2, ()))
        assert tangle_double_delta(eps).n_crossings == 0

    def test_crossing_count_doubles(self):
        t = braid_to_tangle(braid_parse("s1 s2 s2 s1^-1", 3))
        assert tangle_double_delta(t).n_crossings == 2 * t.n_crossings

    def test_reduces_to_trivial_on_random_words(self):
        rng = random.Random(17)
        for _ in range(12):
            strands = rng.randint(2, 4)
            word = random_word(rng, strands, rng.randint(1, 6))
            doubled = tangle_double_delta(braid_to_tangle(word))
            closed = trace_closure(doubled)
            out, _ = simplify(closed)
            assert out.n_crossings == 0
            assert out.n_components == strands


class TestParallelDouble:
    def test_trivial_doubles_to_trivial(self):
        eps = braid_to_tangle(BraidWord(3, ()))
        d = tangle_parallel_double(eps)
        assert d.n_top == 6 and d.n_crossings == 0
        assert d.top == d.bottom

    def test_crossing_count_quadruples(self):
        t = braid_to_tangle(braid_parse("s1 s2", 3))
        assert tangle_parallel_double(t).n_crossings == 4 * t.n_crossings

    def test_doubled_crossing_preserves_sign(self):
        d = trace_closure(tangle_parallel_double(braid_to_tangle(braid_parse("s1"))))
        assert d.n_components == 2
        assert d.writhe() == 4
        assert d.linking_number(0, 1) == 1

    def test_double_commutes_with_mirror(self):
        # compared as unoriented diagrams: the closure orients free
        # components by a tie-break that need not match on both sides
        rng = random.Random(3)
        for _ in range(6):
            t = braid_to_tangle(random_word(rng, 3, 4))
            a = trace_closure(tangle_parallel_double(tangle_mirror(t)))
            b = trace_closure(tangle_mirror(tangle_parallel_double(t)))
            assert canonical_form(a.crossings) == canonical_form(b.crossings)


class TestMalformedTangle:
    # a tangle is kept as given; its arcs are checked where it is doubled
    # or closed, and a malformed one fails there with a typed error (an
    # arc with a single end raises DanglingArc)
    @pytest.mark.parametrize("records, top, bottom, use", [
        ([(1, 2, 3, 4)], [1, 2], [3, 5], tangle_parallel_double),
        ([(1, 2, 3, 4)], [1, 2], [3, 5], trace_closure),
        # every arc has two ends, so only the four-arc check sees it
        ([(1, 2, 3)], [1, 2], [3], tangle_parallel_double),
        ([(1, 2, 3)], [1, 2], [3, 4], trace_closure),
    ])
    def test_fails_typed(self, records, top, bottom, use):
        with pytest.raises(DiagramSyntaxError):
            use(Tangle(records, top, bottom))

    def test_arc_ending_only_on_the_boundary_dangles(self):
        # arc 5 has its one end at the top and arc 6 at the bottom; the
        # closure joins them, so only an end count over the records and
        # both boundaries sees them
        with pytest.raises(DanglingArc, match="arc 5 occurs 1 times"):
            trace_closure(Tangle([(1, 2, 3, 4)], [1, 2, 5], [3, 4, 6]))


class TestConstructionLabels:
    # the exact PD records of the constructions, as the doubling's lane
    # rule names them; any relabeling shows here
    def test_trefoil_cable_and_hat(self):
        cab = cable2(table_diagram("3_1"), 1)
        assert cab.diagram.crossings == (
            (1, 18, 15, 10), (15, 17, 4, 9), (2, 7, 16, 18), (16, 8, 3, 17),
            (5, 22, 19, 1), (19, 21, 7, 2), (6, 13, 20, 22), (20, 14, 8, 21),
            (10, 26, 23, 5), (23, 25, 12, 6), (9, 4, 24, 26),
            (24, 3, 11, 25), (11, 29, 30, 12), (29, 31, 32, 30),
            (31, 33, 34, 32), (33, 35, 36, 34), (35, 37, 38, 36),
            (37, 39, 40, 38), (39, 41, 42, 40), (41, 14, 13, 42))
        assert cab.diagram.over_in == (1,) * 12 + (3,) * 8
        hat = make_hat(cab)
        assert hat.diagram.crossings == (
            (1, 18, 15, 10), (15, 17, 4, 9), (16, 18, 2, 7), (3, 17, 16, 8),
            (5, 22, 19, 1), (19, 21, 7, 2), (20, 22, 6, 13), (8, 21, 20, 14),
            (10, 26, 23, 5), (23, 25, 12, 6), (24, 26, 9, 4),
            (11, 25, 24, 3), (30, 12, 11, 29), (29, 31, 32, 30),
            (34, 32, 31, 33), (33, 35, 36, 34), (38, 36, 35, 37),
            (37, 39, 40, 38), (42, 40, 39, 41), (41, 14, 13, 42))
        assert hat.diagram.over_in == (1, 3, 3, 1) * 3 + (1,) * 8

    def test_curled_genus_one_plat_boundary(self):
        p = plat_wedge(1, 0, braid_parse("s2", 4), (1, 1))
        d = spine_boundary_knot(p)
        assert d.crossings == (
            (2, 1, 9, 10), (5, 12, 10, 9), (28, 5, 13, 14), (15, 16, 14, 13),
            (1, 32, 29, 15), (29, 31, 28, 16), (30, 32, 2, 12),
            (26, 31, 30, 26))
        assert d.over_in == (3, 3, 3, 3, 1, 3, 3, 1)
        assert jones_memoized(d) == LaurentPoly.from_terms(
            [(1, 1), (3, 1), (4, -1)])  # t + t^3 - t^4


class TestPlat:
    def test_identity_braid_wedge_valid(self):
        p = plat_wedge(1, 0, BraidWord(4, ()))
        assert p.strands == 4

    def test_spec_example_s2_on_four_strands(self):
        p = plat_wedge(1, 0, braid_parse("s2", 4))
        assert p.arcs_per_side == 2

    def test_extra_components_detected(self):
        # with one extra arc pair, the identity braid leaves a circle
        # disjoint from the cone
        with pytest.raises(ExtraComponents):
            plat_wedge(1, 1, BraidWord(6, ()))

    def test_strand_count_contract(self):
        with pytest.raises(StrandMismatch):
            plat_wedge(1, 0, BraidWord(2, ()))

    def test_json_curls_default_to_zero(self):
        p = PlatPresentation.from_json({"genus": 1, "braid": "s2", "strands": 4})
        assert p.curls == (0, 0)

    def test_json_rejected_before_allocating_curls(self):
        # genus 10**6, with two curls given or none: the default of
        # 2 * genus zeros must not be built on the way to the strand check
        for curls in ({"curls": [0, 0]}, {}):
            data = {"genus": 1000000, "braid": "", "strands": 4, **curls}
            tracemalloc.start()
            try:
                with pytest.raises(StrandMismatch):
                    PlatPresentation.from_json(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, curls


class TestSpineBoundary:
    def test_hooked_genus_one_gives_unknot(self):
        p = plat_wedge(1, 0, braid_parse("s2", 4))
        out = spine_boundary_knot(p)
        assert out.n_components == 1
        simplified, _ = simplify(out)
        assert simplified.n_crossings == 0
        assert jones_memoized(out) == 1

    def test_unclasped_identity_braid_boundary_is_disconnected(self):
        # an identity braid sets the two bands side by side, unclasped, so
        # the banded spine is a disk with two holes, bounded by three
        # circles, not a knot
        p = plat_wedge(1, 0, BraidWord(4, ()))
        with pytest.raises(DisconnectedBoundary):
            spine_boundary_knot(p)

    def test_curl_changes_writhe_by_two(self):
        base = plat_wedge(1, 0, braid_parse("s2", 4))
        curled = base._replace(curls=(1, 0))
        w0 = spine_boundary_knot(base).writhe()
        w1 = spine_boundary_knot(curled).writhe()
        assert w1 - w0 == 2

    @pytest.mark.parametrize("clasp", ["s2", "s2^-1"])
    def test_clasped_bands_match_their_seifert_form(self, clasp):
        # two bands with a and b full twists, clasped once, carry a
        # Seifert form [[a, +-1], [0, b]] on their core curves; the sign
        # of the clasp changes neither the Alexander polynomial nor the
        # signature
        for a in range(-3, 4):
            for b in range(-3, 4):
                p = plat_wedge(1, 0, braid_parse(clasp, 4), (a, b))
                s = seifert_matrix(spine_boundary_knot(p))
                form = [[a, 1], [0, b]]
                assert alexander_from_seifert(s) == alexander_from_seifert(form)
                assert signature(s) == signature(form), (a, b)

    @pytest.mark.parametrize("curls,name", [((-1, -1), "3_1"),
                                            ((-1, 1), "4_1"),
                                            ((-2, 1), "6_1")])
    def test_twisted_clasps_give_table_knots(self, curls, name):
        out = spine_boundary_knot(plat_wedge(1, 0, braid_parse("s2", 4), curls))
        assert str(jones_memoized(out)) == table_entry(name).jones
        if name == "6_1":
            assert kauffman_F(out) == KAUFFMAN_61_CORRECTED

    def test_boundary_bounds_a_genus_g_surface(self):
        # the banded spine F is a flat genus-g surface for the boundary
        # knot; with zero curls it faces up everywhere and each of the k
        # braid letters is one band passing over another, drawn as a 2x2
        # block of crossings, so c = 4k.  Seifert's algorithm on this
        # diagram gives one circle per block (its central square) plus one
        # per region of S^2 minus proj(F); proj(F) is connected with
        # Euler characteristic chi(F) - k = 1 - 2g - k, so those regions
        # are disks and number 1 + 2g + k.  Hence s = 2k + 1 + 2g and the
        # algorithm's genus (c - s + 1)/2 is k - g, which is g only when
        # k = 2g.  Crossing changes keep the smoothing, so mirrors obey
        # the same count.  Curls add 2|curl| twist crossings per circle
        # and leave F of genus g, so the Alexander polynomial of the
        # boundary spans at most 2g.
        from knotcalc.seifert import normalize_alexander, seifert_circles
        from knotcalc.skein import alexander_from_conway, conway
        g = 1

        def seifert_count(d):
            return len(seifert_circles(d)) + d.free_loops

        rng = random.Random(41)
        seen = nontrivial = 0
        for _ in range(60):
            word = random_word(rng, 4, rng.randint(1, 3))
            curls = (rng.randint(-2, 2), rng.randint(-2, 2))
            try:
                p = plat_wedge(g, 0, word)
                flat = spine_boundary_knot(p)
            except (ExtraComponents, DisconnectedBoundary):
                continue
            seen += 1
            k = len(p.braid.letters)
            assert flat.n_crossings == 4 * k
            assert seifert_count(flat) == 2 * k + 1 + 2 * g
            out = spine_boundary_knot(p._replace(curls=curls))
            assert out.n_crossings == 4 * k + 2 * sum(map(abs, curls))
            delta = normalize_alexander(alexander_from_conway(conway(out)))
            if delta != 1:
                nontrivial += 1
                assert max(delta.terms) - min(delta.terms) <= 8 * g
            if seen >= 12:
                break
        assert seen >= 4, "not enough connected-boundary samples"
        assert nontrivial >= 1, "no sample tested the Alexander span"
        for text in ("s2", "s2^-1"):
            hooked = plat_wedge(g, 0, braid_parse(text, 4))
            k = len(hooked.braid.letters)
            out = spine_boundary_knot(hooked)
            assert out.n_crossings == 4 * k
            assert seifert_count(out) == 2 * k + 1 + 2 * g
            assert seifert_surface_genus(out) == k - g == 0
