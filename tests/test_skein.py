import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from knotcalc import seifert, skein
from knotcalc.chords import unpack
from knotcalc.diagram import Diagram, _erase, _rotate, pd_parse
from knotcalc.errors import ResourceLimit
from knotcalc.polyring import GaussInt, LaurentPoly, TwoVarPoly
from knotcalc.presentations import (BraidWord, braid_parse, braid_to_tangle,
                                    trace_closure)
from knotcalc.seifert import normalize_alexander
from knotcalc.skein import (
    SkeinMemo,
    _kauffman_L,
    _unpack,
    alexander_from_conway,
    bracket_memoized,
    conway,
    jones_memoized,
    kauffman_F,
)

from oracles import (BadSite, bracket_state_sum, jones, skein_triple,
                     two_var_substitute, verify_jones_skein)
from scramblers import reidemeister_r1_add
from strategies import braid_words

t = LaurentPoly.t_pow
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
SIX_ONE = "X[1,4,2,5] X[7,10,8,11] X[3,9,4,8] X[9,3,10,2] X[5,12,6,1] X[11,6,12,7]"
UNLINK_FACTOR = -t(Fraction(1, 2)) - t(Fraction(-1, 2))
# the images of a and z that specialize F to the Jones polynomial
JONES_A = -t(Fraction(-3, 4))
JONES_Z = t(Fraction(1, 4)) + t(Fraction(-1, 4))
TORUS_3_5 = BraidWord(3, (1, 2) * 5)
# its closure, a 3-component link, holds a twisted pair (see moves' tests)
TWISTED_PAIR = braid_parse("s2 s3 s4^-1 s4 s1 s1", 5)
# the slot pairs that the A- and the B-smoothing of a record join
A_SMOOTHING = ((0, 1), (2, 3))
B_SMOOTHING = ((0, 3), (1, 2))


class TestBracket:
    def test_unknot(self):
        assert bracket_state_sum(Diagram.unknot()) == 1

    def test_positive_curl(self):
        d = reidemeister_r1_add(Diagram.unknot(), None, 1).diagram
        # <curl+> = -A^3 with A = t^-1/4
        assert bracket_state_sum(d) == t(Fraction(-3, 4), -1)

    def test_two_component_unlink(self):
        got = bracket_state_sum(Diagram.unknot(2))
        assert got == -t(Fraction(-1, 2)) - t(Fraction(1, 2))

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            bracket_state_sum(pd_parse(TREFOIL), max_crossings=2)

    def test_memoized_cap(self):
        with pytest.raises(ResourceLimit):
            bracket_memoized(pd_parse(TREFOIL), max_crossings=2)

    def test_sweep_closes_two_loops_at_one_record(self):
        # a one-crossing curl joins each of its arcs to itself: one
        # smoothing closes two loops at the record, the other one
        d = reidemeister_r1_add(Diagram.unknot(), None, 1).diagram
        for sign in (1, -1, -1):
            assert bracket_memoized(d) == bracket_state_sum(d)
            d = reidemeister_r1_add(d, min(d.arcs), sign).diagram

    @settings(max_examples=60)
    @given(st.integers(1, 9), st.integers(-40, 40), st.data())
    def test_unpack_keeps_coefficients_below_half_a_slot(self, width, lo, data):
        # the sweep's packed sum A^lo q(A^2) holds coefficient j of q at
        # 256^(width j), signed and less than half a slot in size
        bound = (1 << (8 * width - 1)) - 1
        coefficient = st.one_of(st.integers(-bound, bound),
                                st.sampled_from((-bound, bound)))
        coefficients = data.draw(st.lists(coefficient, max_size=12))
        p = sum(c << (8 * width * j) for j, c in enumerate(coefficients))
        assert _unpack(lo, p, width) == {
            lo + 2 * j: c for j, c in enumerate(coefficients) if c}

    @pytest.mark.parametrize("p", [1, 1 + (1 << 8), 1 - (1 << 8), 1 << 16,
                                   3 + (2 << 16)],
                             ids=["1", "1+A^2", "1-A^2", "A^4", "3+2A^4"])
    def test_non_multiple_of_delta_raises(self, monkeypatch, p):
        # a packed state sum at width 1, one byte per power of A^2, that
        # 1 + A^4 does not divide
        monkeypatch.setattr(skein, "_sweep_states", lambda records: (0, p, 1))
        with pytest.raises(ArithmeticError, match="not a multiple of delta"):
            bracket_memoized(pd_parse(TREFOIL))


class TestJones:
    def test_unknot(self):
        assert jones(Diagram.unknot()) == 1

    def test_trefoil_table_value(self):
        # the bundled chirality gives -t^-4 + t^-3 + t^-1; the published
        # chain prints t^-4 + t^-3 + t^-1 (the sign question is recorded,
        # the coefficient magnitudes agree)
        v = jones(pd_parse(TREFOIL))
        assert v == LaurentPoly.from_terms([(-4, -1), (-3, 1), (-1, 1)])
        magnitudes = {q: abs(c.re) for q, c in v.terms.items()}
        assert magnitudes == {-16: 1, -12: 1, -4: 1}

    def test_two_component_unlink(self):
        assert jones(Diagram.unknot(2)) == UNLINK_FACTOR

    def test_memoized_equals_oracle_small(self):
        for text in (TREFOIL, SIX_ONE):
            d = pd_parse(text)
            assert jones_memoized(d) == jones(d)

    def test_disjoint_union_multiplicative(self, table_diagrams):
        d1 = table_diagrams["3_1"]
        d2 = table_diagrams["4_1"]
        u = d1.disjoint_union(d2)
        assert jones_memoized(u) == UNLINK_FACTOR * jones_memoized(d1) * jones_memoized(d2)

    def test_mirror_inverts_t(self, table_diagrams):
        for name in ("3_1", "5_2", "6_2"):
            d = table_diagrams[name]
            assert jones_memoized(d.mirror()) == jones_memoized(d).invert_t()

    def test_determinism_and_memo_hits(self):
        # the sweep keys no states, so it leaves the memo empty
        memo = SkeinMemo()
        d = pd_parse(SIX_ONE)
        first = jones_memoized(d, memo=memo)
        second = jones_memoized(d, memo=memo)
        assert first == second
        assert memo.stats() == {"entries": 0, "hits": 0, "misses": 0,
                                "kinks": 0, "bigons": 0, "swept": 0,
                                "widest": 0, "most_states": 0, "reused": 0}


class TestKauffman:
    def test_unknot(self):
        assert kauffman_F(Diagram.unknot()) == TwoVarPoly.one()

    def test_unlink(self):
        # (a + a^-1) z^-1 - 1
        want = TwoVarPoly({(1, -1): 1, (-1, -1): 1, (0, 0): -1})
        assert kauffman_F(Diagram.unknot(2)) == want

    def test_six_one(self):
        want = TwoVarPoly({
            (-2, 0): -1, (2, 0): 1, (4, 0): 1,
            (1, 1): 2, (3, 1): 2,
            (-2, 2): 1, (2, 2): -4, (4, 2): -3,
            (-1, 3): 1, (1, 3): -2, (3, 3): -3,
            (0, 4): 1, (2, 4): 2, (4, 4): 1,
            (1, 5): 1, (3, 5): 1,
        })
        assert kauffman_F(pd_parse(SIX_ONE)) == want

    def test_mirror_rule(self, table_diagrams):
        for name in ("3_1", "5_2", "6_1"):
            d = table_diagrams[name]
            assert kauffman_F(d.mirror()) == kauffman_F(d).mirror_a()

    def test_jones_specialization(self, table_diagrams):
        for name in ("3_1", "4_1", "6_1"):
            d = table_diagrams[name]
            spec = two_var_substitute(kauffman_F(d), JONES_A, JONES_Z)
            assert spec == jones_memoized(d)


def torus_F(rows):
    """F from rows (z exponent, least a exponent, coefficients of a^j for
    j from there in steps of two)."""
    return TwoVarPoly({(a0 + 2 * k, z): c for z, a0, coeffs in rows
                       for k, c in enumerate(coeffs)})


# F of torus closures, as the exponential skein kernel gave them before
# the chord sweep replaced it; T(3,4) and T(4,3) are one knot
TORUS_F = {
    (3, 4): [(0, -10, (-1, -5, -5)), (1, -9, (5, 5)), (2, -8, (10, 10)),
             (3, -9, (-5, -5)), (4, -8, (-6, -6)), (5, -9, (1, 1)),
             (6, -8, (1, 1))],
    (4, 3): [(0, -10, (-1, -5, -5)), (1, -9, (5, 5)), (2, -8, (10, 10)),
             (3, -9, (-5, -5)), (4, -8, (-6, -6)), (5, -9, (1, 1)),
             (6, -8, (1, 1))],
    (3, 5): [(0, -12, (2, 8, 7)), (1, -11, (-8, -8)), (2, -12, (-1, -22, -21)),
             (3, -11, (14, 14)), (4, -10, (21, 21)), (5, -11, (-7, -7)),
             (6, -10, (-8, -8)), (7, -11, (1, 1)), (8, -10, (1, 1))],
    (4, 5): [(0, -18, (1, 9, 21, 14)), (1, -19, (-1, -8, -28, -21)),
             (2, -18, (-1, -22, -91, -70)), (3, -17, (14, 84, 70)),
             (4, -16, (21, 154, 133)), (5, -17, (-7, -91, -84)),
             (6, -16, (-8, -129, -121)), (7, -17, (1, 46, 45)),
             (8, -16, (1, 56, 55)), (9, -15, (-11, -11)),
             (10, -14, (-12, -12)), (11, -15, (1, 1)), (12, -14, (1, 1))],
}


class TestKauffmanOracle:
    """The relations that determine L, on raw PD records: L(O) = 1, the
    unoriented skein relation at any crossing, and a^+-1 per curl."""

    @settings(max_examples=60, deadline=None)
    @given(braid_words(10, strands=(3, 4, 5, 6)), st.integers(0, 99))
    def test_skein_relation_at_a_random_record(self, word, site):
        state = trace_closure(braid_to_tangle(word)).crossings
        i = site % len(state)
        switched = state[:i] + (_rotate(state[i], 1),) + state[i + 1:]
        memo = SkeinMemo()

        def lam(records, loops=0):
            return unpack(_kauffman_L(records, loops, memo))

        assert lam(state) + lam(switched) == TwoVarPoly.z_pow(1) * (
            lam(*_erase(state, (i,), A_SMOOTHING))
            + lam(*_erase(state, (i,), B_SMOOTHING)))

    @settings(max_examples=40, deadline=None)
    @given(braid_words(10, strands=(3, 4, 5, 6)), st.integers(0, 99),
           st.sampled_from((1, -1)))
    def test_curl_scales_by_a(self, word, site, sign):
        d = trace_closure(braid_to_tangle(word))
        arc = sorted(d.arcs)[site % len(d.arcs)]
        curled = reidemeister_r1_add(d, arc, sign).diagram
        assert (unpack(_kauffman_L(curled.crossings, 0, SkeinMemo()))
                == unpack(_kauffman_L(d.crossings, 0, SkeinMemo()), sign))

    def test_unknot(self):
        assert unpack(_kauffman_L((), 1, SkeinMemo())) == TwoVarPoly.one()

    @settings(max_examples=150, deadline=None)
    @given(braid_words(10, strands=(3, 4, 5, 6)), st.data())
    def test_any_record_first(self, word, data):
        # the sweep starts at the first record, so rotating the records
        # changes every block, cup and layer swap of the sweep
        d = trace_closure(braid_to_tangle(word))
        n = d.n_crossings
        want = kauffman_F(d)
        turns = data.draw(st.lists(st.integers(1, n - 1), min_size=1,
                                   max_size=4, unique=True))
        for r in turns:
            turned = Diagram(d.crossings[r:] + d.crossings[:r],
                             d.over_in[r:] + d.over_in[:r], d.free_loops)
            assert kauffman_F(turned) == want

    @pytest.mark.parametrize("p, q", sorted(TORUS_F))
    def test_torus_closures(self, p, q):
        d = trace_closure(braid_to_tangle(BraidWord(p, tuple(range(1, p)) * q)))
        assert kauffman_F(d) == torus_F(TORUS_F[(p, q)])


class TestKernelProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(braid_words())
    def test_bracket_equals_state_sum(self, word):
        d = trace_closure(braid_to_tangle(word))
        assume(d.n_components == 1)
        assert bracket_memoized(d, memo=SkeinMemo()) == bracket_state_sum(d)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(10, strands=(3, 4, 5, 6)))
    def test_sweep_equals_state_sum_on_links(self, word):
        d = trace_closure(braid_to_tangle(word))
        assert bracket_memoized(d) == bracket_state_sum(d)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(10, strands=(3, 4, 5, 6)))
    def test_kauffman_specializes_to_jones_on_links(self, word):
        # F of a c-component link has z^(1-c) terms, and z's image is no
        # unit, so both sides are multiplied by z^(c-1) first
        d = trace_closure(braid_to_tangle(word))
        lift = d.n_components - 1
        f_poly = kauffman_F(d) * TwoVarPoly.z_pow(lift)
        assert (two_var_substitute(f_poly, JONES_A, JONES_Z)
                == jones_memoized(d) * JONES_Z ** lift)

    # one memo for every example, so a key that named two different
    # diagrams would hand one of them the other's value
    shared_memo = SkeinMemo()

    @settings(max_examples=100, deadline=None)
    @given(braid_words(10, strands=(2, 3, 4, 5, 6)), st.integers(0, 99))
    def test_reversing_a_component_scales_by_the_writhe(self, word, pick):
        # F = a^-w L and L forgets orientation, so reversing component c
        # multiplies F by a^(w - w'); a knot's writhe does not change
        d = trace_closure(braid_to_tangle(word))
        back = d.reverse_component(pick % len(d.components))
        f, f_back = (kauffman_F(x, memo=self.shared_memo) for x in (d, back))
        assert f == kauffman_F(d)
        if d.n_components == 1:
            assert f_back == f
        assert f_back == f * TwoVarPoly.a_pow(d.writhe() - back.writhe())

    def test_twisted_pair_is_no_bigon(self):
        # records 0 and 1 share an over-over and an under-under arc, but
        # with equal slot offsets: two curls of one sign, not an R2 bigon
        d = trace_closure(braid_to_tangle(TWISTED_PAIR))
        lift = d.n_components - 1
        assert jones_memoized(d) == jones(d)
        f_poly = kauffman_F(d) * TwoVarPoly.z_pow(lift)
        assert (two_var_substitute(f_poly, JONES_A, JONES_Z)
                == jones(d) * JONES_Z ** lift)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(braid_words())
    def test_kauffman_specializes_to_jones(self, word):
        d = trace_closure(braid_to_tangle(word))
        assume(d.n_components == 1)
        f_poly = kauffman_F(d, memo=SkeinMemo())
        assert (two_var_substitute(f_poly, JONES_A, JONES_Z)
                == jones_memoized(d, memo=SkeinMemo()))


class TestMemoClasses:
    """Memo counts follow the partition of states into key classes, so
    they move when the keys merge or split a class.  Only states left
    after removing kinks and bigons are keyed, by their records as they
    are; the removals are counted apart.  Kauffman F keys only the
    reduced diagram it is called on."""

    def test_kauffman_keys_one_diagram(self):
        d = trace_closure(braid_to_tangle(TORUS_3_5))
        memo = SkeinMemo()
        for _ in range(2):
            kauffman_F(d, memo=memo)
        # T(3,5) is swept once, its 10 records on at most 6 positions
        assert memo.stats() == {"entries": 1, "hits": 1, "misses": 1,
                                "kinks": 0, "bigons": 0, "swept": 10,
                                "widest": 6, "most_states": 15, "reused": 32}

    def test_curled_unknot_reduces_to_nothing(self):
        d = reidemeister_r1_add(Diagram.unknot(), None, 1).diagram
        for sign in (-1, -1, 1, -1):
            d = reidemeister_r1_add(d, min(d.arcs), sign).diagram
        memo = SkeinMemo()
        assert kauffman_F(d, memo=memo) == TwoVarPoly.one()
        assert memo.stats() == {"entries": 0, "hits": 0, "misses": 0,
                                "kinks": 5, "bigons": 0, "swept": 0,
                                "widest": 0, "most_states": 0, "reused": 0}


class TestConway:
    def test_unknot(self):
        assert conway(Diagram.unknot()) == 1
        assert alexander_from_conway(conway(Diagram.unknot())) == 1

    def test_trefoil(self):
        nabla = conway(pd_parse(TREFOIL))
        assert nabla == LaurentPoly.from_terms([(0, 1), (2, 1)])  # 1 + z^2
        delta = alexander_from_conway(nabla)
        assert delta == LaurentPoly.from_terms([(-1, 1), (0, -1), (1, 1)])

    def test_six_one_up_to_unit(self):
        delta = alexander_from_conway(conway(pd_parse(SIX_ONE)))
        want = LaurentPoly.from_terms([(-1, 2), (0, -5), (1, 2)])
        assert delta == want or delta == -want

    def test_split_links_vanish(self):
        assert conway(Diagram.unknot(2)).is_zero()
        d = pd_parse(TREFOIL).add_free_loops(1)
        assert conway(d).is_zero()

    @pytest.mark.parametrize("word, terms", [
        ("s1 s1", [(1, 1)]),                                  # Hopf links
        ("s1^-1 s1^-1", [(1, -1)]),
        ("s1 s1 s1 s1", [(1, 2), (3, 1)]),                    # T(2,4)
        ("s1^-1 " * 6, [(1, -3), (3, -4), (5, -1)]),          # T(2,-6)
        ("s1 s2^-1 " * 3, [(4, 1)]),                          # Borromean
        ("s1 s2 s3 " * 4, [(3, 16), (5, 20), (7, 8), (9, 1)]),  # T(4,4)
    ])
    def test_braid_closed_links(self, word, terms):
        d = trace_closure(braid_to_tangle(braid_parse(word)))
        assert conway(d) == LaurentPoly.from_terms(terms)

    @settings(max_examples=150, deadline=None)
    @given(braid_words(10, strands=(3, 4, 5, 6)), st.integers(0, 99))
    def test_skein_relation_and_mirror_on_closures(self, word, site):
        # skein_triple erases the site for L0 with diagram._erase; when
        # L+- is a knot, L0 is a link, so the Fox route of the knots meets
        # the Seifert route of the link.  The mirror image has del(-z)
        d = trace_closure(braid_to_tangle(word))
        plus, minus, zero = skein_triple(d, site % d.n_crossings)
        assert conway(plus) - conway(minus) == t(1) * conway(zero)
        nabla = conway(d).terms
        assert conway(d.mirror()) == LaurentPoly(
            {q: c if q % 8 == 0 else -c for q, c in nabla.items()})

    def test_unlink_drawn_connected(self):
        # an R2 overlap: one piece, no free loops, so the 0 comes from the
        # determinant and not from the split shortcut
        d = trace_closure(braid_to_tangle(braid_parse("s1 s1^-1")))
        assert d.n_components == 2
        assert (d.free_loops, d.connected_pieces()) == (0, 1)
        assert conway(d).is_zero()

    def test_relabeling_keeps_conway(self, table_diagrams):
        # the Fox minor drops the row and column of whichever record and
        # over-arc come first, so both are moved here
        rng = random.Random(16)
        for name, d in table_diagrams.items():
            want = conway(d)
            assert conway(d.relabeled()) == want, name
            arcs = sorted(d.arcs)
            fresh = rng.sample(range(1, 5 * len(arcs)), len(arcs))
            label = dict(zip(arcs, fresh))
            k = rng.randrange(d.n_crossings)
            recs = [tuple(label[a] for a in rec) for rec in d.crossings]
            moved = Diagram(recs[k:] + recs[:k], d.over_in[k:] + d.over_in[:k])
            assert conway(moved) == want, name


def alexander_by_laurent_powers(nabla):
    """del(t^1/2 - t^-1/2) summed from Laurent powers of t^1/2 - t^-1/2."""
    z_img = t(Fraction(1, 2)) - t(Fraction(-1, 2))
    total = LaurentPoly.zero()
    for q, c in sorted(nabla.terms.items()):
        if q % 4 or q < 0:
            raise ValueError("Conway polynomial must be polynomial in z")
        total = total + z_img ** (q // 4) * c
    return total


class TestAlexanderFromConway:
    def test_equals_laurent_route_on_the_table(self, table_diagrams):
        for name, d in table_diagrams.items():
            for e in (d, d.mirror()):
                nabla = conway(e)
                assert (alexander_from_conway(nabla)
                        == alexander_by_laurent_powers(nabla)), name

    @settings(max_examples=100, deadline=None)
    @given(braid_words(10, strands=(2, 3, 4, 5)))
    def test_equals_laurent_route_on_closures(self, word):
        # links too: odd powers of z give half-integer powers of t
        nabla = conway(trace_closure(braid_to_tangle(word)))
        assert alexander_from_conway(nabla) == alexander_by_laurent_powers(nabla)

    def test_equals_laurent_route_on_gaussian_coefficients(self):
        rng = random.Random(18)
        for _ in range(100):
            nabla = LaurentPoly({4 * k: GaussInt(rng.randint(-5, 5),
                                                 rng.choice((0, 0, 1, -3)))
                                 for k in rng.sample(range(9), rng.randint(0, 5))})
            assert alexander_from_conway(nabla) == alexander_by_laurent_powers(nabla)

    @pytest.mark.parametrize("nabla", [t(-1), t(Fraction(1, 4)),
                                       t(Fraction(3, 2)) + 1])
    def test_rejects_what_is_not_a_polynomial_in_z(self, nabla):
        for substitute in (alexander_from_conway, alexander_by_laurent_powers):
            with pytest.raises(ValueError, match="polynomial in z"):
                substitute(nabla)


class TestConwayIndependence:
    """A knot's Conway must not come from the Seifert form, or the checks
    that compare the Conway route with the Seifert route compare one
    matrix with itself."""

    def test_knots_never_build_a_seifert_form(self, monkeypatch, table):
        def refuse(*args):
            raise AssertionError("Conway of a knot built a Seifert form")

        for target in (seifert.seifert_matrix, seifert._seifert_form):
            for module in (seifert, skein):
                for name, value in list(vars(module).items()):
                    if value is target:
                        monkeypatch.setattr(module, name, refuse)
        for e in table:
            delta = alexander_from_conway(conway(e.diagram()))
            assert str(normalize_alexander(delta)) == e.alexander, e.name
        hopf = trace_closure(braid_to_tangle(braid_parse("s1 s1")))
        with pytest.raises(AssertionError, match="Seifert form"):
            conway(hopf)  # the patch holds: links do use the form


class TestSkeinTriple:
    def test_counts(self):
        d = pd_parse(SIX_ONE)
        for site in range(d.n_crossings):
            plus, minus, zero = skein_triple(d, site)
            assert plus.n_crossings == d.n_crossings
            assert minus.n_crossings == d.n_crossings
            assert zero.n_crossings == d.n_crossings - 1

    def test_positive_site_identity(self):
        d = pd_parse(TREFOIL)  # all negative crossings
        site = 0
        plus, minus, zero = skein_triple(d, site)
        assert minus == d
        assert plus == d.switch_crossing(site)

    def test_trefoil_smoothing_is_hopf(self):
        d = pd_parse(TREFOIL)
        _, _, zero = skein_triple(d, 0)
        assert zero.n_components == 2
        assert abs(zero.linking_number(0, 1)) == 1

    def test_bad_site(self):
        with pytest.raises(BadSite):
            skein_triple(pd_parse(TREFOIL), 17)


class TestJonesSkeinRelation:
    def test_small_knots_every_site(self, table_diagrams):
        for name in ("3_1", "4_1", "5_1", "5_2"):
            d = table_diagrams[name]
            for site in range(d.n_crossings):
                assert verify_jones_skein(d, site)

    def test_curl_site(self):
        d = reidemeister_r1_add(Diagram.unknot(), None, 1).diagram
        assert verify_jones_skein(d, 0)

    def test_perturbation_detected(self):
        d = pd_parse(TREFOIL)
        plus, minus, zero = skein_triple(d, 0)
        v_plus = jones_memoized(plus)
        v_minus = jones_memoized(minus)
        v_zero = jones_memoized(zero) + 1  # corrupted
        lhs = (t(-1) * v_plus - t(1) * v_minus
               + (t(Fraction(-1, 2)) - t(Fraction(1, 2))) * v_zero)
        assert not lhs.is_zero()


class TestMoveInvariance:
    def test_bracket_r1_scaling(self):
        rng = random.Random(5)
        d = pd_parse(SIX_ONE)
        base = bracket_state_sum(d)
        for sign in (1, -1):
            arc = rng.choice(sorted(d.arcs))
            kinked = reidemeister_r1_add(d, arc, sign).diagram
            # <kink+-> = -A^{+-3} <D>
            factor = t(Fraction(-3 * sign, 4), -1)
            assert bracket_state_sum(kinked) == factor * base
