import pytest

from knotcalc.diagram import Diagram, pd_parse
from knotcalc.errors import (
    DanglingArc,
    DiagramSyntaxError,
    SameComponent,
    UnknownComponent,
)

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


class TestFaces:
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
        assert d.canonical_key() == relabeled.canonical_key()

    def test_crossing_reordering_invariance(self):
        d = pd_parse(TREFOIL)
        e = pd_parse("X[3,6,4,1] X[5,2,6,3] X[1,4,2,5]")
        assert d.canonical_key() == e.canonical_key()

    def test_mirror_distinct(self):
        d = pd_parse(TREFOIL)
        assert d.canonical_key() != d.mirror().canonical_key()

    def test_extra_unknot_distinct(self):
        d = pd_parse(TREFOIL)
        assert d.canonical_key() != d.add_free_loops(1).canonical_key()

    def test_over_only_component_direction_distinct(self):
        # a circle laid over the trefoil never passes under, so its
        # direction shows only in the crossing signs, not in the records
        d = pd_parse("X[8,4,2,5] X[3,6,4,1] X[5,2,6,3] X[1,9,7,10] X[7,9,8,10]")
        r = d.reverse_component(d.component_of(9))
        assert r.crossings == d.crossings and r.signs != d.signs
        assert d.canonical_key() != r.canonical_key()
        assert r.canonical_key() == r.relabeled().canonical_key()
