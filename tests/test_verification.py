"""The paper's stevedore-cable chain, end to end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcalc import verification
from knotcalc.cable import cable2, king_substitution, king_verify, make_hat
from knotcalc.errors import (MultiComponent, NonInvertibleImage,
                             ResidualImaginaryPart)
from knotcalc.polyring import GaussInt, LaurentPoly, TwoVarPoly
from knotcalc.presentations import braid_parse, braid_to_tangle, trace_closure
from knotcalc.skein import jones_memoized, kauffman_F
from knotcalc.table import diagram, load_table
from knotcalc.verification import KAUFFMAN_61_PRINTED, stevedore_chain_report

from oracles import two_var_substitute
from strategies import knot_braid_words

TABLE_NAMES = [e.name for e in load_table()]


@pytest.fixture(scope="module")
def report():
    return stevedore_chain_report()


def test_chain_passes(report):
    steps = report["payload"]["steps"]
    assert len(steps) == 9
    assert report["payload"]["all_pass"]


def test_chain_owns_one_memo_per_engine(report):
    assert report["memo"] == {
        "kauffman": {"entries": 1, "hits": 0, "misses": 1,
                     "kinks": 0, "bigons": 0, "swept": 6, "widest": 6,
                     "most_states": 3, "reused": 3},
    }
    assert stevedore_chain_report()["memo"] == report["memo"]


def test_printed_kauffman_polynomial_fails_exactly_its_steps(monkeypatch):
    # the printed +4a^2 z^2 coefficient breaks F itself, its substitution
    # and the cabling identity, and nothing computed independently of F
    monkeypatch.setattr(verification, "kauffman_F",
                        lambda *args: KAUFFMAN_61_PRINTED)
    bad = stevedore_chain_report()
    failed = [s["name"] for s in bad["payload"]["steps"] if not s["pass"]]
    assert failed == ["kauffman-F", "substitution", "king-identity"]
    assert not bad["payload"]["all_pass"]


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_cabling_identity_at_framings(name):
    # the identity ties F(K) to V of the f-framed 2-cable, here at five
    # framings of every table knot; the cables of 8-crossing knots exceed
    # the default engine cap
    knot = diagram(name)
    f_poly = kauffman_F(knot)
    for framing in range(-2, 3):
        cab = cable2(knot, framing).diagram
        v_cable = jones_memoized(cab, cab.n_crossings)
        assert king_verify(f_poly, v_cable, framing), framing
        assert not king_verify(f_poly, v_cable, framing + 1), framing


@settings(max_examples=25, deadline=None)
@given(knot_braid_words(4), st.integers(-1, 1))
def test_cable_of_braid_closure_knots(word, shift):
    # knots outside the table: the cable's size, framing and writhe, the
    # reversed-copy relation and the cabling identity
    knot = trace_closure(braid_to_tangle(word))
    assert knot.n_components == 1
    n, w = knot.n_crossings, knot.writhe()
    framing = w + shift
    cab = cable2(knot, framing)
    assert cab.diagram.n_components == 2
    assert cab.linking() == framing
    assert cab.diagram.n_crossings == 4 * n + 2 * abs(shift)
    assert cab.diagram.writhe() == 4 * w + 2 * shift
    v_cable = jones_memoized(cab.diagram)
    v_hat = jones_memoized(make_hat(cab).diagram)
    assert v_hat == LaurentPoly.t_pow(-3 * framing) * v_cable
    assert king_verify(kauffman_F(knot), v_cable, framing)


def test_cable_of_a_link_raises():
    hopf = trace_closure(braid_to_tangle(braid_parse("s1 s1")))
    with pytest.raises(MultiComponent):
        cable2(hopf)


KING_A = LaurentPoly.t_pow(-2, GaussInt.I)
KING_Z = (LaurentPoly.t_pow(1) - LaurentPoly.t_pow(-1)) * GaussInt.I


def king_by_laurent_powers(f_poly):
    """The King substitution through Gaussian-integer Laurent powers."""
    return two_var_substitute(f_poly, KING_A, KING_Z).real_part_strict()


def test_king_substitution_equals_laurent_route_on_the_table():
    for name in TABLE_NAMES:
        knot = diagram(name)
        for d in (knot, knot.mirror()):
            f_poly = kauffman_F(d)
            assert king_substitution(f_poly) == king_by_laurent_powers(f_poly), name


@settings(max_examples=60, deadline=None)
@given(knot_braid_words(9))
def test_king_substitution_equals_laurent_route_on_closures(word):
    f_poly = kauffman_F(trace_closure(braid_to_tangle(word)))
    assert king_substitution(f_poly) == king_by_laurent_powers(f_poly)


_a, _z = TwoVarPoly.a_pow(1), TwoVarPoly.z_pow(1)
# (z^2 - 2)^2 + (a - a^-1)^2 lies in the kernel of the substitution, so a
# times it is made of terms with j + k odd whose imaginary parts cancel
_ODD_KERNEL = _a * (_z * _z - 2) ** 2 + _a * (_a - TwoVarPoly.a_pow(-1)) ** 2


@pytest.mark.parametrize("f_poly", [_a, _z, TwoVarPoly.term(2, 1, 3) + 1,
                                    _ODD_KERNEL + _a - TwoVarPoly.term(-1, 2)])
def test_king_substitution_rejects_odd_terms(f_poly):
    for substitute in (king_substitution, king_by_laurent_powers):
        with pytest.raises(ResidualImaginaryPart):
            substitute(f_poly)


def test_king_substitution_keeps_cancelling_odd_terms():
    assert king_substitution(_ODD_KERNEL) == king_by_laurent_powers(_ODD_KERNEL) == 0
    f_poly = _ODD_KERNEL + TwoVarPoly.term(2, 2, 7)
    assert king_substitution(f_poly) == king_by_laurent_powers(f_poly)


@pytest.mark.parametrize("f_poly", [TwoVarPoly.z_pow(-1),
                                    TwoVarPoly.term(1, -1) + 1])
def test_king_substitution_rejects_negative_z_powers(f_poly):
    for substitute in (king_substitution, king_by_laurent_powers):
        with pytest.raises(NonInvertibleImage):
            substitute(f_poly)
