"""The paper's stevedore-cable chain, end to end."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotcalc import cli, verification
from knotcalc.cable import (cable2, king_sides, king_substitution,
                            king_verify, make_hat)
from knotcalc.diagram import pd_parse
from knotcalc.errors import (MultiComponent, NonInvertibleImage,
                             ResidualImaginaryPart)
from knotcalc.polyring import GaussInt, LaurentPoly, TwoVarPoly
from knotcalc.presentations import braid_parse, braid_to_tangle, trace_closure
from knotcalc.skein import jones_memoized, kauffman_F
from knotcalc.table import diagram, load_table
from knotcalc.verification import (JONES_CABLE_61, KAUFFMAN_61_CORRECTED,
                                   KAUFFMAN_61_PRINTED, SUBSTITUTION_61,
                                   stevedore_chain_report)

from ops import mirror
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
        # the hat reads the bracket that the cable's sweep kept
        "bracket": {"entries": 1, "hits": 1, "misses": 1,
                    "kinks": 0, "bigons": 0, "swept": 0, "widest": 0,
                    "most_states": 0, "reused": 0},
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


@pytest.mark.parametrize("f_poly", [
    KAUFFMAN_61_CORRECTED + TwoVarPoly({(1, 0): 1}), TwoVarPoly({(0, -1): 1})],
    ids=["odd-parity", "z^-1"])
def test_failing_substitution_fails_its_steps(monkeypatch, capsys, f_poly):
    # the substitution raises, and the chain records it and runs on: the
    # cabling identity is written from the value the chain holds, so
    # verify-paper reports every step and exits 1, not 2
    monkeypatch.setattr(verification, "kauffman_F", lambda *args: f_poly)
    assert cli.main(["--format", "json", "verify-paper"]) == cli.EXIT_VERIFY
    steps = json.loads(capsys.readouterr().out)["payload"]["steps"]
    assert len(steps) == 9
    failed = [s["name"] for s in steps if not s["pass"]]
    assert failed == ["kauffman-F", "substitution", "king-identity"]
    # the cabling identity shows the substitution's error, not a value
    # that nothing computed
    lhs = {s["name"]: s["lhs"] for s in steps}
    assert lhs["king-identity"] == lhs["substitution"]
    assert lhs["king-identity"].startswith("error: ")


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


def king_sides_in_the_ring(substituted, v_tilde, framing):
    """The two sides of the cabling identity by ``LaurentPoly`` ring
    arithmetic, the reference for ``king_sides``."""
    t = LaurentPoly.t_pow
    lhs = t(framing) * (1 + t(1) + t(-1)) * substituted
    rhs = -(t(Fraction(1, 2)) + t(Fraction(-1, 2))) * v_tilde - t(3 * framing)
    return lhs, rhs


def quarter_polys(coefficients):
    return st.dictionaries(st.integers(-60, 60), coefficients,
                           max_size=8).map(LaurentPoly)


REAL_OR_GAUSSIAN = st.one_of(
    quarter_polys(st.integers(-3, 3)),
    quarter_polys(st.builds(GaussInt, st.integers(-3, 3), st.integers(-3, 3))))


def cancelling_v(framing, unit):
    """V with -(t^1/2 + t^-1/2) V holding t^3f with coefficient 1, which
    the identity's -t^3f cancels."""
    return LaurentPoly({12 * framing - 2: -1, 12 * framing + 6: unit})


@settings(max_examples=200, deadline=None)
@given(REAL_OR_GAUSSIAN, REAL_OR_GAUSSIAN, st.integers(-4, 4))
@example(LaurentPoly({3: 1}), cancelling_v(-4, 1), -4)
@example(LaurentPoly({3: 1}), cancelling_v(0, 1), 0)
@example(LaurentPoly({3: GaussInt(0, 1)}), cancelling_v(3, GaussInt(0, 1)), 3)
def test_king_sides_equal_the_ring_formula(substituted, v_tilde, framing):
    assert (king_sides(substituted, v_tilde, framing)
            == king_sides_in_the_ring(substituted, v_tilde, framing))


@pytest.mark.parametrize("framing", range(-2, 3))
def test_cabling_identity_on_unknot_cables(framing):
    # the cable of the unknot is T(2, 2f), and F(O) = 1, so the left side
    # t^f (1 + t + t^-1) has no t^3f term at f != 0: the right side's
    # t^3f cancels
    cab = cable2(pd_parse("O"), framing).diagram
    v_cable = jones_memoized(cab)
    assert king_verify(TwoVarPoly({(0, 0): 1}), v_cable, framing)
    assert not king_verify(TwoVarPoly({(0, 0): 1}), v_cable, framing + 1)


SIX_CROSSING_KNOTS = [n for n in TABLE_NAMES if int(n.split("_")[0]) <= 6]


@pytest.mark.parametrize("name", SIX_CROSSING_KNOTS)
def test_king_verify_fails_off_the_identity(name):
    # the identity holds at the cable's own framing and at no other; one
    # changed coefficient of V, or an imaginary part added to V, breaks it
    knot = diagram(name)
    f_poly = kauffman_F(knot)
    for framing in range(-2, 3):
        cab = cable2(knot, framing).diagram
        v_cable = jones_memoized(cab, cab.n_crossings)
        assert king_verify(f_poly, v_cable, framing), framing
        for other in (framing - 1, framing + 1):
            assert not king_verify(f_poly, v_cable, other), (framing, other)
        for q in v_cable.terms:
            for bump in (1, GaussInt(0, 1)):
                changed = v_cable + LaurentPoly({q: bump})
                assert not king_verify(f_poly, changed, framing), (framing, q)
        assert not king_verify(f_poly, v_cable * GaussInt(0, 1), framing)


def test_king_check_uses_no_laurent_arithmetic(monkeypatch):
    # the two sides are term maps: with LaurentPoly's arithmetic raising,
    # the 6_1 case still gives its sides and passes
    want = king_sides_in_the_ring(SUBSTITUTION_61, JONES_CABLE_61, 0)

    def refuse(*args):
        raise AssertionError("LaurentPoly arithmetic in the cabling identity")

    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                 "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    with pytest.raises(AssertionError):
        JONES_CABLE_61 + JONES_CABLE_61
    assert king_sides(SUBSTITUTION_61, JONES_CABLE_61, 0) == want
    assert want[0] == want[1]
    assert king_verify(KAUFFMAN_61_CORRECTED, JONES_CABLE_61, 0)
    assert not king_verify(KAUFFMAN_61_CORRECTED, JONES_CABLE_61, 1)


def test_chain_times_the_king_check(report):
    assert "king" in report["timing"]


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


def cable_bracket(knot, framing):
    """<K~> at ``framing``, recovered from V as (-A^3)^w V; exponents count
    quarters of t = A^-4."""
    d = cable2(knot, framing).diagram
    w = d.writhe()
    return LaurentPoly({-3 * w: -1 if w % 2 else 1}) * jones_memoized(
        d, d.n_crossings)


# one framing step adds two crossings to the cable's twist region, whose
# Temperley-Lieb eigenvalues are A^2 and A^-6 for the step, so the
# brackets satisfy B(f+2) = (A^2 + A^-6) B(f+1) - A^-4 B(f)
TL_TRACE = LaurentPoly({-2: 1, 6: 1})
TL_DET = LaurentPoly({4: 1})


def satisfies_framing_recurrence(brackets) -> bool:
    return all(b2 == TL_TRACE * b1 - TL_DET * b0
               for b0, b1, b2 in zip(brackets, brackets[1:], brackets[2:]))


SMALL_KNOTS = [n for n in TABLE_NAMES if int(n.split("_")[0]) <= 7]


@pytest.mark.parametrize("name", SMALL_KNOTS)
def test_cable_brackets_follow_the_framing_recurrence(name):
    # the cabling twist region and the bracket sweep together, on cables
    # of up to 48 crossings, past the state-sum oracle's cap
    knot = diagram(name)
    assert satisfies_framing_recurrence(
        [cable_bracket(knot, f) for f in range(-3, 4)])


@settings(max_examples=20, deadline=None)
@given(knot_braid_words(6), st.integers(-2, 1))
def test_closure_cable_brackets_follow_the_framing_recurrence(word, shift):
    knot = trace_closure(braid_to_tangle(word))
    f = knot.writhe() + shift
    assert satisfies_framing_recurrence(
        [cable_bracket(knot, f + k) for k in range(3)])


def test_cable_of_a_link_raises():
    hopf = trace_closure(braid_to_tangle(braid_parse("s1 s1")))
    with pytest.raises(MultiComponent):
        cable2(hopf)


KING_A = LaurentPoly.t_pow(-2) * GaussInt.I
KING_Z = (LaurentPoly.t_pow(1) - LaurentPoly.t_pow(-1)) * GaussInt.I


def king_by_laurent_powers(f_poly):
    """The King substitution through Gaussian-integer Laurent powers,
    asserted real."""
    got = two_var_substitute(f_poly, KING_A, KING_Z)
    if any(c.im for c in got.terms.values()):
        raise ResidualImaginaryPart(f"nonzero imaginary coefficients in {got}")
    return got


def test_king_substitution_equals_laurent_route_on_the_table():
    for name in TABLE_NAMES:
        knot = diagram(name)
        for d in (knot, mirror(knot)):
            f_poly = kauffman_F(d)
            assert king_substitution(f_poly) == king_by_laurent_powers(f_poly), name


@settings(max_examples=60, deadline=None)
@given(knot_braid_words(9))
def test_king_substitution_equals_laurent_route_on_closures(word):
    f_poly = kauffman_F(trace_closure(braid_to_tangle(word)))
    assert king_substitution(f_poly) == king_by_laurent_powers(f_poly)


_a, _z = TwoVarPoly({(1, 0): 1}), TwoVarPoly({(0, 1): 1})
# (z^2 - 2)^2 + (a - a^-1)^2 lies in the kernel of the substitution, so a
# times it is made of terms with j + k odd whose imaginary parts cancel
_u, _v = _z * _z - 2, _a - TwoVarPoly({(-1, 0): 1})
_ODD_KERNEL = _a * _u * _u + _a * _v * _v


@pytest.mark.parametrize("f_poly", [_a, _z, TwoVarPoly({(2, 1): 3}) + 1,
                                    _ODD_KERNEL + _a - TwoVarPoly({(-1, 2): 1})])
def test_king_substitution_rejects_odd_terms(f_poly):
    for substitute in (king_substitution, king_by_laurent_powers):
        with pytest.raises(ResidualImaginaryPart):
            substitute(f_poly)


def test_king_substitution_keeps_cancelling_odd_terms():
    assert king_substitution(_ODD_KERNEL) == king_by_laurent_powers(_ODD_KERNEL) == 0
    f_poly = _ODD_KERNEL + TwoVarPoly({(2, 2): 7})
    assert king_substitution(f_poly) == king_by_laurent_powers(f_poly)


@pytest.mark.parametrize("f_poly", [TwoVarPoly({(0, -1): 1}),
                                    TwoVarPoly({(1, -1): 1}) + 1])
def test_king_substitution_rejects_negative_z_powers(f_poly):
    for substitute in (king_substitution, king_by_laurent_powers):
        with pytest.raises(NonInvertibleImage):
            substitute(f_poly)
