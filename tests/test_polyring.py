import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotcalc.errors import NonInvertibleImage, ResidualImaginaryPart
from knotcalc.polyring import (
    GaussInt,
    LaurentPoly,
    TwoVarPoly,
    _difference_power,
    _exp_str,
)

from ops import eval_at, power
from oracles import two_var_substitute

def t(exponent, coeff=1):
    """``coeff * t**exponent``, the scalar on the right."""
    return LaurentPoly.t_pow(exponent) * coeff


half = Fraction(1, 2)


def rand_laurent(rng, size=4, span=6):
    terms = {}
    for _ in range(rng.randint(0, size)):
        terms[rng.randint(-span, span)] = GaussInt(
            rng.randint(-4, 4), rng.randint(-2, 2))
    return LaurentPoly(terms)


def rand_twovar(rng, size=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, size)):
        terms[(rng.randint(-span, span), rng.randint(0, span))] = rng.randint(-4, 4)
    return TwoVarPoly(terms)


class TestGaussInt:
    def test_exact_ops(self):
        assert GaussInt(2, 3) * GaussInt(2, -3) == GaussInt(13, 0) == 13
        assert GaussInt.I * GaussInt.I == -1
        assert GaussInt(1, 1) + GaussInt(1, -1) == 2

    def test_str(self):
        assert str(GaussInt(-3)) == "-3"
        assert str(GaussInt(0, 1)) == "i"
        assert str(GaussInt(0, -2)) == "-2i"
        assert str(GaussInt(1, -1)) == "(1-i)"


class TestLaurentAdd:
    def test_cancellation(self):
        assert (t(1) + LaurentPoly.one()) + LaurentPoly({0: -1}) == t(1)

    def test_identity(self):
        p = t(3, 2) - t(half)
        assert p + LaurentPoly.zero() == p

    def test_no_like_terms(self):
        p = t(half) + t(-half)
        assert p.terms == {2: GaussInt.ONE, -2: GaussInt.ONE}


class TestLaurentMul:
    def test_binomial_square(self):
        p = t(half) + t(-half)
        assert p * p == t(1) + 2 + t(-1)

    def test_identity(self):
        p = t(2, -3) + t(-half, 5)
        assert p * LaurentPoly.one() == p

    def test_hand_expansion(self):
        # (t^{3/2} - t^{5/2}) * t^2 = t^{7/2} - t^{9/2}
        lhs = (t(Fraction(3, 2)) - t(Fraction(5, 2))) * t(2)
        assert lhs == t(Fraction(7, 2)) - t(Fraction(9, 2))


class TestRingAxioms:
    def test_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            p, q, r = (rand_laurent(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert (p + (-p)).terms == {}

    def test_twovar_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            p, q, r = (rand_twovar(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p + (-p)).terms == {}


def reference(p, q, key_add, c_add, c_mul, zero):
    """p + q and p * q of two term maps, term by term, zeros dropped."""
    total, product = {}, {}
    for k, c in [*p.items(), *q.items()]:
        total[k] = c_add(total.get(k, zero), c)
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = key_add(k1, k2)
            product[k] = c_add(product.get(k, zero), c_mul(c1, c2))
    return ({k: c for k, c in total.items() if c != zero},
            {k: c for k, c in product.items() if c != zero})


def gauss_reference(p, q):
    # Gaussian integers as (re, im) pairs
    return reference(p, q, lambda a, b: a + b,
                     lambda x, y: (x[0] + y[0], x[1] + y[1]),
                     lambda x, y: (x[0] * y[0] - x[1] * y[1],
                                   x[0] * y[1] + x[1] * y[0]), (0, 0))


def twovar_reference(p, q):
    return reference(p, q, lambda a, b: (a[0] + b[0], a[1] + b[1]),
                     lambda x, y: x + y, lambda x, y: x * y, 0)


GAUSS_TERMS = st.dictionaries(
    st.integers(-12, 12), st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    max_size=6)
Z_EDGE = st.one_of(st.integers(-4, 4), st.sampled_from([-2**19, 2**19 - 1]))


def twovar_terms(z):
    return st.dictionaries(st.tuples(st.integers(-4, 4), z),
                           st.integers(-5, 5), max_size=6)


class TestAgainstReference:
    """Sums, differences and products against term-by-term references
    computed from the term maps, not from the rings' own operations."""

    @given(GAUSS_TERMS, GAUSS_TERMS)
    def test_laurent(self, p, q):
        P, Q = (LaurentPoly({k: GaussInt(*c) for k, c in m.items()})
                for m in (p, q))
        pairs = lambda poly: {k: (c.re, c.im) for k, c in poly.terms.items()}
        total, product = gauss_reference(p, q)
        assert pairs(P + Q) == total
        assert pairs(P * Q) == product
        minus_q = {k: (-c[0], -c[1]) for k, c in q.items()}
        assert pairs(P - Q) == gauss_reference(p, minus_q)[0]

    @given(twovar_terms(Z_EDGE), twovar_terms(Z_EDGE),
           twovar_terms(st.integers(-4, 4)), twovar_terms(st.integers(-4, 4)),
           twovar_terms(st.just(0)))
    def test_twovar(self, p, q, r, r2, s):
        # s and the small r, r2 keep every product's z in the packed range
        P, Q, R, R2, S = map(TwoVarPoly, (p, q, r, r2, s))
        assert (P + Q).terms == twovar_reference(p, q)[0]
        assert (P - Q).terms == twovar_reference(
            p, {k: -c for k, c in q.items()})[0]
        assert (P * S).terms == twovar_reference(p, s)[1]
        assert (R * R2).terms == twovar_reference(r, r2)[1]

    def test_z_outside_the_packed_range(self):
        assert TwoVarPoly({(3, -2**19): 1}).terms == {(3, -2**19): 1}
        for z in (2**19, -2**19 - 1):
            with pytest.raises(ValueError):
                TwoVarPoly({(0, z): 1})


class TestEval:
    def test_alexander_values(self):
        p = t(1, 2) - 5 + t(-1, 2)
        assert eval_at(p, -1) == -9
        assert eval_at(p, 1) == -1
        assert eval_at(p, 3) == Fraction(5, 3)

    def test_constant(self):
        assert eval_at(LaurentPoly.one(), Fraction(7, 3)) == 1

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ValueError):
            eval_at(t(half), 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            eval_at(t(1), 0)

    def test_imaginary_coefficient_rejected(self):
        with pytest.raises(ResidualImaginaryPart):
            eval_at(t(2) + t(0, GaussInt.I), 2)


class TestSubstitution:
    A_IMG = t(-2, GaussInt.I)
    Z_IMG = (t(1) - t(-1)) * GaussInt.I

    def test_constant_fixed(self):
        assert two_var_substitute(TwoVarPoly.one(), self.A_IMG, self.Z_IMG) == 1

    def test_a_squared(self):
        got = two_var_substitute(TwoVarPoly({(2, 0): 1}), self.A_IMG,
                                 self.Z_IMG)
        assert got == -t(-4)

    def test_negative_z_needs_unit(self):
        f = TwoVarPoly({(0, -1): 1})
        with pytest.raises(NonInvertibleImage):
            two_var_substitute(f, self.A_IMG, self.Z_IMG)
        # a monomial unit image is fine
        assert two_var_substitute(f, self.A_IMG, t(2)) == t(-2)

    def test_residual_imaginary_flagged(self):
        f = TwoVarPoly({(1, 0): 1})
        with pytest.raises(ResidualImaginaryPart):
            eval_at(two_var_substitute(f, self.A_IMG, self.Z_IMG), 1)

    def test_morphism_randomized(self):
        rng = random.Random(3)
        for _ in range(60):
            f, g = rand_twovar(rng), rand_twovar(rng)
            sub = lambda p: two_var_substitute(p, self.A_IMG, self.Z_IMG)
            assert sub(f * g) == sub(f) * sub(g)
            assert sub(f + g) == sub(f) + sub(g)


class TestDisplayGrammar:
    def test_scalar_examples(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(t(1, 2) - 5 + t(-1, 2)) == "2t^-1 - 5 + 2t"
        assert str(-t(Fraction(-25, 2))) == "-t^-25/2"
        assert str(t(Fraction(-3, 4))) == "t^-3/4"
        assert str(t(1) - 1 + t(-1)) == "t^-1 - 1 + t"
        assert str(t(half, GaussInt.I)) == "it^1/2"

    def test_ascending_order(self):
        p = t(2) + t(-2) - t(0, 3)
        assert str(p) == "t^-2 - 3 + t^2"

    def test_twovar_grammar(self):
        f = (TwoVarPoly({(-2, 0): -1, (2, 0): 1, (4, 0): 1})
             + TwoVarPoly({(1, 1): 2, (3, 1): 2})
             + TwoVarPoly({(0, 5): 1}))
        assert str(f) == "-a^-2 + a^2 + a^4 + (2a + 2a^3)z + z^5"
        assert str(TwoVarPoly.zero()) == "0"
        assert str(TwoVarPoly({(0, -1): 1}) - 1) == "z^-1 - 1"


def fraction_exp_str(var, quarters):
    """The exponent rendering of ``_exp_str`` by way of a reduced Fraction."""
    if quarters == 0:
        return ""
    frac = Fraction(quarters, 4)
    if frac == 1:
        return var
    if frac.denominator == 1:
        return f"{var}^{frac.numerator}"
    return f"{var}^{frac.numerator}/{frac.denominator}"


class TestExponentStrings:
    QUARTERS = range(-400, 401)

    def test_exp_str_matches_fraction_formatting(self):
        for var in ("t", "a", "z"):
            for q in self.QUARTERS:
                assert _exp_str(var, q) == fraction_exp_str(var, q), (var, q)

    def test_laurent_strings(self):
        for q in self.QUARTERS:
            power = fraction_exp_str("t", q)
            assert str(LaurentPoly({q: 1})) == (power or "1")
            assert str(LaurentPoly({q: -3})) == f"-3{power}"
            assert LaurentPoly({q: 2}).to_str("A") == "2" + fraction_exp_str("A", q)

    def test_twovar_strings(self):
        # TwoVarPoly exponents are integers, whole multiples of 4 quarters
        for q in self.QUARTERS[::4]:
            k = q // 4
            a, z = fraction_exp_str("a", q), fraction_exp_str("z", q)
            assert str(TwoVarPoly({(k, 0): -1})) == "-" + (a or "1")
            assert str(TwoVarPoly({(0, k): 5})) == f"5{z}"
            if k:
                assert str(TwoVarPoly({(k, k): 1, (k + 1, k): 1})) == (
                    f"({a} + {fraction_exp_str('a', q + 4) or '1'}){z}")


class TestDifferencePower:
    def test_matches_laurent_powers(self):
        want = LaurentPoly.one()
        for k in range(12):
            assert LaurentPoly({4 * e: c for e, c in _difference_power(k)}) == want
            want = want * (t(1) - t(-1))


class TestUnits:
    """The King oracle's negative powers, taken by ``ops.power``."""

    def test_monomial_unit_inverse(self):
        for unit in (1, -1, GaussInt.I, -GaussInt.I):
            u = t(Fraction(3, 4), unit)
            assert u * power(u, -1) == LaurentPoly.one()
        for p in (t(1) + 1, t(1, 2), t(1, GaussInt(1, 1))):
            with pytest.raises(NonInvertibleImage):
                power(p, -1)

    def test_negative_pow(self):
        assert power(t(1), -3) == t(-3)
        assert power(t(half, GaussInt.I), -2) == -t(-1)


class TestExactInputs:
    """A key or coefficient that is not an int (or, in a LaurentPoly, a
    GaussInt) raises TypeError where it enters."""

    @pytest.mark.parametrize("terms", [{0.5: 1}, {0: 0.5}],
                             ids=["key", "coefficient"])
    def test_laurent_refuses_floats(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly(terms)

    @pytest.mark.parametrize("terms", [{(0, 0): 0.5}, {(0, 0): 2.7},
                                       {(0.5, 0): 1}],
                             ids=["half", "truncated", "key"])
    def test_twovar_refuses_floats(self, terms):
        with pytest.raises(TypeError):
            TwoVarPoly(terms)

    @pytest.mark.parametrize("exponent, quarters", [
        (3, 12), (-2, -8), (Fraction(-25, 2), -50), (Fraction(3, 4), 3),
        (Fraction(8, 4), 8)])
    def test_exponents_int_or_exact_rational(self, exponent, quarters):
        assert LaurentPoly.t_pow(exponent).terms == {quarters: 1}
        assert LaurentPoly.from_terms([(exponent, 2)]).terms == {quarters: 2}

    @pytest.mark.parametrize("exponent", [0.5, 1.0, "1/2", None])
    def test_exponent_refuses_inexact(self, exponent):
        with pytest.raises(TypeError):
            LaurentPoly.t_pow(exponent)

    @pytest.mark.parametrize("exponent", [Fraction(1, 8), Fraction(-5, 3)])
    def test_exponent_off_the_quarter_grid(self, exponent):
        with pytest.raises(ValueError, match="not a multiple of 1/4"):
            LaurentPoly.t_pow(exponent)

    def test_coerce_refuses_floats(self):
        with pytest.raises(TypeError):
            GaussInt.coerce(0.5)

    def test_gauss_int_plus_laurent_is_laurent(self):
        p = t(1)
        assert type(GaussInt(2) + p) is LaurentPoly
        assert GaussInt(2) + p == p + GaussInt(2)

    def test_unit_times_laurent_is_laurent(self):
        p = t(1)
        assert type(GaussInt.I * p) is LaurentPoly
        assert GaussInt.I * p == p * GaussInt.I == LaurentPoly({4: GaussInt.I})
