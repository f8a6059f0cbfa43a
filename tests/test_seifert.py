import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from knotcalc.diagram import pd_parse
from knotcalc.errors import DimensionMismatch, MultiComponent
from knotcalc.polyring import GaussInt, LaurentPoly
from knotcalc.seifert import (
    SeifertMatrix,
    alexander_from_seifert,
    determinant,
    elementary_enlarge,
    is_monic,
    normalize_alexander,
    seifert_circles,
    seifert_matrix,
    seifert_surface_genus,
    signature,
    _det_poly,
    _int_det,
    _seifert_form,
)
from knotcalc.skein import alexander_from_conway, conway
from knotcalc.presentations import BraidWord, braid_to_tangle, trace_closure

from ops import eval_at
from strategies import braid_words, knot_braid_words

TREFOIL = pd_parse("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
FIG8 = pd_parse("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
SIX_ONE = pd_parse("X[1,4,2,5] X[7,10,8,11] X[3,9,4,8] X[9,3,10,2] X[5,12,6,1] X[11,6,12,7]")
HOPF = pd_parse("X[4,1,3,2] X[2,3,1,4]")


def _unit_multiple(p, q):
    if p.is_zero() or q.is_zero():
        return p == q
    shifted = q * LaurentPoly({min(p.terms) - min(q.terms): 1})
    return p == shifted or p == -shifted


class TestCirclesAndGenus:
    def test_unknot(self):
        assert seifert_surface_genus(pd_parse("O")) == 0

    def test_trefoil(self):
        assert len(seifert_circles(TREFOIL)) == 2
        assert seifert_surface_genus(TREFOIL) == 1

    def test_six_one(self):
        assert seifert_surface_genus(SIX_ONE) == 1

    def test_multicomponent_rejected(self):
        with pytest.raises(MultiComponent):
            seifert_surface_genus(HOPF)
        with pytest.raises(MultiComponent):
            seifert_matrix(HOPF)


class TestSeifertMatrix:
    def test_unknot_empty(self):
        s = seifert_matrix(pd_parse("O"))
        assert s.size == 0
        assert alexander_from_seifert(s) == 1

    def test_trefoil(self):
        s = seifert_matrix(TREFOIL)
        assert s.size == 2
        assert alexander_from_seifert(s) == LaurentPoly.from_terms(
            [(-1, 1), (0, -1), (1, 1)])
        assert determinant(s) == 3
        assert signature(s) == -2

    def test_figure_eight(self):
        s = seifert_matrix(FIG8)
        assert alexander_from_seifert(s) == LaurentPoly.from_terms(
            [(-1, 1), (0, -3), (1, 1)])
        assert determinant(s) == 5
        assert signature(s) == 0

    def test_six_one(self):
        s = seifert_matrix(SIX_ONE)
        assert alexander_from_seifert(s) == LaurentPoly.from_terms(
            [(-1, 2), (0, -5), (1, 2)])
        assert determinant(s) == 9
        assert signature(s) == 0

    def test_intersection_form_unimodular(self, table_diagrams):
        # the face loops are a basis of the diagram's own Seifert surface:
        # c - s + 1 of them, with a unimodular intersection form
        for name, d in table_diagrams.items():
            s = seifert_matrix(d)
            n = s.size
            circles = len(seifert_circles(d))
            assert n == d.n_crossings - circles + 1, name
            assert n == 2 * seifert_surface_genus(d), name
            form = [[s.matrix[i][j] - s.matrix[j][i] for j in range(n)]
                    for i in range(n)]
            assert abs(_int_det(form)) == 1, name

    def test_positive_trefoil_signature(self):
        pos = trace_closure(braid_to_tangle(BraidWord(2, (1, 1, 1))))
        assert signature(seifert_matrix(pos)) == 2


class TestAlexanderProperties:
    def test_symmetry_and_unit_value_tablewide(self, table_diagrams):
        for name, d in table_diagrams.items():
            delta = alexander_from_seifert(seifert_matrix(d))
            assert {-q: c for q, c in delta.terms.items()} == delta.terms, name
            assert eval_at(delta, 1) in (1, -1), name

    def test_cross_path_agreement(self, table_diagrams):
        for name in ("3_1", "4_1", "5_1", "5_2", "6_2", "7_4", "8_13"):
            d = table_diagrams[name]
            seifert_path = alexander_from_seifert(seifert_matrix(d))
            conway_path = alexander_from_conway(conway(d))
            assert _unit_multiple(seifert_path, conway_path), name


def normalize_by_shift(p):
    """Center by a Fraction shift and sign by the leading coefficient."""
    if p.is_zero():
        return p
    p = p * LaurentPoly.t_pow(-Fraction(min(p.terms) + max(p.terms), 8))
    if {-q: c for q, c in p.terms.items()} != p.terms:
        raise AssertionError("Alexander polynomial is not symmetric")
    lead = p.terms[max(p.terms)]
    if lead.im != 0:
        raise AssertionError("Alexander polynomial has imaginary parts")
    return -p if lead.re < 0 else p


class TestNormalizeAlexander:
    def test_equals_shift_route(self, table_diagrams):
        rng = random.Random(18)
        for name, d in table_diagrams.items():
            delta = alexander_from_seifert(seifert_matrix(d))
            for k in (0, rng.randint(-9, 9), rng.randint(-40, 40)):
                for unit in (1, -1, GaussInt(0, 1)):
                    p = delta * LaurentPoly({k: unit})
                    try:
                        want = normalize_by_shift(p)
                    except AssertionError as e:  # the unit i
                        with pytest.raises(AssertionError, match=str(e)):
                            normalize_alexander(p)
                    else:
                        assert normalize_alexander(p) == want, (name, k, unit)

    def test_zero_stays_zero(self):
        assert normalize_alexander(LaurentPoly.zero()).is_zero()

    @pytest.mark.parametrize("p, error, match", [
        (LaurentPoly.from_terms([(0, 1), (1, 1), (2, 2)]),
         AssertionError, "not symmetric"),
        (LaurentPoly.from_terms([(-1, 1), (0, 3)]), AssertionError, "not symmetric"),
        (LaurentPoly({-4: GaussInt(0, 2), 0: 1, 4: GaussInt(0, 2)}),
         AssertionError, "imaginary parts"),
        (LaurentPoly({-4: GaussInt(0, 1), 0: GaussInt(0, 1), 4: GaussInt(1, 1)}),
         AssertionError, "not symmetric"),
        (LaurentPoly({0: 1, 1: 1}), ValueError, "not a multiple of 1/4"),
    ], ids=["asymmetric", "asymmetric-short", "imaginary", "asymmetric-complex",
            "eighth"])
    def test_errors_as_the_shift_route(self, p, error, match):
        for normalize in (normalize_alexander, normalize_by_shift):
            with pytest.raises(error, match=match):
                normalize(p)

    @settings(max_examples=60, deadline=None)
    @given(knot_braid_words(8))
    def test_seifert_route_equals_shift_route(self, word):
        s = seifert_matrix(trace_closure(braid_to_tangle(word)))
        n = s.size
        raw = LaurentPoly.from_terms(enumerate(_det_poly(
            [[-s.matrix[j][i] for j in range(n)] for i in range(n)], s.matrix)))
        assert alexander_from_seifert(s) == normalize_by_shift(raw)


class TestMonicity:
    def test_examples(self):
        trefoil = LaurentPoly.from_terms([(-1, 1), (0, -1), (1, 1)])
        stevedore = LaurentPoly.from_terms([(-1, 2), (0, -5), (1, 2)])
        assert is_monic(trefoil)
        assert not is_monic(stevedore)
        assert is_monic(LaurentPoly.one())


def random_unimodular(rng, n):
    # product of elementary integer row operations stays unimodular
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def congruent(s, p):
    n = len(s)
    pt_s = [[sum(p[k][i] * s[k][l] for k in range(n)) for l in range(n)]
            for i in range(n)]
    return [[sum(pt_s[i][k] * p[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


class TestSEquivalenceInvariance:
    def test_congruence_invariance(self):
        rng = random.Random(23)
        s = seifert_matrix(SIX_ONE).matrix
        base = (alexander_from_seifert(s), determinant(s), signature(s))
        for _ in range(10):
            p = random_unimodular(rng, len(s))
            moved = congruent([list(r) for r in s], p)
            assert alexander_from_seifert(moved) == base[0]
            assert determinant(moved) == base[1]
            assert signature(moved) == base[2]

    def test_enlargement_empty(self):
        grown = elementary_enlarge(SeifertMatrix(()), "row", [])
        assert grown.size == 2
        assert alexander_from_seifert(grown) == 1

    def test_enlargement_invariance(self):
        rng = random.Random(31)
        s = seifert_matrix(TREFOIL)
        base = (alexander_from_seifert(s), determinant(s), signature(s))
        for mode in ("row", "column"):
            grown = s
            for _ in range(2):
                x = [rng.randint(-3, 3) for _ in range(grown.size)]
                grown = elementary_enlarge(grown, mode, x)
            assert grown.size == s.size + 4
            assert alexander_from_seifert(grown) == base[0]
            assert determinant(grown) == base[1]
            assert signature(grown) == base[2]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            elementary_enlarge(seifert_matrix(TREFOIL), "row", [1])
        with pytest.raises(DimensionMismatch):
            elementary_enlarge(seifert_matrix(TREFOIL), "diag", [1, 2])

    @pytest.mark.parametrize("call", [
        lambda: determinant([[1.5]]),
        lambda: alexander_from_seifert([[-1.9, 1], [0, 1.2]]),
        lambda: signature([[True, 0], [0, False]]),
        lambda: determinant([["1", "0"], ["0", "1"]]),
        lambda: elementary_enlarge(seifert_matrix(TREFOIL), "row", [0.7, 2]),
    ], ids=["float", "floats", "bools", "strings", "enlarge-float"])
    def test_non_integer_entries_rejected(self, call):
        # no int() truncation: 1.5 would give determinant 2
        with pytest.raises(DimensionMismatch, match="integer"):
            call()

    def test_odd_size_rejected(self):
        # det(tS - S^T) is antisymmetric for odd n, so no knot has such S
        for s in ([[1]], [[1, 0, 0], [1, -1, 0], [0, 1, 1]]):
            with pytest.raises(DimensionMismatch, match="even size"):
                alexander_from_seifert(s)


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def half_form(q):
    """An integer S with ``S + S^T = q`` (q symmetric, even diagonal)."""
    n = len(q)
    return [[q[i][j] if i < j else q[i][i] // 2 if i == j else 0
             for j in range(n)] for i in range(n)]


def fraction_det(m):
    """Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    assert det.denominator == 1
    return int(det)


def sparse_matrix(rng, n, width=None):
    """Mostly zero entries; with ``width``, only those within the band
    |i - j| <= width, so row r stays 0 in the pivot column for the
    first r - width steps and then becomes active."""
    return [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9)))
             if width is None or abs(i - j) <= width else 0
             for j in range(n)] for i in range(n)]


def stale_pivot_matrix(rng, n):
    """Row k is 0 in its first k + 1 columns, so step k finds no pivot on
    the diagonal; row k + 1 is 0 in its first k columns, so it sits idle
    through steps 0..k-1 and is swapped in stale.  The leading k x k block
    has a determinant other than +-1, so a row left stale is wrong."""
    while True:
        k = rng.randrange(1, n - 2)
        m = sparse_matrix(rng, n)
        for i in range(k):
            m[i][:k] = [rng.randint(-4, 4) for _ in range(k)]
        if abs(fraction_det([row[:k] for row in m[:k]])) > 1:
            break
    m[k][:k + 1] = [0] * (k + 1)
    m[k + 1][:k + 1] = [0] * k + [rng.choice((-3, -2, 2, 3))]
    return m


class TestExactDeterminant:
    def test_int_det_matches_leibniz(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randrange(0, 7)
            m = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9)))
                  for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                m[rng.randrange(n)] = list(m[rng.randrange(n)])
            assert _int_det(m) == leibniz_det(m), m

    @pytest.mark.parametrize("shape", ["sparse", "banded", "stale-pivot"])
    def test_int_det_matches_fractions(self, shape):
        rng = random.Random(f"skip-{shape}")
        for _ in range(150):
            n = rng.randrange(7, 17)
            if shape == "sparse":
                m = sparse_matrix(rng, n)
            elif shape == "banded":
                m = sparse_matrix(rng, n, width=rng.randrange(1, 4))
            else:
                m = stale_pivot_matrix(rng, n)
            assert _int_det(m) == fraction_det(m), m

    def test_int_det_of_singular_matrices(self):
        rng = random.Random(47)
        for _ in range(150):
            n = rng.randrange(7, 17)
            m = sparse_matrix(rng, n, width=rng.choice((None, 1, 2)))
            i, j, r = rng.sample(range(n), 3)
            c = rng.choice((-2, -1, 1, 2))
            m[r] = [x + c * y for x, y in zip(m[i], m[j])]
            if rng.random() < 0.5:  # the dependent row is met last
                m[r], m[-1] = m[-1], m[r]
            assert fraction_det(m) == 0
            assert _int_det(m) == 0, m
            assert _int_det([list(col) for col in zip(*m)]) == 0, m

    def test_signature_sylvester(self):
        # Q = P^T D P is congruent to D, so its inertia is D's.  D's
        # hyperbolic blocks [[0, 1], [1, 0]], zero blocks and +-T, T the
        # 3 x 3 form of zero diagonal and ones elsewhere (inertia 1 positive,
        # 2 negative), leave a trailing diagonal of zeros once the +-2
        # entries are pivots, which only the congruence step gets past
        rng = random.Random(43)
        blocks = {"2": ([[2]], 1), "-2": ([[-2]], -1), "zero": ([[0]], 0),
                  "hyperbolic": ([[0, 1], [1, 0]], 0),
                  "T": ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], -1),
                  "-T": ([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]], 1)}
        for _ in range(200):
            n = rng.randrange(1, 11)
            d = [[0] * n for _ in range(n)]
            i = expected = 0
            while i < n:
                block, sig = blocks[rng.choice(list(blocks))]
                if i + len(block) > n:
                    continue
                for r, row in enumerate(block):
                    d[i + r][i:i + len(row)] = row
                i, expected = i + len(block), expected + sig
            order = rng.sample(range(n), n)
            shuffle = [[int(order[i] == j) for j in range(n)]
                       for i in range(n)]
            for p in (shuffle, random_unimodular(rng, n)):
                q = congruent(d, p)
                assert signature(half_form(q)) == expected, (d, q)


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def charpoly_signature(s):
    """Positive minus negative roots of ``det(t I - Q)``, ``Q = S + S^T``,
    by Descartes' rule of signs, exact as the roots are all real."""
    n = len(s)
    q = [[s[i][j] + s[j][i] for j in range(n)] for i in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = _det_poly([[-x for x in row] for row in q], ident)
    mirrored = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
    return sign_changes(coeffs) - sign_changes(mirrored)


@st.composite
def even_forms(draw, max_size=9):
    """Half ``S`` of a random symmetric ``Q`` with even diagonal, entries
    mostly 0; half of the forms have a zero diagonal, so that the
    congruence step runs."""
    n = draw(st.integers(0, max_size))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    diagonal = st.just(0) if draw(st.booleans()) else entry
    return [[draw(entry if i < j else diagonal) if i <= j else 0
             for j in range(n)] for i in range(n)]


class TestSignatureAgainstCharpoly:
    @settings(max_examples=150, deadline=None)
    @given(even_forms())
    def test_random_forms(self, s):
        assert signature(s) == charpoly_signature(s)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(12, strands=(3, 4, 5)))
    def test_braid_closures(self, word):
        d = trace_closure(braid_to_tangle(word))
        assume(not d.free_loops and d.connected_pieces() == 1)
        s = _seifert_form(d).matrix
        assert signature(s) == charpoly_signature(s)


def torus_alexander(q):
    """(t^3q - 1)(t - 1) / ((t^3 - 1)(t^q - 1)), centered at t^0."""
    num = [0] * (3 * q + 2)
    for e, c in ((3 * q + 1, 1), (3 * q, -1), (1, -1), (0, 1)):
        num[e] += c
    den = [0] * (q + 4)
    for e, c in ((q + 3, 1), (q, -1), (3, -1), (0, 1)):
        den[e] += c
    quot = [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quot))):  # den is monic
        quot[k] = num[k + len(den) - 1]
        for i, c in enumerate(den):
            num[k + i] -= quot[k] * c
    assert not any(num)
    mid = (len(quot) - 1) // 2
    return LaurentPoly.from_terms((k - mid, c) for k, c in enumerate(quot))


def torus_signature(q):
    """Gordon-Litherland-Murasugi: over 1 <= i <= 2, 1 <= j <= q - 1, the
    points with 1/2 < i/3 + j/q < 3/2 count +1 and the others -1."""
    return sum(1 if Fraction(1, 2) < Fraction(i, 3) + Fraction(j, q)
               < Fraction(3, 2) else -1
               for i in (1, 2) for j in range(1, q))


@pytest.mark.parametrize("q", [q for q in range(2, 41) if q % 3])
def test_torus_knots_t3q(q):
    # q = 40 gives a 78 x 78 matrix
    d = trace_closure(braid_to_tangle(BraidWord(3, (1, 2) * q)))
    s = seifert_matrix(d)
    assert s.size == 2 * (q - 1)
    delta = alexander_from_seifert(s)
    assert delta == torus_alexander(q)
    assert determinant(s) == abs(eval_at(delta, -1))
    assert signature(s) == torus_signature(q)


class TestSeifertAgainstConway:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(braid_words())
    def test_alexander_and_determinant(self, word):
        d = trace_closure(braid_to_tangle(word))
        assume(d.n_components == 1)
        s = seifert_matrix(d)
        delta = alexander_from_seifert(s)
        assert _unit_multiple(delta, alexander_from_conway(conway(d)))
        assert determinant(s) == abs(eval_at(delta, -1))
