"""The chord sweep's bookkeeping: accumulation of products and capping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from knotcalc.chords import _add_product, _caps

# term maps {key: nonzero coefficient} over a few keys, so that sums meet
terms = st.dictionaries(st.integers(-2, 2),
                        st.integers(-3, 3).filter(bool), min_size=1,
                        max_size=3)


@st.composite
def products(draw):
    """(diagram, poly, factor) triples, some followed by their negation,
    which cancels them."""
    out = []
    for key, poly, factor in draw(st.lists(
            st.tuples(st.sampled_from("abc"), terms, terms), max_size=8)):
        out.append((key, poly, factor))
        if draw(st.booleans()):
            out.append((key, {e: -c for e, c in poly.items()}, factor))
    return draw(st.permutations(out))


@settings(max_examples=300)
@given(products())
def test_add_product_is_the_sum_with_cancelled_terms_dropped(triples):
    acc: dict = {}
    naive: dict = {}
    for key, poly, factor in triples:
        assert _add_product(acc, key, poly, factor) is None
        sums = naive.setdefault(key, {})
        for e1, c1 in poly.items():
            for e2, c2 in factor.items():
                sums[e1 + e2] = sums.get(e1 + e2, 0) + c1 * c2
    naive = {key: {e: c for e, c in sums.items() if c}
             for key, sums in naive.items()}
    naive = {key: poly for key, poly in naive.items() if poly}
    assert acc == naive
    assert all(poly and all(poly.values()) for poly in acc.values())


def rescan_caps(frontier: list) -> tuple[tuple, list[int]]:
    """The caps found by a rescan from position 0 after every cap: the
    first neighbouring pair (the last and the first are neighbours) that
    carries one arc, until none does."""
    renum = [0] * len(frontier)
    at = list(range(len(frontier)))  # each position's number before
    caps = []
    while len(frontier) > 1:
        n = len(frontier)
        for q in range(n):
            if frontier[q] == frontier[(q + 1) % n]:
                break
        else:
            break
        q2 = (q + 1) % n
        caps.append((at[q], at[q2]))
        for k in (max(q, q2), min(q, q2)):
            del frontier[k], at[k]
    for new, old in enumerate(at):
        renum[old] = new
    return tuple(caps), renum


def at_most_twice(labels: list) -> list:
    return [x for i, x in enumerate(labels) if labels[:i].count(x) < 2]


@settings(max_examples=500)
@given(st.lists(st.integers(0, 9), max_size=20).map(at_most_twice)
       .filter(lambda f: len(f) <= 14))
def test_caps_match_the_rescan(frontier):
    want = list(frontier)
    expected = rescan_caps(want)
    got = list(frontier)
    assert _caps(got) == expected
    assert got == want


def test_caps_wrap_around_the_frontier():
    frontier = [1, 2, 3, 3, 2, 4, 1]
    assert _caps(frontier) == (((2, 3), (1, 4), (6, 0)), [0] * 7)
    assert frontier == [4]
