"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from knotcalc.presentations import BraidWord


def braid_words():
    """Mixed-sign words of 2 to 9 letters on 3 or 4 strands."""
    def word(strands):
        gens = st.integers(1, strands - 1)
        letter = st.tuples(gens, st.booleans()).map(
            lambda x: x[0] if x[1] else -x[0])
        return st.lists(letter, min_size=2, max_size=9).map(
            lambda ls: BraidWord(strands, tuple(ls)))
    return st.sampled_from((3, 4)).flatmap(word)
