"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from knotcalc.presentations import BraidWord


def braid_words(max_letters=9, strands=(3, 4)):
    """Mixed-sign words of 2 to ``max_letters`` letters on a strand count
    drawn from ``strands``."""
    def word(n):
        gens = st.integers(1, n - 1)
        letter = st.tuples(gens, st.booleans()).map(
            lambda x: x[0] if x[1] else -x[0])
        return st.lists(letter, min_size=2, max_size=max_letters).map(
            lambda ls: BraidWord(n, tuple(ls)))
    return st.sampled_from(strands).flatmap(word)


def knot_braid_words(max_letters):
    """``braid_words(max_letters)`` with a letter s_i appended for each i
    whose strands i and i+1 still lie in different cycles of the braid
    permutation; each such letter merges two cycles, so the closure is a
    knot."""
    def knotted(word):
        letters = word.letters
        for i in range(1, word.strands):
            perm = BraidWord(word.strands, letters).permutation()
            k = perm[i - 1]
            while k not in (i - 1, i):
                k = perm[k]
            if k == i - 1:  # the cycle of i - 1 misses i
                letters += (i,)
        return BraidWord(word.strands, letters)
    return braid_words(max_letters).map(knotted)
