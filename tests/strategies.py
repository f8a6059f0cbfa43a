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


@st.composite
def planted_pair_words(draw, max_letters=8, strands=(3, 4, 5), max_pairs=3):
    """``braid_words(max_letters, strands)`` with 1 to ``max_pairs`` pairs
    s_j^e s_j^f planted next to a letter s_g, |j - g| <= 1.  A pair of
    opposite signs makes an R2 bigon and one of equal signs a twisted
    pair, so both are common in the closures."""
    word = draw(braid_words(max_letters, strands))
    letters = list(word.letters)
    for _ in range(draw(st.integers(1, max_pairs))):
        k = draw(st.integers(0, len(letters) - 1))
        g = abs(letters[k])
        j = draw(st.integers(max(1, g - 1), min(word.strands - 1, g + 1)))
        e, f = draw(st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))))
        at = k + draw(st.integers(0, 1))
        letters[at:at] = [e * j, f * j]
    return BraidWord(word.strands, tuple(letters))


@st.composite
def twisted_pair_words(draw, max_letters=8, strands=(3, 4, 5, 6)):
    """Words on n strands whose closure holds a twisted pair: strand
    position j is met by one letter s_(j-1)^e, one s_j^e of the same sign
    e and no other letter.  The two arcs at position j then join those
    two records, one running over at both and the other under at both,
    and strands on either side of them keep them from bounding a face."""
    n = draw(st.sampled_from(strands))
    j = draw(st.integers(2, n - 1))
    others = [g for g in range(1, n) if g not in (j - 1, j)]
    letters = []
    if others:
        letter = st.tuples(st.sampled_from(others), st.sampled_from((1, -1)))
        letters = [g * e for g, e in draw(st.lists(letter,
                                                   max_size=max_letters))]
    e = draw(st.sampled_from((1, -1)))
    for g in (j - 1, j):
        letters.insert(draw(st.integers(0, len(letters))), e * g)
    return BraidWord(n, tuple(letters))


@st.composite
def over_strand_words(draw, max_letters=10, strands=(3, 4, 5)):
    """Words whose closure is a link with a component that is never the
    under strand.  A cycle of the braid permutation that no letter meets
    twice is drawn, and every letter that meets one of its strands gets
    the sign that puts that strand over: a positive letter carries the
    strand moving left over, a negative one the strand moving right.
    A drawn cycle that no letter meets is a strand standing still, which
    two letters s_j s_j beside it carry out and back; a word with no such
    cycle gets a new strand on the right, carried out and back the same
    way."""
    word = draw(braid_words(max_letters, strands))
    n, letters = word.strands, word.letters
    perm = word.permutation()
    meets = []  # the two strands, by their top position, each letter meets
    pos = list(range(n))  # strand at each position
    for letter in letters:
        i = abs(letter) - 1
        meets.append((pos[i], pos[i + 1]))
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    cycles, seen = [], set()
    for k in range(n):
        if k not in seen:
            cycle, j = {k}, perm[k]
            while j != k:
                cycle.add(j)
                j = perm[j]
            seen |= cycle
            if not any(x in cycle and y in cycle for x, y in meets):
                cycles.append(cycle)
    if cycles:
        cycle = draw(st.sampled_from(cycles))
    else:
        cycle, n = {n}, n + 1
    if not any(x in cycle or y in cycle for x, y in meets):
        (k,) = cycle
        letters += (min(k + 1, n - 1),) * 2
    pos = list(range(n))
    out = []
    for letter in letters:
        i = abs(letter) - 1
        left, right = pos[i] in cycle, pos[i + 1] in cycle
        out.append(-(i + 1) if left else i + 1 if right else letter)
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    return BraidWord(n, tuple(out))
