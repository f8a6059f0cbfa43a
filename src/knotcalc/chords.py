"""The Kauffman skein of a disk, and the frontier sweep of L over it.

The crossings swept so far fill a disk whose boundary meets the open
arcs at frontier positions, numbered counterclockwise.  The skein of the
disk has a basis of layered chord diagrams: straight chords pair the
positions, each at its own height, so two chords cross exactly when their
ends interleave.  Each matching has one normal diagram, its chords by
left end, top layer first, and a state maps normal diagrams to
polynomials in a and z.  Layers are reordered by ``L(c1 over c2) = -L(c2
over c1) + z (L(S0) + L(Soo))``, where S0 and Soo are the two pairings of
the four ends that do not cross: the unoriented skein relation of the
Kauffman polynomial at the crossing of c1 and c2.

``chord_sweep`` attaches the crossings one at a time.  The next is the
one holding the most frontier arcs, then the one with the longest block
of them in a row (``_next_block``).  It enters in three steps:

* a cup, when its block has one position p: a chord on two new
  positions p + 1, p + 2, which crosses nothing;
* the crossing, on positions p and p + 1 (``_cross``): the chord at p
  goes on to p + 1 and the chord at p + 1 on to p, over or under by the
  record's slots.  This is one generator of the Birman-Wenzl algebra
  acting on the diagram.  One chord makes a curl (``a^+-1``).  Two chords
  keep their heights and exchange those ends, which is a layered diagram
  when the upper one runs over, and otherwise takes one layer swap;
* the caps (``_caps``): two neighbouring positions that carry one arc
  are joined, closing a circle (``(a + a^-1) z^-1 - 1``, the last one 1)
  or a curl (``a^+-1``).  They match like brackets over the positions
  before the first cap, in which they are listed, and the positions left
  are renumbered once, at the end.

So the sweep gives the regular-isotopy invariant L with ``L(unknot) =
1``, ``L(curl+) = a L`` and ``L(s+) + L(s-) = z(L(s0) + L(soo))`` of one
connected piece of PD records.

A record's step is its cup, its position p, which strand runs over and
its caps.  A step's expansion of a normal diagram depends on nothing
else, so the sweep keeps each one in a dict, keyed by the step, for
every later diagram that meets the same step; each state's polynomial is
multiplied in afterwards.  Periodic braids such as T(3, n) meet most of
their steps again.

Polynomials are term maps {key: int coefficient} of ``TwoVarPoly``,
whose packing ``polyring`` owns: a^i z^j is keyed ``i * A_STEP + j``, so
a monomial factor adds its key to every key, and ``polyring.times``
multiplies two maps.  Products are summed into a dict of diagrams by
``_add_product``, which drops a coefficient that cancels, and a diagram
whose polynomial cancels, where it adds.  ``unpack`` wraps one as a
``TwoVarPoly``.
"""

from __future__ import annotations

from bisect import bisect_left

from .polyring import A_STEP, TwoVarPoly, times

__all__ = ["ONE", "CIRCLE", "chord_sweep", "unpack"]

ONE = {0: 1}
_P_Z = {1: 1}
_P_A = {A_STEP: 1}
_P_A_INV = {-A_STEP: 1}
CIRCLE = {A_STEP - 1: 1, -A_STEP - 1: 1, 0: -1}  # (a + a^-1) z^-1 - 1
# a crossing on frontier positions 0..3 (its slots): over chord 1-3 above
# under chord 0-2 is -(0-2 above 1-3) + z (0-1, 2-3) + z (0-3, 1-2)
_CROSSING = {(0, 2, 1, 3): {0: -1}, (0, 1, 2, 3): {1: 1}, (0, 3, 1, 2): {1: 1}}

# Chord diagrams are flat tuples (l0, r0, l1, r1, ...) of chords l < r,
# top layer first; a normal diagram lists its chords by left end.


def _skein_swap(above: tuple, upper: tuple, lower: tuple, below: tuple,
                table: dict, then) -> dict:
    """``then`` of the diagram above + upper + lower + below, the crossing
    chords ``upper`` and ``lower`` in adjacent layers, by the layer swap
    relation; S0 and Soo pair each end with a neighbouring one."""
    ul, ur = upper
    dl, dr = lower
    w, x, y, z = (ul, dl, ur, dr) if ul < dl else (dl, ul, dr, ur)
    acc = {key: {e: -c for e, c in poly.items()}
           for key, poly in then(above + lower + upper + below, table).items()}
    for pair in ((w, x, y, z), (w, z, x, y)):
        for key, poly in then(above + pair + below, table).items():
            _add_product(acc, key, poly, _P_Z)
    return acc


def _crossing(l: int, r: int, el: int, er: int) -> bool:
    """Whether the chords l-r and el-er cross: their ends interleave."""
    return (el < l < er) != (el < r < er)


def _normal(layers: tuple, table: dict) -> dict:
    """The expansion {normal diagram: polynomial} of a chord diagram.
    Insertion sort lifts each chord above those with a greater left end:
    past a chord it does not cross for free, past one it crosses by the
    layer swap relation."""
    got = table.get(layers)
    if got is not None:
        return got
    done: list[int] = []  # the sorted diagram of the chords met so far
    for k in range(0, len(layers), 2):
        l, r = layers[k], layers[k + 1]
        j = len(done)
        while j and done[j - 2] > l:
            el, er = done[j - 2], done[j - 1]
            if _crossing(l, r, el, er):
                got = _skein_swap(tuple(done[:j - 2]), (el, er), (l, r),
                                  tuple(done[j:]) + layers[k + 2:],
                                  table, _normal)
                table[layers] = got
                return got
            j -= 2
        done[j:j] = (l, r)
    return {tuple(done): ONE}


def _cap(layers: tuple, q: int, q2: int, table: dict) -> dict:
    """The expansion {chord diagram: polynomial} of ``layers`` capped at
    the frontier positions q and q2, q2 next after q counterclockwise
    among the positions in ``layers``; the other positions keep their
    numbers.

    One chord closes a circle.  Two are joined in the upper one's layer
    once the lower one is lifted to just below it: past a chord it does
    not cross for free, and at the nearest one it crosses by the layer
    swap relation, each diagram the swap gives capped again.  Joining
    crossing chords makes a curl, ``a`` when the chord at q2 is on top,
    ``a^-1`` when the chord at q is.  The diagrams are left unsorted."""
    i1, i2 = layers.index(q), layers.index(q2)
    c1, c2 = i1 & ~1, i2 & ~1  # where their chords start
    if c1 == c2:
        kept = layers[:c1] + layers[c1 + 2:]
        return {kept: CIRCLE if kept else ONE}
    lo, hi = (c1, c2) if c1 < c2 else (c2, c1)
    dl, dr = layers[hi], layers[hi + 1]
    for j in range(hi - 2, lo, -2):
        if _crossing(dl, dr, layers[j], layers[j + 1]):
            memo_key = (layers, q, q2)
            got = table.get(memo_key)
            if got is None:
                got = table[memo_key] = _skein_swap(
                    layers[:j], layers[j:j + 2], layers[hi:hi + 2],
                    layers[j + 2:hi] + layers[hi + 2:], table,
                    lambda ls, t: _cap(ls, q, q2, t))
            return got
    x, y = layers[i1 ^ 1], layers[i2 ^ 1]
    kept = (layers[:lo] + ((x, y) if x < y else (y, x)) + layers[lo + 2:hi]
            + layers[hi + 2:])
    if _crossing(dl, dr, layers[lo], layers[lo + 1]):
        return {kept: _P_A if c2 == lo else _P_A_INV}
    return {kept: ONE}


def _cross(layers: tuple, p: int, a_over: bool, table: dict) -> dict:
    """The expansion {chord diagram: polynomial} of the normal diagram
    ``layers`` with a crossing attached on its frontier positions p and
    p + 1: the chord A at p goes on to p + 1, and the chord B at p + 1
    on to p, A over B when ``a_over``.

    One chord makes a curl.  Two chords keep their heights and exchange
    their ends at p and p + 1; if the upper one runs over, that is a
    layered diagram, and otherwise it is the other side of the skein
    relation ``L(X) = -L(X switched) + z (L(D) + L(Doo))`` of the new
    crossing, where D is ``layers`` and Doo caps A to B at p and p + 1
    and adds the chord (p, p + 1)."""
    i, j = layers.index(p), layers.index(p + 1)
    if i ^ j == 1:
        return {layers: _P_A if a_over else _P_A_INV}
    swapped = list(layers)
    swapped[i], swapped[j] = p + 1, p
    swapped = tuple(swapped)
    if (i < j) == a_over:
        return {swapped: ONE}
    terms = {swapped: {0: -1}, layers: _P_Z}
    for capped, poly in _cap(layers, p, p + 1, table).items():
        at = 2 * bisect_left(capped[::2], p)
        terms[capped[:at] + (p, p + 1) + capped[at:]] = times(_P_Z, poly)
    return terms


def _add_product(acc: dict, key, poly: dict, factor: dict) -> None:
    """acc[key] += poly * factor; a coefficient that cancels is dropped,
    and so is the key when its whole polynomial does."""
    target = acc.get(key)
    if target is None:
        acc[key] = times(factor, poly)
        return
    get = target.get
    for e2, c2 in factor.items():
        for e1, c1 in poly.items():
            e = e1 + e2
            c = get(e, 0) + c1 * c2
            if c:
                target[e] = c
            else:
                del target[e]
    if not target:
        del acc[key]


def _caps(frontier: list) -> tuple[tuple, list[int]]:
    """Cap every two neighbouring frontier positions (the last and the
    first are neighbours) that carry one arc, and remove them; return the
    caps as (q, q2) in the positions before the first cap, and the new
    position of each position left.  One pass caps each position
    against the top of a stack of those left when the two carry one arc,
    and pushes it otherwise; then the stack's last and first positions
    are capped while they match."""
    stack: list[int] = []
    caps = []
    for q2, arc in enumerate(frontier):
        if stack and frontier[stack[-1]] == arc:
            caps.append((stack.pop(), q2))
        else:
            stack.append(q2)
    while len(stack) > 1 and frontier[stack[-1]] == frontier[stack[0]]:
        caps.append((stack.pop(), stack.pop(0)))
    renum = [0] * len(frontier)
    for new, old in enumerate(stack):
        renum[old] = new
    frontier[:] = [frontier[q] for q in stack]
    return tuple(caps), renum


def _step(layers: tuple, cup: bool, p: int, a_over: bool, caps: tuple,
          renum: list, table: dict) -> dict:
    """The expansion {normal diagram: polynomial} of the normal diagram
    ``layers`` when a record is attached: a cup on new positions p + 1,
    p + 2 if ``cup``, the crossing on p, p + 1 (``_cross``), then
    ``caps`` in that order, and the positions left renumbered by
    ``renum``.  The diagrams run through the caps unsorted and are sorted
    at the end."""
    if cup:  # it crosses nothing, so it goes where its left end sorts it
        layers = tuple(e + 2 if e > p else e for e in layers)
        at = 2 * bisect_left(layers[::2], p + 1)
        layers = layers[:at] + (p + 1, p + 2) + layers[at:]
    terms = _cross(layers, p, a_over, table)
    for q, q2 in caps:
        if len(terms) == 1:  # nothing to collect
            ((layers, factor),) = terms.items()
            terms = _cap(layers, q, q2, table)
            if factor is not ONE:
                terms = {new: times(more, factor)
                         for new, more in terms.items()}
            continue
        capped: dict = {}
        for layers, factor in terms.items():
            for new, more in _cap(layers, q, q2, table).items():
                _add_product(capped, new, more, factor)
        terms = capped
    out: dict = {}
    for layers, factor in terms.items():
        layers = tuple(map(renum.__getitem__, layers))
        lefts = layers[::2]
        if list(lefts) == sorted(lefts):
            _add_product(out, layers, factor, ONE)
            continue
        for normal, more in _normal(layers, table).items():
            _add_product(out, normal, more, factor)
    return out


def _next_block(records, left: list[int], frontier: list) -> tuple:
    """The next record i to attach, and its block: the frontier
    positions p, ..., p+k-1 that hold its slots t, t-1, ..., t-k+1.  It
    is the record holding the most frontier arcs, then with the longest
    block, the lower index on ties."""
    where = {a: p for p, a in enumerate(frontier)}
    n = len(frontier)
    best = None
    for i in left:
        rec = records[i]
        held = sum(a in where for a in rec)
        for t in range(4):
            p = where.get(rec[t])
            if p is None:
                continue
            k = 1
            while k < 4 and p + k < n and frontier[p + k] == rec[(t - k) % 4]:
                k += 1
            if best is None or (held, k) > best[0]:
                best = (held, k), i, p, t
    (_, k), i, p, t = best
    return i, p, k, t


def chord_sweep(records, counts) -> dict:
    """L of one connected piece of reduced records, packed.

    The sweep starts with record 0, its frontier the record's four arcs.
    Each next record, from ``_next_block``, enters at its block's first
    two positions p, p + 1, after a cup when the block has one position,
    and then the caps close what they can (``_step``).  A step's
    expansion of a normal diagram depends only on the step and the
    diagram, so each one is kept, keyed by the step, for the diagrams
    that meet the same step again.  ``table`` holds this call's layer
    swaps.  The sweep adds to ``counts`` (a ``SkeinMemo``) the records
    swept and the step expansions reused, and raises its widest frontier
    (a record's ends in, before the caps) and most states held to this
    call's."""
    table: dict = {}
    steps: dict = {}
    frontier = list(records[0])
    states = _CROSSING
    widest, most, reused = 4, len(states), 0
    left = list(range(1, len(records)))
    while left:
        i, p, k, t = _next_block(records, left, frontier)
        left.remove(i)
        rec = records[i]
        cup = k == 1
        # p, p + 1 (and p + 2 after a cup) carry slots t + 1, t + 2, ...
        frontier[p:p + 2 - cup] = [rec[(t + j) % 4] for j in range(1, 3 + cup)]
        widest = max(widest, len(frontier))
        caps, renum = _caps(frontier)
        step = (cup, p, t % 2 == 1, caps)
        known = steps.setdefault(step, {})
        out: dict = {}
        for key, poly in states.items():
            got = known.get(key)
            if got is None:
                got = known[key] = _step(key, *step, renum, table)
            else:
                reused += 1
            for new, more in got.items():
                _add_product(out, new, poly, more)
        states = out
        most = max(most, len(states))
    counts.swept += len(records)
    counts.widest = max(counts.widest, widest)
    counts.most_states = max(counts.most_states, most)
    counts.reused += reused
    return states.get((), {})


def unpack(poly: dict, a_shift: int = 0) -> TwoVarPoly:
    """The packed polynomial times a^a_shift."""
    shift = a_shift * A_STEP
    return TwoVarPoly._of({e + shift: c for e, c in poly.items()})
