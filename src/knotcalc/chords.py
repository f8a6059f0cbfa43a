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
of them in a row; its ends enter after that block, its over chord (slots
1-3) just above its under chord (slots 0-2).  A cap on two neighbouring
positions that carry one arc joins their chords, closing a circle
(``(a + a^-1) z^-1 - 1``, the last one 1) or a curl (``a^+-1``).  So the
sweep gives the regular-isotopy invariant L with ``L(unknot) = 1``,
``L(curl+) = a L`` and ``L(s+) + L(s-) = z(L(s0) + L(soo))`` of one
connected piece of PD records.

Polynomials are dicts {packed exponent: int coefficient} with a^i z^j
packed as ``i * A_STEP + j``, so a monomial factor adds its packed
exponent to every key; ``unpack`` turns one into a ``TwoVarPoly``.
"""

from __future__ import annotations

from bisect import bisect_left

from .polyring import TwoVarPoly

__all__ = ["A_STEP", "ONE", "CIRCLE", "times", "chord_sweep", "unpack"]

A_STEP = 1 << 20
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
    merged = set()
    for pair in ((w, x, y, z), (w, z, x, y)):
        for key, poly in then(above + pair + below, table).items():
            if _add_product(acc, key, poly, _P_Z):
                merged.add(key)
    return _drop_zeros(acc, merged)


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
            if (el < l < er) != (el < r < er):
                got = _skein_swap(tuple(done[:j - 2]), (el, er), (l, r),
                                  tuple(done[j:]) + layers[k + 2:],
                                  table, _normal)
                table[layers] = got
                return got
            j -= 2
        done[j:j] = (l, r)
    return {tuple(done): ONE}


def _cap(layers: tuple, q: int, q2: int, renum: list, table: dict) -> dict:
    """The expansion {chord diagram: polynomial} of ``layers`` capped at
    the frontier positions q and q2, q2 next after q counterclockwise;
    the other positions p are renumbered ``renum[p]``.

    The chords at q and q2 are brought to adjacent layers, and joined:
    one chord closes a circle, and two crossing ones a curl, ``a`` when
    the chord at q2 is on top, ``a^-1`` when the chord at q is.  The
    chords in between go above both, up to a split, and below both after
    it; the split passes the fewest crossing chords, each by a layer
    swap.  The diagrams are left unsorted."""
    i1, i2 = layers.index(q), layers.index(q2)
    c1, c2 = i1 & ~1, i2 & ~1  # where their chords start
    if c1 == c2:
        kept = layers[:c1] + layers[c1 + 2:]
        return {tuple(map(renum.__getitem__, kept)):
                CIRCLE if kept else ONE}
    lo, hi = (c1, c2) if c1 < c2 else (c2, c1)
    ul, ur, dl, dr = layers[lo], layers[lo + 1], layers[hi], layers[hi + 1]
    mid = lo + 2
    if hi > mid:
        memo_key = (layers, q, q2)
        got = table.get(memo_key)
        if got is not None:
            return got
        cross_up = [(ul < layers[k] < ur) != (ul < layers[k + 1] < ur)
                    for k in range(mid, hi, 2)]
        cross_down = [(dl < layers[k] < dr) != (dl < layers[k + 1] < dr)
                      for k in range(mid, hi, 2)]
        costs = [sum(cross_up[:s]) + sum(cross_down[s:])
                 for s in range(len(cross_up) + 1)]
        split = costs.index(min(costs))
        if costs[split]:
            if True in cross_up[:split]:  # lower the upper chord onto it
                j = mid + 2 * cross_up.index(True)
                parts = (layers[:lo] + layers[mid:j], layers[lo:mid],
                         layers[j:j + 2], layers[j + 2:])
            else:  # lift the lower chord onto the last one it crosses
                j = hi - 2 - 2 * cross_down[::-1].index(True)
                parts = (layers[:j], layers[j:j + 2], layers[hi:hi + 2],
                         layers[j + 2:hi] + layers[hi + 2:])
            got = table[memo_key] = _skein_swap(
                *parts, table, lambda ls, t: _cap(ls, q, q2, renum, t))
            return got
        mid += 2 * split
    x, y = layers[i1 ^ 1], layers[i2 ^ 1]
    kept = (layers[:lo] + layers[lo + 2:mid] + ((x, y) if x < y else (y, x))
            + layers[mid:hi] + layers[hi + 2:])
    factor = ONE
    if (ul < dl < ur) != (ul < dr < ur):
        factor = _P_A if c2 == lo else _P_A_INV
    return {tuple(map(renum.__getitem__, kept)): factor}


def _add_product(acc: dict, key, poly: dict, factor: dict) -> bool:
    """acc[key] += poly * factor; True when a coefficient may cancel."""
    target = acc.get(key)
    if target is None:
        acc[key] = times(factor, poly)
        return False
    get = target.get
    for e2, c2 in factor.items():
        for e1, c1 in poly.items():
            e = e1 + e2
            target[e] = get(e, 0) + c1 * c2
    return True


def _drop_zeros(acc: dict, keys: set) -> dict:
    for key in keys:
        poly = {e: c for e, c in acc[key].items() if c}
        if poly:
            acc[key] = poly
        else:
            del acc[key]
    return acc


def _caps(frontier: list) -> list[tuple[int, int, list]]:
    """Cap every two neighbouring frontier positions (the last and the
    first are neighbours) that carry one arc, and remove them; return the
    caps as (q, q2, renumbering)."""
    caps = []
    while len(frontier) > 1:
        n = len(frontier)
        for q in range(n):
            if frontier[q] == frontier[(q + 1) % n]:
                break
        else:
            break
        q2 = (q + 1) % n
        caps.append((q, q2, [p - (p > q) - (p > q2) for p in range(n)]))
        del frontier[max(q, q2)]
        del frontier[min(q, q2)]
    return caps


def _attach(states: dict, m: int, u: int, caps: list, table: dict) -> dict:
    """The states with a crossing's four ends inserted at frontier
    positions m..m+3, counterclockwise from its slot u, and then capped
    by ``caps``.  The crossing is its over chord (slots 1-3) just above
    its under chord (slots 0-2); the two cross no other chord, so they
    go where their left ends sort them.  Each state runs through the caps
    unsorted and is sorted to normal diagrams at the end."""
    at = [m + (s - u) % 4 for s in range(4)]
    crossing = tuple(sorted(at[1::2])) + tuple(sorted(at[0::2]))
    moved = [p if p < m else p + 4 for p in range(len(next(iter(states))))]
    out: dict = {}
    dirty = set()
    for key, poly in states.items():
        j = 2 * bisect_left(key[::2], m)
        key = tuple(map(moved.__getitem__, key))
        terms = {key[:j] + crossing + key[j:]: ONE}
        for q, q2, renum in caps:
            if len(terms) == 1:  # nothing to collect
                ((layers, factor),) = terms.items()
                terms = _cap(layers, q, q2, renum, table)
                if factor is not ONE:
                    terms = {new: times(more, factor)
                             for new, more in terms.items()}
                continue
            capped: dict = {}
            merged = set()
            for layers, factor in terms.items():
                for new, more in _cap(layers, q, q2, renum, table).items():
                    if _add_product(capped, new, more, factor):
                        merged.add(new)
            terms = _drop_zeros(capped, merged)
        for layers, factor in terms.items():
            lefts = layers[::2]
            if list(lefts) == sorted(lefts):
                if _add_product(out, layers, poly, factor):
                    dirty.add(layers)
                continue
            for normal, more in _normal(layers, table).items():
                if _add_product(out, normal, poly, times(factor, more)):
                    dirty.add(normal)
    return _drop_zeros(out, dirty)


def times(p: dict, q: dict) -> dict:
    """The product, with no zero coefficient."""
    if len(p) == 1:
        ((e1, c1),) = p.items()
        return {e1 + e2: c1 * c2 for e2, c2 in q.items()}
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _next_block(records, left: list[int], frontier: list) -> tuple:
    """The next record to attach, the frontier position m its ends enter
    at and the slot u they enter from.  It is the record holding the
    most frontier arcs, then with the longest block of slots t, t-1, ...,
    t-k+1 whose arcs sit at frontier positions p, ..., p+k-1, the lower
    index on ties; its ends enter at m = p + k from slot u = t - k + 1."""
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
    return i, p + k, (t - k + 1) % 4


def chord_sweep(records) -> dict:
    """L of one connected piece of reduced records, packed.

    The sweep starts with record 0, its frontier the record's four arcs,
    and attaches the record of ``_next_block`` right after its block of
    frontier positions; the caps then glue the block's arcs from the
    inside out, and any other two neighbours that carry one arc.  The
    table holds this call's expansions of layer swaps."""
    table: dict = {}
    frontier = list(records[0])
    states = _CROSSING
    left = list(range(1, len(records)))
    while left:
        i, m, u = _next_block(records, left, frontier)
        left.remove(i)
        frontier[m:m] = [records[i][(u + j) % 4] for j in range(4)]
        states = _attach(states, m, u, _caps(frontier), table)
    return states.get((), {})


def unpack(poly: dict, a_shift: int = 0) -> TwoVarPoly:
    """The packed polynomial times a^a_shift."""
    half = A_STEP // 2
    terms = {}
    for e, c in poly.items():
        j = (e + half) % A_STEP - half
        terms[((e - j) // A_STEP + a_shift, j)] = c
    return TwoVarPoly(terms)
