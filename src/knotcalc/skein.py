"""Polynomial engines: Kauffman bracket, Jones, Kauffman F, Conway.

The bracket, and with it Jones, comes from a frontier sweep,
``_sweep_states``: the crossings are smoothed one at a time, in an order
that keeps few arcs open, and a state is the matching that the smoothed
strands make of the open arcs, carrying a polynomial in A with ``int``
coefficients.  The order is planned first, and in the same walk each arc
gets a slot, reused once the arc is closed, so a state is a plain tuple
over the slots that names each open arc's far end (Bar-Natan's
boundary-keeping sweep, "Fast Khovanov homology computations", JKTR 16,
2007).  Each smoothing contributes ``A`` or ``A^-1`` and each closed
circle but the last ``delta = -A^2 - A^-2``; the last weighs 1, as in the
chord sweep, and Jones multiplies the sum by ``delta`` per free loop.  The
cost grows with the number of matchings, which the number of open arcs
bounds, not with the number of crossings.  A state's polynomial is packed
into one integer (Kronecker substitution), so a smoothing costs a few
integer operations, not one per term.  Given a memo, Jones keeps the
packed bracket there, keyed by the free loops and the PD records each
turned to the lesser of itself and its half-turn: a half-turn keeps the
unoriented crossing, so a diagram with a component reversed, as the hat
is of its cable, reads the bracket of the first and pays only for its
own writhe.  A mirror or a relabeling is a new key.  The memo also keeps
the last sweep's plan and its states after each step: the states after
k steps depend only on the slot count and the first k steps, so a sweep
with the same slot count resumes after the longest plan prefix it shares
with the last one, short of either plan's last step.  The cables of one
knot at neighbouring framings share their doubled tangle, which their
plans sweep first.  Conventions: ``<unknot> = 1``, the A-smoothing of
``(a,b,c,d)`` joins ``a~b`` and ``c~d``, and ``V = (-A)^{-3w} <D>`` with
``t = A^-4``.

Kauffman F comes from a second frontier sweep, ``chords.chord_sweep``,
whose states are layered chord diagrams in the Kauffman skein of a disk
(see ``chords``).  Each crossing enters as one generator step, which
exchanges two neighbouring chord ends with at most one layer swap, and
the caps then close what they can; a step's expansion of a diagram is
kept for the later diagrams of the call that meet the same step.  The
memo counts the records swept, the widest frontier, the most states held
and the step expansions reused.  It gives the regular-isotopy invariant L with
``L(unknot) = 1``, ``L(curl+) = a L`` and ``L(s+) + L(s-) = z(L(s0) +
L(soo))``, and ``F = a^{-w} L``.  Kinks and bigons are removed first, and
only the reduced diagram is keyed in the memo, by its PD records as they
are, so a memo shared by several calls serves a diagram met again with
the same records; each of its connected pieces is swept apart, one
circle factor per extra piece.

Conway comes from integer determinants, each read off by
``seifert._det_poly``.  A knot's Alexander polynomial is a minor of the
Fox matrix of its Wirtinger presentation (Fox, Ann. Math. 1953),
normalized to be symmetric with ``Delta(1) = 1``; it shares no matrix
with ``seifert_matrix``, so the Alexander polynomial of a knot has two
independent routes.  A link has ``Delta(1) = 0``, which leaves the sign
of ``del`` open, so its ``del`` is ``x^-n det(x^2 S - S^T)`` with
``x = t^1/2``, S the Seifert form of its diagram, of size
``n = c - s + 1``; a link with free loops or a split projection has
``del = 0``.  Either polynomial in x is read as a polynomial in
``z = x - x^-1`` by peeling off its top power.

The engines' oracles, among them the state sum over all ``2^n``
smoothings that checks the bracket sweep and the Jones skein relation,
run no command and live with the tests, in ``tests/oracles.py``.

The states that F's reductions work on are bare tuples of PD records
(under diagonal in slots 0 and 2); free circles never live inside
states, they are counted as they appear.  Kinks and bigons are removed
by ``diagram._reduce``, the reduction that ``moves.simplify`` runs, and
F counts them from its move log.  It erases records with
``diagram._erase``, which joins the arcs across their slots with
``diagram._glue``, whose first-wins rule names a joined arc after the
first arc of its pair.  An empty state stands for the last circle of its
piece, so it contributes one circle factor less than the circles closed
while reaching it.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .chords import CIRCLE, ONE, chord_sweep, unpack
from .diagram import Diagram, _glue, _reduce, _split_pieces
from .errors import ResourceLimit
# unused; test_install_wraps_every_binding_and_reports_absent_names checks it
from .moves import simplify as _simplify_diagram
from .polyring import A_STEP, LaurentPoly, TwoVarPoly, _difference_power, times
from .presentations import _check_strands
from .seifert import _det_poly, _seifert_det, _seifert_form

__all__ = [
    "SkeinMemo",
    "jones_memoized",
    "kauffman_F",
    "conway",
    "alexander_from_conway",
    "DEFAULT_ENGINE_CAP",
]

DEFAULT_ENGINE_CAP = 32

_DELTA = {2: -1, -2: -1}   # -A^2 - A^-2, by exponents of A


class SkeinMemo:
    """Write-once table from diagram keys to packed values of Kauffman F
    or of the bracket, and counts of the kinks and bigons F removed (only
    what is left is keyed, so they never enter the table).  F keys the
    reduced diagram it is called on by its PD records as they are, so a
    reversed component, a mirror or a relabeling of a diagram is a new
    key.  Jones keeps the sweep's packed bracket under the free loops and
    the records up to a half-turn, so a reversed component hits and a
    mirror or a relabeling misses; callers keep one memo per engine, so
    that each memo's counts belong to one engine.  The Conway
    determinants key nothing and leave a memo they are given empty.

    ``sweep`` holds the last bracket sweep, ``(slot count, plan, trail)``
    with ``trail[k]`` the width and the states after its first k steps,
    for the next sweep to resume from; each sweep replaces it.  Both
    sweeps count the records swept, their widest frontier (the bracket's
    slot count), the most states held and what they reused: F its step
    expansions, the bracket its plan steps resumed.

    F called without a memo uses a fresh one for that call, and Jones
    keys nothing, so values are reused across calls only through a memo
    the caller owns and passes to each of them.
    """

    def __init__(self):
        self.table = {}
        self.hits = 0
        self.misses = 0
        self.kinks = 0
        self.bigons = 0
        self.swept = 0
        self.widest = 0
        self.most_states = 0
        self.reused = 0
        self.sweep = None

    def stats(self) -> dict:
        return {"entries": len(self.table), "hits": self.hits,
                "misses": self.misses, "kinks": self.kinks,
                "bigons": self.bigons, "swept": self.swept,
                "widest": self.widest, "most_states": self.most_states,
                "reused": self.reused}


def _check_cap(n_crossings: int, max_crossings: int, free_loops: int = 0):
    """Refuse more crossings than the cap, or more free loops than
    ``presentations._check_strands`` allows: the bracket sweep and F pay
    for each free loop."""
    if n_crossings > max_crossings:
        raise ResourceLimit(
            f"{n_crossings} crossings exceeds the engine cap {max_crossings}")
    _check_strands(free_loops, max_crossings, "free loops")


# =====================================================================
# bracket and Jones
# =====================================================================

def _sweep_plan(records) -> tuple[int, list[tuple[tuple, tuple]]]:
    """The slot count and the steps of the bracket sweep.  Next comes the
    record that closes the most open arcs, ties to the lower index; an arc
    is open while exactly one of its two ends lies in a swept record.  An
    arc met for the first time takes a freed slot, else a new one.  A step
    is a record's four slots and the slots it closes, an arc with both
    ends there among them; these are freed only after the record.

    An arc closes only at the record being swept, so an unswept record's
    count of open arcs only grows.  A heap keyed ``(4 - count) n + index``
    gets an entry each time a count grows, and the least entry of an
    unswept record is its current one; entries of swept records are
    skipped."""
    n = len(records)
    ends: dict[int, list[int]] = {}  # arc -> the records at its ends
    for i, rec in enumerate(records):
        for a in rec:
            ends.setdefault(a, []).append(i)
    closes = [0] * n  # open arcs each unswept record holds
    swept = [False] * n
    heap = [4 * n + i for i in range(n)]  # sorted, so a heap
    slot_of: dict[int, int] = {}  # open arc -> its slot
    free: list[int] = []
    n_slots = 0
    plan = []
    for _ in range(n):
        i = heappop(heap) % n
        while swept[i]:
            i = heappop(heap) % n
        swept[i] = True
        slots, closed = [], []
        for a in records[i]:
            s = slot_of.pop(a, None)
            if s is not None:
                closed.append(s)
            else:
                if free:
                    s = free.pop()
                else:
                    s, n_slots = n_slots, n_slots + 1
                slot_of[a] = s
                for j in ends[a]:
                    if not swept[j]:
                        closes[j] += 1
                        heappush(heap, (4 - closes[j]) * n + j)
            slots.append(s)
        plan.append((tuple(slots), tuple(closed)))
        free += closed
    return n_slots, plan


def _sweep_states(records, memo: SkeinMemo | None = None
                  ) -> tuple[int, int, int]:
    """The bracket, the sum of A^(#A - #B) delta^(circles - 1) over all
    smoothings, as ``(lo, p, width)``: ``A^lo q(A^2)`` with
    ``p = q(256^width)``.  The frontier empties at the last record, so
    each smoothing closes a circle there and counts one loop fewer; a
    frontier that empties earlier, in a split diagram, still weighs delta.

    The records are swept in the order of ``_sweep_plan``.  After each
    record the smoothed strands of the swept records pair up the open
    arcs; a state is that matching, a tuple over the slots whose entry
    ``s`` is the slot of the far end of the arc in slot ``s``, and it
    carries the sum of the weights of the smoothings that reach it.  A
    free slot holds its own index, so an arc met for the first time is
    its own far end.  A state whose sum cancels is dropped.

    A state's sum is held the same way, as ``(lo, p)``.  Every exponent
    of a state has the parity of the number of records swept, so steps
    of A^2 lose no term, and the factor ``A^(+-1) delta^loops`` of a
    smoothing is ``A^(+-1 - 2 loops)`` times ``(-1 - A^4)^loops``, one
    multiplication of p.  The coefficient sizes of the whole sum add up
    to at most ``8^n``: each record doubles the smoothings, and a
    factor's coefficient sizes add up to at most 4.  So
    ``8 * width >= 3n + 2`` bits keep every coefficient apart.

    The states after k steps depend only on the slot count and the first
    k steps of the plan, as long as none of them is the last.  So, given
    a memo, the sweep keeps its plan and the states before each of its
    steps there, in place of the sweep kept before, and a sweep with the
    same slot count starts from the kept states after the longest common
    prefix of the two plans that holds neither plan's last step.  States
    packed at another width are unpacked and packed again at this one.
    The memo counts the steps swept and resumed, the slot count and the
    most states held.
    """
    width = (3 * len(records) + 9) // 8
    x2 = 1 << 16 * width  # A^4, two slots up
    times_delta = (1, -1 - x2, 1 + 2 * x2 + x2 * x2)  # (-1 - A^4)^loops
    n_slots, plan = _sweep_plan(records)
    start = tuple(range(n_slots))
    trail = [(width, {start: (0, 1)})]  # the width and states after k steps
    m = 0  # the steps resumed
    kept = memo.sweep if memo is not None else None
    if kept is not None and kept[0] == n_slots:
        end = min(len(plan), len(kept[1])) - 1
        while m < end and plan[m] == kept[1][m]:
            m += 1
        trail = kept[2][:m + 1]
    was, states = trail[m]
    if was != width:
        states = {key: (lo, sum(c << 4 * width * (e - lo)
                                for e, c in _unpack(lo, p, was).items()))
                  for key, (lo, p) in states.items()}
    most = 0
    for k in range(m, len(plan)):
        (a, b, c, d), closed = plan[k]
        # the A-smoothing joins a~b and c~d, the B-smoothing a~d and b~c
        smoothings = ((((a, b), (c, d)), 1), (((a, d), (b, c)), -1))
        first = -1 if k == len(plan) - 1 else 0  # the last circle weighs 1
        nxt: dict[tuple, tuple[int, int]] = {}
        get = nxt.get
        for key, (lo, p) in states.items():
            for joins, shift in smoothings:
                partner = list(key)
                loops = first
                for x, y in joins:
                    if x == y:  # an arc with both ends here closes on itself
                        loops += 1
                        continue
                    # the far end of the strand on each side
                    ex = partner[x]
                    if ex == y:  # x and y end one strand
                        loops += 1
                        continue
                    ey = partner[y]
                    partner[ex] = ey
                    partner[ey] = ex
                for s in closed:
                    partner[s] = s
                new = tuple(partner)
                e = lo + shift - 2 * loops
                q = p * times_delta[loops] if loops else p
                old = get(new)
                if old is None:
                    nxt[new] = (e, q)
                    continue
                e0, q0 = old
                if e != e0:  # shift the higher sum up to the lower one's slots
                    if e < e0:
                        e, q, e0, q0 = e0, q0, e, q
                    q <<= 4 * width * (e - e0)
                q += q0
                if q:
                    nxt[new] = (e0, q)
                else:
                    del nxt[new]
        states = nxt
        most = max(most, len(states))
        if memo is not None and k + 1 < len(plan):
            trail.append((width, states))
    if memo is not None:
        memo.sweep = (n_slots, plan, trail)
        memo.swept += len(plan) - m
        memo.reused += m
        memo.widest = max(memo.widest, n_slots)
        memo.most_states = max(memo.most_states, most)
    return (*states[start], width)


def _unpack(lo: int, p: int, width: int) -> dict[int, int]:
    """{exponent of A: coefficient} of ``A^lo q(A^2)`` from
    ``p = q(256^width)``, each coefficient of q less than half of
    ``256^width`` in size: adding that half to every coefficient makes
    each one fill its own ``width`` bytes."""
    # |p| exceeds half of its top coefficient's place value, so that
    # coefficient lies in the first bit_length // (8 width) + 1 slots
    slots = abs(p).bit_length() // (8 * width) + 1
    halves = int.from_bytes((b"\0" * (width - 1) + b"\x80") * slots, "little")
    raw = (p + halves).to_bytes(slots * width, "little")
    half = 1 << (8 * width - 1)
    out = {}
    for j in range(slots):
        c = int.from_bytes(raw[j * width:(j + 1) * width], "little") - half
        if c:
            out[lo + 2 * j] = c
    return out


def jones_memoized(d: Diagram, max_crossings: int = DEFAULT_ENGINE_CAP,
                   memo: SkeinMemo | None = None) -> LaurentPoly:
    """Jones polynomial ``(-A)^{-3w} <D>``, ``t = A^-4``, from the sweep's
    bracket times ``delta`` per free loop, one fewer without crossings,
    where the sweep's sum 1 is the last circle.  Given a memo, the packed
    bracket is kept there under the free loops and the records up to a
    half-turn; a hit skips the sweep, and a miss resumes the memo's last
    sweep from the plan prefix the two share (``_sweep_states``)."""
    _check_cap(d.n_crossings, max_crossings, d.free_loops)
    if memo is None:
        packed = _sweep_states(d.crossings)
    else:
        key = (d.free_loops, tuple(min(r, r[2:] + r[:2]) for r in d.crossings))
        packed = memo.table.get(key)
        if packed is None:
            memo.misses += 1
            packed = memo.table[key] = _sweep_states(d.crossings, memo)
        else:
            memo.hits += 1
    bracket = _unpack(*packed)
    for _ in range(d.free_loops - (not d.crossings)):
        bracket = times(bracket, _DELTA)
    # A^e goes to t^((3w - e)/4), and an odd writhe flips the sign
    w = d.writhe()
    sign = -1 if w % 2 else 1
    return LaurentPoly({3 * w - e: sign * c for e, c in bracket.items()})


# =====================================================================
# Kauffman two-variable polynomial
# =====================================================================

def _kauffman_L(state: tuple, loops: int, memo: SkeinMemo) -> dict:
    """L, packed, of a state of PD records times ``loops`` closed circles
    (an empty state stands for the last circle).  Kinks and bigons are
    removed first; the reduced state is keyed and its pieces swept."""
    state, closed, curl, log, _ = _reduce(state)
    memo.kinks += log.count("R1-")
    memo.bigons += log.count("R2-")
    loops += closed
    if not state:
        value, loops = ONE, loops - 1
    else:
        value = memo.table.get(state)
        if value is None:  # one circle factor per extra piece
            memo.misses += 1
            pieces = [[state[i] for i in members]
                      for members in _split_pieces(state)]
            value = chord_sweep(pieces[0], memo)
            for piece in pieces[1:]:
                value = times(times(value, CIRCLE), chord_sweep(piece, memo))
            memo.table[state] = value
        else:
            memo.hits += 1
    for _ in range(loops):
        value = times(value, CIRCLE)
    return {e + curl * A_STEP: c for e, c in value.items()} if curl else value


def kauffman_F(d: Diagram, max_crossings: int = DEFAULT_ENGINE_CAP,
               memo: SkeinMemo | None = None) -> TwoVarPoly:
    """Two-variable Kauffman polynomial ``F = a^{-w} L``, L from the chord
    sweep; the orientation of D enters only through the writhe.  Without
    a memo, the call uses a fresh one."""
    _check_cap(d.n_crossings, max_crossings, d.free_loops)
    memo = memo if memo is not None else SkeinMemo()
    return unpack(_kauffman_L(d.crossings, d.free_loops, memo), -d.writhe())


# =====================================================================
# Conway / Alexander: integer determinants
# =====================================================================

def _conway_from_x(coeffs: dict[int, int]) -> LaurentPoly:
    """del(z) of a Laurent polynomial in x = t^1/2, {exponent: coefficient},
    that is a polynomial in z = x - x^-1: the top power c x^m is peeled
    off as c (x - x^-1)^m, expanded by binomials."""
    work = {e: c for e, c in coeffs.items() if c}
    nabla = {}
    while work:
        m = max(work)
        if m < 0:
            raise ArithmeticError("not a polynomial in x - x^-1")
        c = nabla[m] = work[m]
        for e, b in _difference_power(m):
            left = work.get(e, 0) - b * c
            if left:
                work[e] = left
            else:
                work.pop(e, None)
    return LaurentPoly({4 * m: c for m, c in nabla.items()})


# the Fox row of a crossing by its sign, as (constant, t coefficient) on
# (over arc, incoming under arc, outgoing under arc)
_FOX_ROWS = {1: ((1, -1), (0, 1), (-1, 0)), -1: ((-1, 1), (1, 0), (0, -1))}


def _fox_alexander(d: Diagram) -> dict[int, int]:
    """Delta of a knot diagram with crossings, as {exponent of x: coefficient},
    symmetric with Delta(1) = 1, from the Fox matrix of the Wirtinger
    presentation.  The generators are the over-arcs, PD arcs joined
    through slots 1 and 3; a positive crossing gives the row (1 - t, t,
    -1) on (over arc, incoming under arc, outgoing under arc), a negative
    one (t - 1, 1, -t).  The first row and column are deleted, and the
    minor, det(a + t b), is Delta up to a unit +-t^k."""
    recs, _, _ = _glue(d.crossings, [(rec[1], rec[3]) for rec in d.crossings])
    column = {x: k for k, x in enumerate(sorted({x for r in recs for x in r}))}
    n = len(recs)  # as many over-arcs as crossings
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i, rec in enumerate(recs):
        for slot, (x, y) in zip((1, 0, 2), _FOX_ROWS[d.sign(i)]):
            a[i][column[rec[slot]]] += x
            b[i][column[rec[slot]]] += y
    coeffs = _det_poly([r[1:] for r in a[1:]], [r[1:] for r in b[1:]])
    ks = [k for k, c in enumerate(coeffs) if c]
    unit = 1 if sum(coeffs) > 0 else -1
    return {2 * k - ks[0] - ks[-1]: unit * coeffs[k] for k in ks}


def conway(d: Diagram, max_crossings: int = DEFAULT_ENGINE_CAP,
           memo: SkeinMemo | None = None) -> LaurentPoly:
    """Conway polynomial; the variable z occupies the t-exponent slots.

    A knot's del comes from its Fox matrix (``_fox_alexander``), a link's
    from its Seifert form S of size n = c - s + 1, as x^-n det(x^2 S - S^T)
    with x = t^1/2; both are turned into polynomials in z = x - x^-1 by
    ``_conway_from_x``.  A link with free loops, or whose projection
    falls into several pieces, is split and gets 0.  Nothing is keyed,
    so ``memo`` is left empty."""
    _check_cap(d.n_crossings, max_crossings)
    if not d.crossings:
        return LaurentPoly.one() if d.free_loops == 1 else LaurentPoly.zero()
    if d.n_components == 1:
        return _conway_from_x(_fox_alexander(d))
    if d.free_loops or d.connected_pieces() > 1:
        return LaurentPoly.zero()
    s = _seifert_form(d).matrix
    return _conway_from_x({2 * k - len(s): c
                           for k, c in enumerate(_seifert_det(s))})


def alexander_from_conway(nabla: LaurentPoly) -> LaurentPoly:
    """Alexander polynomial: substitute ``z -> t^{1/2} - t^{-1/2}``, each
    ``z^k`` expanded by binomials in x = t^1/2, the inverse of
    ``_conway_from_x``."""
    total = {}
    for q, c in nabla.terms.items():
        if q % 4 or q < 0:
            raise ValueError("Conway polynomial must be polynomial in z")
        if not c.im:
            c = c.re
        for e, b in _difference_power(q // 4):
            total[2 * e] = total.get(2 * e, 0) + b * c
    return LaurentPoly(total)
