"""Polynomial engines: Kauffman bracket, Jones, Kauffman F, Conway.

The bracket, and with it Jones, comes from a frontier sweep,
``_sweep_states``: the crossings are smoothed one at a time, in an order
that keeps few arcs open, and a state is the matching that the smoothed
strands make of the open arcs, carrying a polynomial in A with ``int``
coefficients.  Each smoothing contributes ``A`` or ``A^-1`` and each
closed circle ``delta = -A^2 - A^-2``; the sum is divided by ``delta``
once and multiplied by ``delta`` per free loop.  The cost grows with the
number of matchings, which the number of open arcs bounds, not with the
number of crossings.  A state's polynomial is packed into one integer
(Kronecker substitution), so a smoothing costs a few integer operations,
not one per term.  The sweep keys nothing and leaves a memo it is given
empty.  Conventions: ``<unknot> = 1``, the A-smoothing of ``(a,b,c,d)``
joins ``a~b`` and ``c~d``, and ``V = (-A)^{-3w} <D>`` with ``t = A^-4``.

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

from operator import itemgetter

from .chords import CIRCLE, ONE, chord_sweep, unpack
from .diagram import Diagram, _glue, _occurrences, _reduce, _split_pieces
from .errors import ResourceLimit
# unused; test_install_wraps_every_binding_and_reports_absent_names checks it
from .moves import simplify as _simplify_diagram
from .polyring import A_STEP, LaurentPoly, TwoVarPoly, _difference_power, times
from .presentations import _check_strands
from .seifert import _det_poly, _seifert_det, _seifert_form

__all__ = [
    "SkeinMemo",
    "bracket_memoized",
    "jones_memoized",
    "kauffman_F",
    "conway",
    "alexander_from_conway",
    "DEFAULT_ENGINE_CAP",
]

DEFAULT_ENGINE_CAP = 32

_DELTA = LaurentPoly.a_pow(2, -1) + LaurentPoly.a_pow(-2, -1)   # -A^2 - A^-2


class SkeinMemo:
    """Write-once table from diagram keys to Kauffman F's packed values,
    and counts of the kinks and bigons F removed (only what is left is
    keyed, so they never enter the table).  F keys the reduced diagram
    it is called on by its PD records as they are, so a reversed
    component, a mirror or a relabeling of a diagram is a new key.  The
    bracket sweep and the Conway determinants key nothing and leave a
    memo they are given empty.

    F called without a memo uses a fresh one for that call, so values
    are reused across calls only through a memo the caller owns and
    passes to each of them.  Writing a second, different value under one
    key raises ``AssertionError``.
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

    def get(self, key):
        value = self.table.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value):
        old = self.table.setdefault(key, value)
        if old != value:
            raise AssertionError("memo determinism violated: one key, two values")

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

def _sweep_order(records) -> list[int]:
    """Record indices in sweep order: next the record that closes the most
    open arcs, ties to the lower index.  An arc is open while exactly one
    of its two ends lies in a swept record."""
    occ = _occurrences(records)
    closes = [0] * len(records)  # open arcs each record holds
    left = list(range(len(records)))
    open_arcs: set[int] = set()
    order = []
    while left:
        i = max(left, key=closes.__getitem__)
        left.remove(i)
        order.append(i)
        for a in records[i]:
            step = -1 if a in open_arcs else 1
            open_arcs ^= {a}
            for j, _ in occ[a]:
                closes[j] += step
    return order


def _sweep_states(records) -> tuple[int, int, int]:
    """The state sum of A^(#A - #B) delta^circles over all smoothings, as
    ``(lo, p, width)``: ``A^lo q(A^2)`` with ``p = q(256^width)``.

    The records are swept in ``_sweep_order``.  After each record the
    smoothed strands of the swept records pair up the open arcs; a state
    is that matching, the open arcs' partners in ascending arc order, and
    it carries the sum of the weights of the smoothings that reach it.

    A state's sum is held the same way, as ``(lo, p)``.  Every exponent
    of a state has the parity of the number of records swept, so steps
    of A^2 lose no term, and the factor ``A^(+-1) delta^loops`` of a
    smoothing is ``A^(+-1 - 2 loops)`` times ``(-1 - A^4)^loops``, one
    multiplication of p.  The coefficient sizes of the whole sum add up
    to at most ``8^n``: each record doubles the smoothings, and a
    factor's coefficient sizes add up to at most 4.  So
    ``8 * width >= 3n + 2`` bits keep every coefficient apart.
    """
    width = (3 * len(records) + 9) // 8
    x2 = 1 << 16 * width  # A^4, two slots up
    times_delta = (1, -1 - x2, 1 + 2 * x2 + x2 * x2)  # (-1 - A^4)^loops
    states = {(): (0, 1)}
    frontier: tuple = ()
    open_arcs: set[int] = set()
    for i in _sweep_order(records):
        a, b, c, d = rec = records[i]
        for arc in rec:
            open_arcs ^= {arc}
        swept = tuple(sorted(open_arcs))
        # the open arcs' partners in ``swept`` order; no frontier is odd
        pick = itemgetter(*swept) if swept else lambda partner: ()
        # the A-smoothing joins a~b and c~d, the B-smoothing a~d and b~c
        smoothings = ((((a, b), (c, d)), 1), (((a, d), (b, c)), -1))
        nxt: dict[tuple, tuple[int, int]] = {}
        get = nxt.get
        for key, (lo, p) in states.items():
            matched = dict(zip(frontier, key))
            for joins, shift in smoothings:
                partner = matched.copy()
                loops = 0
                for x, y in joins:
                    if x == y:  # an arc with both ends here closes on itself
                        loops += 1
                        continue
                    # the far end of the strand on each side; a first-met
                    # arc is its own far end
                    ex = partner.pop(x, x)
                    if ex == y:  # x and y end one strand
                        del partner[y]
                        loops += 1
                        continue
                    ey = partner.pop(y, y)
                    partner[ex], partner[ey] = ey, ex
                new = pick(partner)
                e, q = lo + shift - 2 * loops, p * times_delta[loops]
                old = get(new)
                if old is None:
                    nxt[new] = (e, q)
                else:  # shift the higher sum up to the lower one's slots
                    e0, q0 = old
                    if e < e0:
                        e, q, e0, q0 = e0, q0, e, q
                    nxt[new] = (e0, q0 + (q << 4 * width * (e - e0)))
        states, frontier = nxt, swept
    return (*states[()], width)


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


def bracket_memoized(d: Diagram, max_crossings: int = DEFAULT_ENGINE_CAP,
                     memo: SkeinMemo | None = None) -> LaurentPoly:
    """Kauffman bracket by the frontier sweep of ``_sweep_states``.  The
    sweep keys no states, so it leaves ``memo`` empty."""
    _check_cap(d.n_crossings, max_crossings, d.free_loops)
    if d.n_crossings == 0:
        return _DELTA ** (d.n_components - 1)
    lo, p, width = _sweep_states(d.crossings)
    # delta = -A^-2 (1 + A^4), and A^4 is two slots up.  The coefficients
    # of the quotient and the remainder by 1 + A^4 are partial sums of
    # the state sum's, so they too stay below half a slot: the integer
    # division leaves no remainder exactly when the polynomial one does,
    # and its quotient is the packed polynomial quotient.
    quotient, rest = divmod(p, 1 + (1 << 16 * width))
    if rest:
        raise ArithmeticError("the state sum is not a multiple of delta")
    reduced = _unpack(lo + 2, -quotient, width)
    bracket = LaurentPoly({-e: c for e, c in reduced.items()})
    return _DELTA ** d.free_loops * bracket if d.free_loops else bracket


def _normalize_bracket(d: Diagram, bracket: LaurentPoly) -> LaurentPoly:
    """``(-A)^{-3w} <D>``: with ``A = t^-1/4`` every exponent moves up 3w
    quarters, and an odd writhe flips the sign."""
    w = d.writhe()
    sign = -1 if w % 2 else 1
    return LaurentPoly({q + 3 * w: sign * c for q, c in bracket.terms.items()})


def jones_memoized(d: Diagram, max_crossings: int = DEFAULT_ENGINE_CAP,
                   memo: SkeinMemo | None = None) -> LaurentPoly:
    """Jones polynomial from the frontier-sweep bracket, which leaves
    ``memo`` empty."""
    return _normalize_bracket(d, bracket_memoized(d, max_crossings, memo))


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
        value = memo.get(state)
        if value is None:  # one circle factor per extra piece
            pieces = [[state[i] for i in members]
                      for members in _split_pieces(state)]
            value = chord_sweep(pieces[0], memo)
            for piece in pieces[1:]:
                value = times(times(value, CIRCLE), chord_sweep(piece, memo))
            memo.put(state, value)
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
