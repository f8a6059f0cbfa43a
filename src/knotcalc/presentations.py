"""Braid words, tangles, plat presentations, and banded-spine boundaries.

A tangle is a PD fragment, kept as given: crossing records in the usual
rotation convention (under-strand diagonal in slots 0 and 2, no
orientation), ordered lists of the arcs hanging at the top and bottom
boundary, and a count of closed circles.  Tangles compose by stacking,
double by the parallel-copy rule, and close up into oriented diagrams.
Their arcs are checked where they are read: by
``diagram._check_occurrences`` over the records and both boundaries in
the doubling and the trace closure.  A tangle of unknown orientation
(a braid's, or one a caller builds) is closed by ``trace_closure``,
whose ``Diagram.from_pd`` walk orients every strand from the ends where
the top arcs enter, every strand running down; the banded boundary is
walked from no end at all.  ``cable.cable2`` closes its doubled tangle
itself, as its records are oriented by construction (``double_block``),
and checks that orientation without a walk.  Composition, closure and the
banded boundary all join boundary arcs through ``diagram._glue``: under
its first-wins rule a joined arc keeps the label of the first arc of its
pair, and a pair whose arcs are already one closes a free circle.

Plat presentations follow the wedge-of-circles model: a braid on
``2*(2g+m)`` strands, capped above by ``2g+m`` arcs and closed below by a
cone on the leftmost ``4g`` endpoints plus ``m`` extra cups; caps and cups
pair adjacent strands.  Widening the spine into bands, as given, and
taking the boundary reuses the doubling rule, with per-circle framing
realized as full twists inserted under the caps.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, NamedTuple

from .diagram import Diagram, _check_occurrences, _glue, _ints
from .errors import (
    DiagramSyntaxError,
    DisconnectedBoundary,
    ExtraComponents,
    ResourceLimit,
    StrandMismatch,
)

__all__ = [
    "BraidWord",
    "braid_parse",
    "Tangle",
    "braid_to_tangle",
    "tangle_compose",
    "tangle_parallel_double",
    "trace_closure",
    "PlatPresentation",
    "plat_wedge",
    "validate_plat",
    "spine_boundary_knot",
]


# =====================================================================
# braid words
# =====================================================================

class BraidWord(NamedTuple):
    """A word in the braid generators; letter ``+i`` is the positive
    generator on strands (i, i+1), ``-i`` its inverse."""

    strands: int
    letters: tuple[int, ...]

    def permutation(self) -> list[int]:
        """perm[k] = bottom position of the strand entering at top k."""
        pos = list(range(self.strands))  # pos[position] = strand id
        for letter in self.letters:
            i = abs(letter) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        out = [0] * self.strands
        for bottom, strand in enumerate(pos):
            out[strand] = bottom
        return out

    def __str__(self):
        return " ".join(f"s{abs(x)}" + ("" if x > 0 else "^-1")
                        for x in self.letters)


_BRAID_TOKEN = re.compile(r"s(\d+)(\^-1)?$")


def braid_parse(text: str, strands: int | None = None) -> BraidWord:
    """Parse ``s1 s2^-1 ...``; the strand count defaults to the largest
    generator index plus one."""
    letters = []
    for token in text.split():
        m = _BRAID_TOKEN.match(token)
        if not m:
            raise DiagramSyntaxError(f"bad braid token {token!r}")
        idx = int(m.group(1))
        if idx < 1:
            raise DiagramSyntaxError("generator indices start at 1")
        letters.append(-idx if m.group(2) else idx)
    if strands is None:
        strands = max((abs(x) for x in letters), default=1) + 1
    for x in letters:
        if abs(x) >= strands:
            raise DiagramSyntaxError(
                f"generator s{abs(x)} needs more than {strands} strands")
    return BraidWord(strands, tuple(letters))


def _check_strands(count: int, max_crossings: int, what: str = "strands"):
    """Refuse more than ``2 * max_crossings + 2`` strands, or free loops
    as ``what`` names them, before anything proportional to their count
    is built: each crossing touches two strands, and every other strand
    closes to a free loop, which Jones and F pay for one at a time."""
    if count > 2 * max_crossings + 2:
        raise ResourceLimit(
            f"{count} {what} exceeds {2 * max_crossings + 2}, twice the "
            f"engine cap {max_crossings} plus 2")


# =====================================================================
# tangles
# =====================================================================

class Tangle:
    """PD fragment with ordered top and bottom boundary arcs, as given."""

    __slots__ = ("records", "top", "bottom", "free_loops")

    def __init__(self, records, top, bottom, free_loops=0):
        self.records = tuple(map(tuple, records))
        self.top = tuple(top)
        self.bottom = tuple(bottom)
        self.free_loops = free_loops

    @property
    def n_top(self) -> int:
        return len(self.top)

    @property
    def n_bottom(self) -> int:
        return len(self.bottom)

    @property
    def n_crossings(self) -> int:
        return len(self.records)

    def __repr__(self):
        return (f"<Tangle {self.n_top}+{self.n_bottom} endpoints, "
                f"{self.n_crossings} crossings>")


def braid_to_tangle(b: BraidWord) -> Tangle:
    """One crossing per letter; positive letters give positive crossings
    once the strands are oriented downward."""
    n = b.strands
    current = list(range(1, n + 1))
    fresh = n + 1
    records = []
    for letter in b.letters:
        i = abs(letter) - 1
        left_in, right_in = current[i], current[i + 1]
        out_left, out_right = fresh, fresh + 1
        fresh += 2
        if letter > 0:
            # under strand: left in -> right out; over: right in -> left out
            records.append((left_in, out_left, out_right, right_in))
        else:
            records.append((right_in, left_in, out_left, out_right))
        current[i], current[i + 1] = out_left, out_right
    return Tangle(records, range(1, n + 1), current)


def tangle_compose(t1: Tangle, t2: Tangle) -> Tangle:
    """Stack t1 on top of t2, fusing t1's bottom to t2's shifted top."""
    if t1.n_bottom != t2.n_top:
        raise StrandMismatch(
            f"cannot stack {t1.n_bottom} strand ends on {t2.n_top}")
    off = max(chain(t1.top, t1.bottom, *t1.records), default=0)
    records, rename, closed = _glue(
        t1.records + tuple(tuple(a + off for a in rec) for rec in t2.records),
        zip(t1.bottom, (a + off for a in t2.top)))
    return Tangle(records, [rename.get(a, a) for a in t1.top],
                  [rename.get(a + off, a + off) for a in t2.bottom],
                  t1.free_loops + t2.free_loops + closed)


def double_block(u_in, o_out, u_out, o_in, mids) -> list[tuple]:
    """The 2x2 crossing block replacing one crossing under doubling.

    Arguments are the (side 0, side 1) lane pairs at the four slots of
    the original record and four fresh middle-arc labels; lane U0 enters
    at slot 0 side 0 and exits at slot 2 side 1, lane O0 enters at slot 3
    side 0 and exits at slot 1 side 1.

    The block keeps the record's orientation.  When slot 0 of the
    original record is its incoming under-strand and the over-strand
    enters at slot ``o``, both lanes run parallel to those strands, so
    each of the four records has slot 0 as its incoming under-strand and
    its over-strand entering at slot ``o`` too.
    """
    m_u0, m_u1, m_o0, m_o1 = mids
    return [
        (u_in[0], m_o1, m_u0, o_in[1]),
        (m_u0, m_o0, u_out[1], o_in[0]),
        (u_in[1], o_out[0], m_u1, m_o1),
        (m_u1, o_out[1], u_out[0], m_o0),
    ]


def tangle_parallel_double(t: Tangle) -> Tangle:
    """Replace every arc by two blackboard-parallel copies; each crossing
    becomes a 2x2 block of four crossings of the same sign.

    Lanes: at every arc end the two lanes are ordered (side 0, side 1),
    and side 0 at one end continues into side 1 at the other.  The k-th
    arc in label order gets lanes (2k+1, 2k+2) at its first end in
    ``diagram._check_occurrences`` order (the top is record n, the bottom
    record n + 1) and (2k+2, 2k+1) at its second; record i's middle arcs
    are the next four labels.  Top positions expand to (side 0, side 1),
    bottom positions to (side 1, side 0).
    """
    if any(len(rec) != 4 for rec in t.records):
        raise DiagramSyntaxError("crossing records have four arcs")
    n = t.n_crossings
    occ = _check_occurrences(t.records + (t.top, t.bottom))
    lanes = {end: (2 * k + 1 + j, 2 * k + 2 - j) for k, a in
             enumerate(sorted(occ)) for j, end in enumerate(occ[a])}
    mid = 2 * len(occ) + 1
    records = [r for i in range(n) for r in double_block(
        lanes[i, 0], lanes[i, 1], lanes[i, 2], lanes[i, 3],
        range(mid + 4 * i, mid + 4 * i + 4))]
    top = [x for k in range(t.n_top) for x in lanes[n, k]]
    bottom = [x for k in range(t.n_bottom) for x in lanes[n + 1, k][::-1]]
    return Tangle(records, top, bottom, 2 * t.free_loops)


# =====================================================================
# closure
# =====================================================================

def trace_closure(t: Tangle) -> Diagram:
    """Braid-style closure joining top k to bottom k.  Every strand runs
    down, entering the tangle at its top arc, so a crossing of a braid's
    closure has the sign of its letter.  A strand that turns back to the
    top cannot run down and raises InconsistentOrientation."""
    if t.n_top != t.n_bottom:
        raise StrandMismatch("trace closure needs equal boundary counts")
    n = t.n_crossings
    # the top is record n and the bottom record n + 1, so an arc with a
    # single end fails here even when that end is on the boundary
    occ = _check_occurrences(t.records + (t.top, t.bottom))
    records, _, closed = _glue(t.records, zip(t.top, t.bottom))
    return Diagram.from_pd(records, t.free_loops + closed,
                           entering=[end for a in t.top
                                     for end in occ[a] if end[0] < n])


# =====================================================================
# plat presentations of a wedge of circles
# =====================================================================

class PlatPresentation(NamedTuple):
    """Wedge of ``2g`` circles as a capped braid.

    The braid acts on ``2*(2g+m)`` strands.  Caps join the top endpoints
    of strands (2k, 2k+1); a cone on the leftmost ``4g`` bottom endpoints
    closes the wedge and cups join the remaining ``2m`` bottom endpoints
    in adjacent pairs.  ``curls`` holds one framing integer per wedge
    circle (circles numbered by their first cone leg, left to right),
    realized as full twists under the circle's first cap when the spine
    is widened to bands.
    """

    genus: int
    extra: int
    braid: BraidWord
    curls: tuple[int, ...]

    @property
    def arcs_per_side(self) -> int:
        return 2 * self.genus + self.extra

    @property
    def strands(self) -> int:
        return 2 * self.arcs_per_side

    def cap_pairs(self) -> list[tuple[int, int]]:
        """0-based strand pairs joined above the braid."""
        return [(2 * k, 2 * k + 1) for k in range(self.arcs_per_side)]

    def cup_pairs(self) -> list[tuple[int, int]]:
        """0-based strand pairs joined below the braid (cone legs excluded)."""
        lo = 4 * self.genus
        return [(lo + 2 * k, lo + 2 * k + 1) for k in range(self.extra)]

    @classmethod
    def from_json(cls, data, max_crossings: int | None = None
                  ) -> "PlatPresentation":
        """Build a plat from decoded plat JSON, the value that
        ``json.loads`` returns for the text; given ``max_crossings``, a
        braid on more strands than ``_check_strands`` allows is refused
        before anything of its size is built."""
        try:
            genus, extra = data["genus"], data.get("extra", 0)
            curls = data.get("curls")
            braid = braid_parse(data["braid"], data.get("strands"))
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise DiagramSyntaxError(f"bad plat JSON: {e}") from e
        if data.get("mode", "plat") != "plat":
            raise DiagramSyntaxError(
                f"bad plat JSON: mode {data['mode']!r}; caps and cups "
                "pair adjacent strands")
        if not (_ints([genus, extra, braid.strands]) and (
                "curls" not in data or isinstance(curls, list)
                and _ints(curls))):
            raise DiagramSyntaxError("bad plat JSON: genus, extra, strands "
                                     "and curls must be integers")
        if max_crossings is not None:
            _check_strands(braid.strands, max_crossings)
        if "curls" not in data:
            if braid.strands != 2 * (2 * genus + extra):
                # fail before 2 * genus default curls are built
                validate_plat(cls(genus, extra, braid, ()))
            curls = [0] * (2 * genus)
        return validate_plat(cls(genus, extra, braid, tuple(curls)))


def validate_plat(p: PlatPresentation) -> PlatPresentation:
    if p.genus < 1 or p.extra < 0:
        raise DiagramSyntaxError("need genus >= 1 and extra arcs >= 0")
    if p.braid.strands != p.strands:
        raise StrandMismatch(
            f"braid on {p.braid.strands} strands, presentation needs {p.strands}")
    if len(p.curls) != 2 * p.genus:
        raise DiagramSyntaxError("one curl count per wedge circle required")
    if len(_circles_by_cap(p)) < p.arcs_per_side:
        raise ExtraComponents(
            "the plat closure has circles besides the wedge spine")
    return p


def plat_wedge(g: int, m: int, braid: BraidWord,
               curls: Iterable[int] | None = None) -> PlatPresentation:
    """Validated plat presentation of a wedge of ``2g`` circles."""
    curls = tuple(curls) if curls is not None else (0,) * (2 * g)
    return validate_plat(PlatPresentation(g, m, braid, curls))


def _circles_by_cap(p: PlatPresentation) -> dict[int, int]:
    """Wedge-circle index of each cap (cap indexed by its position in
    cap_pairs) that a walk from the cone legs reaches; circles numbered
    by first cone leg, left to right.  Every closed component of the
    plat closure passes through a cap, so a cap left out lies on a
    circle besides the wedge spine."""
    perm = p.braid.permutation()
    top_of_bottom = {bottom: top for top, bottom in enumerate(perm)}
    legs = 4 * p.genus
    circle_of_cap: dict[int, int] = {}
    far_legs: set[int] = set()
    for leg in range(legs):
        if leg in far_legs:
            continue
        circle, bottom = len(far_legs), leg
        while True:
            # caps and cups pair endpoints 2k and 2k + 1: cap k holds
            # top t at k = t // 2, and an endpoint's mate is its index ^ 1
            top = top_of_bottom[bottom]
            circle_of_cap[top // 2] = circle
            bottom = perm[top ^ 1]
            if bottom < legs:
                break
            bottom ^= 1
        far_legs.add(bottom)
    return circle_of_cap


def spine_boundary_knot(p: PlatPresentation) -> Diagram:
    """Boundary of the banded wedge spine, as an oriented knot diagram.

    The presentation is widened as given: every strand of the braid
    becomes a band of two parallel strands, each cap and cup a nested
    pair of arcs, and the cone a disk.  Each circle's framing integer
    inserts that many full twists between its first doubled cap and the
    rest of the band.  The spine is connected but the banded surface's
    boundary need not be one circle; a multi-circle boundary raises
    DisconnectedBoundary.

    The diagram is the boundary of the blackboard band surface F, of
    genus g: 4 crossings per braid letter (one band over another) plus
    2|curl| twist crossings per circle.  With zero curls and k letters
    in ``p.braid`` it has 2k + 1 + 2g Seifert circles (one inside each letter's
    crossing block, one per disk region off the projection of F), so
    Seifert's algorithm on it gives genus k - g, not g.
    """
    circle_of_cap = _circles_by_cap(validate_plat(p))
    n = p.strands
    doubled = tangle_parallel_double(braid_to_tangle(p.braid))

    # framing twists on the doubled strand pair below each circle's cap
    twist_letters = []
    seen: set[int] = set()
    for cap_idx, (a, _) in enumerate(p.cap_pairs()):
        c = circle_of_cap[cap_idx]
        if c in seen:
            continue
        seen.add(c)
        k = p.curls[c]
        gen = 2 * a + 1          # doubled positions (2a+1, 2a+2), 1-based
        # the band sides run antiparallel, so a positive curl needs the
        # negative braid letter to contribute +2 to the boundary writhe
        twist_letters.extend([-gen if k > 0 else gen] * (2 * abs(k)))
    if twist_letters:
        twists = braid_to_tangle(BraidWord(2 * n, tuple(twist_letters)))
        doubled = tangle_compose(twists, doubled)

    top, bottom = doubled.top, doubled.bottom
    glues = []
    for a, b in p.cap_pairs():
        glues.append((top[2 * a], top[2 * b + 1]))
        glues.append((top[2 * a + 1], top[2 * b]))
    for a, b in p.cup_pairs():
        glues.append((bottom[2 * a], bottom[2 * b + 1]))
        glues.append((bottom[2 * a + 1], bottom[2 * b]))
    legs = 8 * p.genus
    for point in range(1, legs - 1, 2):
        glues.append((bottom[point], bottom[point + 1]))
    glues.append((bottom[legs - 1], bottom[0]))
    records, _, closed = _glue(doubled.records, glues)
    out = Diagram.from_pd(records, doubled.free_loops + closed, entering=())
    if out.n_components != 1:
        raise DisconnectedBoundary(
            f"banded spine boundary has {out.n_components} circles")
    return out
