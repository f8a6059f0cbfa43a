"""Oriented planar link diagrams as PD codes.

A crossing record ``(a, b, c, d)`` lists the four incident arc labels
counterclockwise starting from the incoming under-strand, the convention of
the standard knot tables.  The over-strand runs ``d -> b`` at a positive
crossing and ``b -> d`` at a negative one.  Circles with no crossings cannot
be expressed by PD records and are tracked in a separate ``free_loops``
counter.

Text grammar: whitespace-separated terms ``X[a,b,c,d]`` with positive
integer arc labels, plus optional ``O`` terms, one per crossing-free circle.
A JSON mirror ``{"crossings": [[a,b,c,d], ...], "free_loops": n}`` carries
the same structure for tooling.
Both parsers reject a PD code whose rotation system is not planar;
``Diagram.from_pd``, for callers that build diagrams themselves, does not
check.

Orientation is read by one rule, ``Diagram.from_pd``'s walk.  A strand
entering a record at slot s leaves it at slot s + 2 (mod 4), along the arc
held there, and enters the record at that arc's other end.  Each strand
circle is walked this way from the first of the ``entering`` ends that lies
on it; by default these are every record's slot 0, the PD convention.  A
circle with no listed end, such as one that passes only over, starts at its
least record: at slot 3 when the circle holds that record's over pass, at
slot 0 otherwise.  A listed end that the walk leaves by raises
``InconsistentOrientation``.  A ``Diagram`` built directly from records
and ``over_in`` slots is walked from every record's entering ends, slot 0
and the over-strand's slot, which agree exactly when the walk returns the
same records and slots.  ``_validated=True`` marks tuples that a walk
already produced, or that an operation made from them, and the
constructor stores them as given.  Records oriented by their construction
(``cable.cable2``'s) go through ``Diagram._oriented``, which walks
nothing and checks in O(n) that every arc is entered once and left once.

Reidemeister I and II sites are found and removed here, on one path
for every caller.  ``_kinks`` yields the records that hold one arc in
cyclically adjacent slots, ``_bigons`` the pairs of records joined by an
over arc and an under arc that bound a face (``_bounds_bigon``).
``_erase`` deletes records and joins the arcs across their slot pairs
with ``_glue``; ``_reduce`` erases the first kink, else the first bigon,
with both strands run through, until neither is left.  Kauffman F in
``skein`` reduces its states by ``_reduce``, and so does
``moves.simplify``.  A diagram is rebuilt from erased records with the
kept records' ``over_in`` slots: a walk from slot 0 ends alone would
start a component that passes only over afresh at its least record, and
could turn it round.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import (
    DanglingArc,
    DiagramSyntaxError,
    InconsistentOrientation,
    SameComponent,
    UnknownComponent,
)

__all__ = ["Diagram", "pd_parse"]

Crossing = tuple[int, int, int, int]

def _rotate(t: Crossing, r: int) -> Crossing:
    return (t[r % 4], t[(r + 1) % 4], t[(r + 2) % 4], t[(r + 3) % 4])


class Diagram:
    """Immutable oriented link diagram.

    ``crossings[i]`` is the i-th PD record with slot 0 the incoming
    under-strand; ``over_in[i]`` is 3 when the over-strand enters at slot 3
    (positive crossing) and 1 otherwise (negative crossing).

    Built directly, the diagram is checked by ``from_pd``'s walk from
    the ends ``(i, 0)`` and ``(i, over_in[i])`` of every record, after
    each slot is checked to be 1 or 3.  With ``_validated=True`` the
    constructor stores the tuples it is given: records and slots that a
    walk produced, that an operation made from them and keeps
    consistent, or that ``_oriented`` checked.
    """

    # ``_cache`` keeps the tables that one pass of each benchmark workload
    # (seed 901) looked up again: ``components`` (392 hits of 440 lookups
    # on cable-sweep) and ``faces`` (37 of 109 on table-verify), walked
    # for planarity and read again by the Seifert form.  Arcs, successors
    # and arc ends are rebuilt, and ``linking_number`` reads the component
    # of each crossing's strands from a dict it builds per call.
    __slots__ = ("crossings", "over_in", "free_loops", "_cache")

    def __init__(self, crossings, over_in, free_loops=0, _validated=False):
        if not _validated:
            if len(over_in) != len(crossings):
                raise DiagramSyntaxError("over_in length mismatch")
            for s in over_in:
                if s not in (1, 3):
                    raise DiagramSyntaxError(f"bad over_in slot {s}")
            walked = Diagram.from_pd(crossings, free_loops, [
                end for i, o in enumerate(over_in)
                for end in ((i, 0), (i, o))])
            crossings, over_in = walked.crossings, walked.over_in
            free_loops = walked.free_loops
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "over_in", over_in)
        object.__setattr__(self, "free_loops", free_loops)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *args):
        raise AttributeError("Diagram is immutable")

    # ------------------------------------------------------------ construction

    @classmethod
    def from_pd(cls, crossings: Iterable[Sequence[int]], free_loops: int = 0,
                entering: Iterable[tuple[int, int]] | None = None
                ) -> "Diagram":
        """Build a diagram from raw PD records, orienting every strand.

        ``entering`` lists (record, slot) ends where a strand enters,
        every record's slot 0 by default.  Each strand circle is walked
        from the first listed end on it; a circle with no listed end
        starts at its least record, over pass first (entering at slot 3).
        A listed end the walk leaves by raises InconsistentOrientation.
        Records whose under-strand enters at slot 2 are turned half a
        turn, so slot 0 is the incoming under-strand of every record.
        """
        recs = [tuple(int(x) for x in c) for c in crossings]
        for c in recs:
            if len(c) != 4:
                raise DiagramSyntaxError(f"crossing record {c} must have 4 arcs")
        far = {}  # each end -> the other end of its arc
        for e1, e2 in _check_occurrences(recs).values():
            far[e1], far[e2] = e2, e1
        enters: dict[tuple[int, int], bool] = {}

        def walk(end):
            while end not in enters:
                i, s = end
                out = (i, (s + 2) % 4)
                enters[end], enters[out] = True, False
                end = far[out]

        if entering is None:
            entering = ((i, 0) for i in range(len(recs)))
        for end in entering:
            walk(end)
            if not enters[end]:
                raise InconsistentOrientation(
                    f"record {end[0]} slot {end[1]} is listed as entering, "
                    "but the strand walked from an earlier end leaves there")
        for i in range(len(recs)):
            walk((i, 3))
            walk((i, 0))
        normalized = []
        over_in = []
        for i, rec in enumerate(recs):
            o = 3 if enters[(i, 3)] else 1
            if enters[(i, 2)]:
                rec, o = _rotate(rec, 2), (o + 2) % 4
            normalized.append(rec)
            over_in.append(o)
        # the walk gave every arc one entering and one leaving end
        if int(free_loops) < 0:
            raise DiagramSyntaxError("negative free loop count")
        if not recs and not free_loops:
            raise DiagramSyntaxError(
                "empty diagram: no crossings and no free loops")
        return cls(tuple(normalized), tuple(over_in), int(free_loops),
                   _validated=True)

    @classmethod
    def _oriented(cls, crossings: tuple, over_in: tuple, free_loops: int
                  ) -> "Diagram":
        """A diagram from records oriented by their construction: slot 0
        of each the incoming under-strand, ``over_in`` the over-strand's
        incoming slot (1 or 3), labels positive.  No walk runs; the one
        check, O(n), is that every arc enters exactly one record end
        (slot 0 or ``over_in``) and leaves exactly one (slot 2 or
        ``over_in ^ 2``), else InconsistentOrientation."""
        heads = [rec[0] for rec in crossings] + [
            rec[o] for rec, o in zip(crossings, over_in)]
        tails = [rec[2] for rec in crossings] + [
            rec[o ^ 2] for rec, o in zip(crossings, over_in)]
        entered = set(heads)
        if len(entered) != len(heads) or entered != set(tails):
            arc = min(a for a in entered.union(tails)
                      if heads.count(a) != 1 or tails.count(a) != 1)
            raise InconsistentOrientation(
                f"arc {arc} enters {heads.count(arc)} record ends and "
                f"leaves {tails.count(arc)}, not one each")
        return cls(crossings, over_in, free_loops, _validated=True)

    # -------------------------------------------------------------- inspection

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def arcs(self) -> frozenset[int]:
        return frozenset(a for rec in self.crossings for a in rec)

    def successor(self) -> dict[int, int]:
        """Next arc along the orientation, across one crossing."""
        succ = {}
        for rec, o in zip(self.crossings, self.over_in):
            succ[rec[0]] = rec[2]
            succ[rec[o]] = rec[(o + 2) % 4]
        return succ

    def sign(self, i: int) -> int:
        return 1 if self.over_in[i] == 3 else -1

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if s == 3 else -1 for s in self.over_in)

    def writhe(self) -> int:
        return sum(self.signs)

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Oriented arc cycles, each starting at its minimal arc label,
        ordered by that label.  Crossing-free circles are not included."""
        got = self._cache.get("components")
        if got is None:
            got = _orbits(self.successor())
            self._cache["components"] = got
        return got

    @property
    def n_components(self) -> int:
        return len(self.components) + self.free_loops

    def linking_number(self, c1: int, c2: int) -> int:
        if c1 == c2:
            raise SameComponent("linking number needs two distinct components")
        if not (0 <= c1 < self.n_components and 0 <= c2 < self.n_components):
            raise UnknownComponent(f"component out of range: {c1}, {c2}")
        n = len(self.components)
        if c1 >= n or c2 >= n:
            return 0  # crossing-free circles link nothing
        comp = {a: ci for ci, arcs in enumerate(self.components) for a in arcs}
        pair = {c1, c2}
        total = 0
        for i, (rec, o) in enumerate(zip(self.crossings, self.over_in)):
            if {comp[rec[0]], comp[rec[o]]} == pair:
                total += self.sign(i)
        if total % 2:
            raise InconsistentOrientation("odd inter-component crossing sum")
        return total // 2

    # ------------------------------------------------------------- operations

    def reverse_component(self, c: int) -> "Diagram":
        comps = self.components
        if not (0 <= c < len(comps)):
            raise UnknownComponent(f"component {c} out of range")
        arcs = set(comps[c])
        recs = list(self.crossings)
        over = list(self.over_in)
        for i, rec in enumerate(recs):
            o = over[i]
            under_in_comp = rec[0] in arcs
            over_in_comp = rec[o] in arcs
            if under_in_comp:
                rec = _rotate(rec, 2)
                o = (o + 2) % 4
            if over_in_comp:
                o = (o + 2) % 4
            recs[i], over[i] = rec, o
        return Diagram(tuple(recs), tuple(over), self.free_loops,
                       _validated=True)

    # ------------------------------------------------------------------ faces

    def head_of(self, arc: int) -> tuple[int, int]:
        """(crossing, slot) where the arc terminates: the record i that
        holds it at slot 0 or ``over_in[i]``."""
        for i, (rec, o) in enumerate(zip(self.crossings, self.over_in)):
            for s in (0, o):
                if rec[s] == arc:
                    return i, s
        raise UnknownComponent(f"no arc {arc} in diagram")

    def faces(self) -> tuple[tuple[tuple[int, bool], ...], ...]:
        """Faces of the 4-valent projection, from the rotation system.

        Each face is a cyclic tuple of darts ``(arc, along_orientation)``;
        the walk turns to the counterclockwise-next slot at every crossing.
        Faces start at their least dart and are ordered by it.
        """
        got = self._cache.get("faces")
        if got is not None:
            return got
        nxt = {}  # the dart reaching slot s -> the dart leaving by slot s + 1
        for rec, o in zip(self.crossings, self.over_in):
            heads = (True, o == 1, False, o == 3)  # slot s holds an arc's head
            for s in range(4):
                t = (s + 1) % 4
                nxt[(rec[s], heads[s])] = (rec[t], not heads[t])
        seen = set()
        faces = []
        for d0 in sorted(nxt):
            if d0 in seen:
                continue
            walk = [d0]
            d = nxt[d0]
            while d != d0:
                walk.append(d)
                d = nxt[d]
            seen.update(walk)
            faces.append(tuple(walk))
        got = tuple(faces)
        self._cache["faces"] = got
        return got

    def connected_pieces(self) -> int:
        """Connected components of the underlying 4-valent graph."""
        return len(_split_pieces(self.crossings))

    def is_planar(self) -> bool:
        """Euler test of the rotation system: every connected piece of
        the projection must satisfy V - E + F = 2."""
        if self.n_crossings == 0:
            return True
        v = self.n_crossings
        return v - 2 * v + len(self.faces()) == 2 * self.connected_pieces()

    # ---------------------------------------------------------------- protocol

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.crossings == other.crossings
                and self.over_in == other.over_in
                and self.free_loops == other.free_loops)

    def __hash__(self):
        return hash((self.crossings, self.over_in, self.free_loops))

    def __repr__(self):
        return f"<Diagram {self.n_crossings} crossings, {self.n_components} components>"

    # ------------------------------------------------------------ serialization

    @classmethod
    def from_json(cls, data) -> "Diagram":
        """Build a diagram from decoded diagram JSON, the value that
        ``json.loads`` returns for the text."""
        try:
            crossings = data["crossings"]
            free_loops = data.get("free_loops", 0)
        except (KeyError, TypeError) as e:
            raise DiagramSyntaxError(f"bad diagram JSON: {e}") from e
        if not (isinstance(crossings, list) and _ints([free_loops])
                and all(isinstance(r, list) and _ints(r) for r in crossings)):
            raise DiagramSyntaxError(
                "bad diagram JSON: crossings must be a list of integer "
                "records and free_loops an integer")
        return _planar(cls.from_pd(crossings, free_loops))


def _planar(d: Diagram) -> Diagram:
    """The diagram, once its rotation system is known to be planar: the
    face walks and the Seifert surface built on them need a plane."""
    if not d.is_planar():
        raise DiagramSyntaxError("PD code is not planar")
    return d


def _ints(values) -> bool:
    """True when every value is a JSON integer; bools and floats are not."""
    return all(type(v) is int for v in values)


def _orbits(succ: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a permutation of arc labels, each starting at its least
    label, ordered by that label."""
    seen: set[int] = set()
    orbits = []
    for start in sorted(succ):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        a = succ[start]
        while a != start:
            orbit.append(a)
            seen.add(a)
            a = succ[a]
        orbits.append(tuple(orbit))
    return tuple(orbits)


def _glue(records, pairs) -> tuple[tuple, dict[int, int], int]:
    """Identify the two arcs of each pair, and relabel the records.

    A union-find over arc labels joins the pairs in order.  A merged class
    keeps the label of the first arc of the pair that joined it (first
    wins), and a pair whose two arcs are already one closes a circle.
    Only the records that hold a renamed label are rebuilt.  Returns the
    records, the map from each renamed label to its class label, and the
    number of circles closed.
    """
    parent: dict[int, int] = {}
    closed = 0
    for x, y in pairs:
        while x in parent:
            x = parent[x]
        while y in parent:
            y = parent[y]
        if x == y:
            closed += 1
        else:
            parent[y] = x
    rename = {}
    for a, root in parent.items():
        while root in parent:
            root = parent[root]
        rename[a] = root
    renamed = rename.keys()
    return (tuple(rec if renamed.isdisjoint(rec)
                  else tuple(rename.get(a, a) for a in rec)
                  for rec in records),
            rename, closed)


def _bounds_bigon(rec_p, rec_q, over: int, under: int) -> bool:
    """True when arc ``over``, in an odd slot of both records, and arc
    ``under``, in an even slot of both, bound a bigon face: the slot
    offset from the under arc to the over arc is +1 at one record and -1
    at the other.  Equal offsets make a twisted pair, two curls of one
    sign, which no R2 move removes."""
    return (rec_p.index(over) - rec_p.index(under)
            + rec_q.index(over) - rec_q.index(under)) % 4 == 0


def _kinks(records):
    """The R1 sites of PD records, ``(record, slot)`` in record order: a
    record that holds one arc in slots s and s + 1 (the loop of a kink),
    at its least such s."""
    for i, (a, b, c, d) in enumerate(records):
        if a == b or b == c or c == d or d == a:
            yield i, (0 if a == b else 1 if b == c else 2 if c == d else 3)


def _bigons(records):
    """The R2 sites of PD records, ``(p, q, over, under)`` ordered by the
    first end of the over arc (the ``_occurrences`` order): records p < q
    joined by an arc in an odd slot of both and an arc in an even slot of
    both, which bound a face.  Every arc must occur twice."""
    for x, ((p, s), (q, t)) in _occurrences(records).items():
        if s % 2 and t % 2 and p != q:
            rec_p, rec_q = records[p], records[q]
            for y in {rec_p[0], rec_p[2]} & {rec_q[0], rec_q[2]}:
                if _bounds_bigon(rec_p, rec_q, x, y):
                    yield p, q, x, y


_THROUGH = ((0, 2), (1, 3))  # both strands run through the crossing


def _erase(records, removed, pairs) -> tuple[tuple, int]:
    """The records without those in ``removed``, the arcs in each slot
    pair of ``pairs`` of every removed record joined by ``_glue``, and
    the number of circles closed."""
    glues = [(records[i][s1], records[i][s2])
             for i in removed for s1, s2 in pairs]
    kept, _, closed = _glue(
        [rec for j, rec in enumerate(records) if j not in removed], glues)
    return kept, closed


def _reduce(records):
    """Remove the first kink, else the first bigon, until neither is
    left, erasing each with both strands run through.  Returns the
    records left, the circles closed, the kinks with their loop at an
    even slot less those at an odd slot, the moves made (``"R1-"`` or
    ``"R2-"``, in order) and the indices of the records left."""
    kept = list(range(len(records)))
    closed = curl = 0
    log = []
    while records:
        kink = next(_kinks(records), None)
        if kink is not None:
            removed = kink[:1]
            curl += 1 if kink[1] % 2 == 0 else -1
            log.append("R1-")
        else:
            bigon = next(_bigons(records), None)
            if bigon is None:
                break
            removed = bigon[:2]
            log.append("R2-")
        records, loops = _erase(records, removed, _THROUGH)
        closed += loops
        kept = [k for j, k in enumerate(kept) if j not in removed]
    return records, closed, curl, log, kept


def _occurrences(records) -> dict[int, list[tuple[int, int]]]:
    """Arc label -> its (record index, slot) ends, in record order."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, rec in enumerate(records):
        for s, a in enumerate(rec):
            occ.setdefault(a, []).append((i, s))
    return occ


def _split_pieces(records) -> list[list[int]]:
    """Record indices of each connected piece (records sharing an arc are
    joined by ``_glue``), ordered by their first index."""
    home: dict[int, int] = {}
    _, rename, _ = _glue((), [(home.setdefault(a, i), i)
                              for i, rec in enumerate(records) for a in rec])
    pieces: dict[int, list[int]] = {}
    for i in range(len(records)):
        pieces.setdefault(rename.get(i, i), []).append(i)
    return list(pieces.values())


def _check_occurrences(recs) -> dict[int, list[tuple[int, int]]]:
    """``_occurrences(recs)``, once every label is known to be positive and
    to occur exactly twice."""
    occ = _occurrences(recs)
    for a in occ:
        if a <= 0:
            raise DiagramSyntaxError(f"arc labels must be positive, got {a}")
    bad = {a: len(ends) for a, ends in occ.items() if len(ends) != 2}
    if bad:
        a, k = sorted(bad.items())[0]
        raise DanglingArc(f"arc {a} occurs {k} times (every arc must occur twice)")
    return occ


_PD_TERM = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]$")


def pd_parse(text: str) -> Diagram:
    """Parse the PD text grammar into a validated oriented diagram."""
    crossings = []
    free_loops = 0
    for token in text.split():
        if token == "O":
            free_loops += 1
            continue
        m = _PD_TERM.match(token)
        if not m:
            raise DiagramSyntaxError(f"bad PD term {token!r}")
        crossings.append(tuple(int(g) for g in m.groups()))
    return _planar(Diagram.from_pd(crossings, free_loops))
