"""The scramblers of the tests: Reidemeister moves that change a diagram
but not its link, and the tangle mirror and doubling, for checking that
the invariants do not see the change.

Site types:

* R1 removal: a crossing whose record repeats an arc in cyclically adjacent
  slots (the loop of a kink), as ``diagram._kinks`` finds it.
* R1 addition: an arc plus a sign; the kink is inserted just before the
  arc's head.
* R2 removal: a pair of crossings joined by two arcs, one running over at
  both and the other under at both, that bound a face (a bigon), as
  ``diagram._bigons`` finds it.
* R2 addition: two darts bounding a common face; the first arc is poked
  across the second through that face.
* R3: a triangular face with a side whose strand runs over (or under) at
  both of its corners; that strand slides across the third crossing.

R2 and R3 are regular moves; R1 changes the writhe and every application
reports whether it was regular.  The removers erase their crossings with
``diagram._erase``, both strands run through, as ``moves.simplify`` does,
and rebuild the diagram from the kept records with their ``over_in``
slots, so every component keeps its direction.

``tangle_double_delta`` stacks a braid tangle on its mirror image; the
closure of the result reduces by ``moves.simplify`` to crossing-free
circles, one per strand.

No command runs them, so they live with the tests that use them.
"""

from typing import NamedTuple

from knotcalc.diagram import (Diagram, _THROUGH, _bigons, _erase, _kinks,
                              _occurrences, _rotate)
from knotcalc.errors import KnotError
from knotcalc.presentations import Tangle, tangle_compose


class PatternNotFound(KnotError):
    """The local pattern required by a Reidemeister move is absent."""


class MoveResult(NamedTuple):
    diagram: Diagram
    move: str
    regular: bool


def _erased(d: Diagram, removed: tuple[int, ...]) -> Diagram:
    """D without the crossings ``removed``, both strands run through each
    (``diagram._erase``), walked from the kept records' slots."""
    records, closed = _erase(d.crossings, removed, _THROUGH)
    return Diagram(records, [o for j, o in enumerate(d.over_in)
                             if j not in removed], d.free_loops + closed)


# --------------------------------------------------------------------- R1

def find_r1_sites(d: Diagram) -> list[int]:
    return [i for i, _ in _kinks(d.crossings)]


def reidemeister_r1_remove(d: Diagram, i: int) -> MoveResult:
    if not (0 <= i < d.n_crossings) or i not in find_r1_sites(d):
        raise PatternNotFound(f"crossing {i} is not a kink")
    return MoveResult(_erased(d, (i,)), "R1-", False)


def reidemeister_r1_add(d: Diagram, arc: int | None, sign: int) -> MoveResult:
    """Insert a curl of the given sign just before the arc's head.

    With ``arc=None`` a crossing-free circle is kinked instead.
    """
    if sign not in (1, -1):
        raise PatternNotFound("kink sign must be +1 or -1")
    fresh = max(d.arcs, default=0) + 1
    loop, cont = fresh, fresh + 1
    if arc is None:
        if d.free_loops == 0:
            raise PatternNotFound("no crossing-free circle to kink")
        rec = (loop, loop, cont, cont) if sign == 1 else (loop, cont, cont, loop)
        over = 3 if sign == 1 else 1
        return MoveResult(
            Diagram(d.crossings + (rec,), d.over_in + (over,),
                    d.free_loops - 1, _validated=True),
            "R1+", False)
    if arc not in d.arcs:
        raise PatternNotFound(f"no arc {arc}")
    hc, hs = d.head_of(arc)
    recs = [list(r) for r in d.crossings]
    recs[hc][hs] = cont
    if sign == 1:
        rec, over = (arc, cont, loop, loop), 3
    else:
        rec, over = (arc, loop, loop, cont), 1
    recs.append(list(rec))
    return MoveResult(
        Diagram(recs, d.over_in + (over,), d.free_loops, _validated=False),
        "R1+", False)


# --------------------------------------------------------------------- R2

def find_r2_sites(d: Diagram) -> list[tuple[int, int, int, int]]:
    """(crossing, crossing, over arc, under arc) bigon patterns."""
    return list(_bigons(d.crossings))


def reidemeister_r2_remove(d: Diagram, site: tuple[int, int, int, int]) -> MoveResult:
    sites = find_r2_sites(d)
    if site not in sites and (site[1], site[0], site[2], site[3]) not in sites:
        raise PatternNotFound(f"no R2 bigon at {site}")
    return MoveResult(_erased(d, site[:2]), "R2-", True)


def reidemeister_r2_add(d: Diagram, dart_x: tuple[int, bool],
                        dart_y: tuple[int, bool], x_over: bool = True) -> MoveResult:
    """Poke the strand of ``dart_x`` across ``dart_y`` through their face."""
    face = None
    for f in d.faces():
        if dart_x in f and dart_y in f:
            face = f
            break
    if face is None or dart_x[0] == dart_y[0]:
        raise PatternNotFound("darts do not bound a common face")
    x, dx = dart_x
    y, dy = dart_y
    fresh = max(d.arcs) + 1
    xm, x2, ym, y2 = fresh, fresh + 1, fresh + 2, fresh + 3

    recs = [list(r) for r in d.crossings]
    hx = d.head_of(x) if dx else d.tail_of(x)
    recs[hx[0]][hx[1]] = x2
    hy = d.head_of(y) if dy else d.tail_of(y)
    recs[hy[0]][hy[1]] = y2

    # local picture: dart_x points north with the face east of it, dart_y
    # points south; the bulge crosses y at K1 (south) then K2 (north)
    # K1 ccw from north: (ym, x, y2, xm); K2: (y, x2, ym, xm)
    k1 = (ym, x, y2, xm)
    k2 = (y, x2, ym, xm)
    k1_x_in = x if dx else xm
    k1_y_in = ym if dy else y2
    k2_x_in = xm if dx else x2
    k2_y_in = y if dy else ym
    new = []
    for rec, over_arc, under_arc in (
        (k1, k1_x_in, k1_y_in) if x_over else (k1, k1_y_in, k1_x_in),
        (k2, k2_x_in, k2_y_in) if x_over else (k2, k2_y_in, k2_x_in),
    ):
        r = rec.index(under_arc)
        rot = _rotate(tuple(rec), r)
        new.append((rot, rot.index(over_arc)))
    recs.extend([list(t) for t, _ in new])
    over = d.over_in + tuple(o for _, o in new)
    return MoveResult(Diagram(recs, over, d.free_loops, _validated=False),
                      "R2+", True)


# --------------------------------------------------------------------- R3

class R3Site(NamedTuple):
    p: int          # crossing of the sliding strand and strand u
    q: int          # crossing of the sliding strand and strand v
    r: int          # crossing of u and v (fixed by the move)
    x: int          # sliding arc, between p and q
    y: int          # triangle side between q and r
    z: int          # triangle side between p and r


def find_r3_sites(d: Diagram) -> list[R3Site]:
    sites = []
    incid = _occurrences(d.crossings)
    for face in d.faces():
        if len(face) != 3:
            continue
        arcs = [dart[0] for dart in face]
        if len(set(arcs)) != 3:
            continue
        ends = {arc: {ci for ci, _ in incid[arc]} for arc in arcs}
        crossings = ends[arcs[0]] | ends[arcs[1]] | ends[arcs[2]]
        if len(crossings) != 3 or any(len(e) != 2 for e in ends.values()):
            continue
        for x in arcs:
            (p, s1), (q, s2) = incid[x]
            if (s1 - s2) % 2:  # over at one end, under at the other
                continue
            (r,) = crossings - {p, q}
            (z,) = [a for a in arcs if ends[a] == {p, r}]
            (y,) = [a for a in arcs if ends[a] == {q, r}]
            sites.append(R3Site(p, q, r, x, y, z))
    return sites


def reidemeister_r3(d: Diagram, site: R3Site) -> MoveResult:
    if site not in find_r3_sites(d):
        raise PatternNotFound(f"no R3 triangle at {site}")
    p, q, r, x, y, z = site
    incid = _occurrences(d.crossings)
    (pp, xp), (qq, xq) = incid[x]
    if (pp, qq) != (p, q):
        xp, xq = xq, xp
    zp = d.crossings[p].index(z)
    yq = d.crossings[q].index(y)
    zr = d.crossings[r].index(z)
    yr = d.crossings[r].index(y)

    f_s = d.crossings[q][(xq + 2) % 4]
    e_s = d.crossings[p][(xp + 2) % 4]
    f_u = d.crossings[r][(zr + 2) % 4]
    e_u = d.crossings[p][(zp + 2) % 4]
    f_v = d.crossings[r][(yr + 2) % 4]
    e_v = d.crossings[q][(yq + 2) % 4]

    recs = [list(rec) for rec in d.crossings]
    recs[p][(xp + 2) % 4] = f_s
    recs[p][(zp + 2) % 4] = f_u
    recs[q][(xq + 2) % 4] = e_s
    recs[q][(yq + 2) % 4] = f_v
    recs[r][(zr + 2) % 4] = e_u
    recs[r][(yr + 2) % 4] = e_v

    over = list(d.over_in)
    for ci in (p, q, r):
        recs[ci] = list(_rotate(tuple(recs[ci]), 2))
    return MoveResult(Diagram(recs, over, d.free_loops, _validated=False),
                      "R3", True)


# ------------------------------------------------------------------ tangles

def tangle_mirror(t: Tangle) -> Tangle:
    """Reflection through the horizontal plane: top and bottom swap, the
    rotation order of every record reverses, and each braid-like letter
    turns into its inverse.  The under-strand diagonal stays in slots 0/2."""
    return Tangle([(rec[0], rec[3], rec[2], rec[1]) for rec in t.records],
                  t.bottom, t.top, t.free_loops)


def tangle_double_delta(t: Tangle) -> Tangle:
    """The doubling ``delta(T)``: T stacked on its mirror image."""
    return tangle_compose(t, tangle_mirror(t))
