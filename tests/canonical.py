"""The relabeling oracle of the tests: a key of PD records that does not
depend on arc labels or record order.

    canonical_key(d) == canonical_key(e)

holds exactly when the diagrams ``d`` and ``e`` are the same up to arc
relabeling and crossing reordering; mirrors have different keys.  No
engine keys its memo by it (Kauffman F keys its reduced records as they
are), so it lives with the tests that check relabelings.
"""

from knotcalc.diagram import _occurrences, _split_pieces


def canonical_key(d) -> tuple:
    """Key of a diagram: its free loops and the ``canonical_form`` of its
    records, each tagged with its crossing sign."""
    if d.n_crossings == 0:
        return ("U", d.free_loops)
    return (d.free_loops, canonical_form(d.crossings, d.signs))


def canonical_form(records, tags=None) -> tuple:
    """Key of PD records invariant under arc relabeling and record
    reordering: the sorted tuple of each connected piece's least BFS
    encoding over its starts of least local type.

    ``tags`` gives one value per record that must match too: the crossing
    signs of an oriented diagram, or a constant for oriented skein states,
    whose records (slot 0 the incoming under-strand) fix their own signs.
    Untagged records are unoriented states, whose records may also be
    turned half a turn, which keeps the under diagonal in slots 0 and 2.
    Every arc occurs in two slots, as in any diagram or skein state.

    A start is a record read from a turn.  Each slot has a local type,
    read from where its arc ends: the slot offset ``(s2 - s1) & 3`` when
    the arc returns to the same record, else ``4 + (far slot & 1)``.  A
    start's type is its record's four slot types read from its turn,
    followed by the record's tag (0 when untagged).  No type depends on
    an arc label or on the record order, and none on a half-turn of an
    untagged record, since a half-turn moves every slot by 2.  So an
    isomorphism of states maps the least-type starts of a piece onto
    those of its image, and with them their encodings: the least encoding
    over these starts is as canonical as the least over all starts, and
    two states share a key exactly when they are isomorphic.

    An encoding is a BFS, so it covers only its start's piece: when the
    first one covers every record, the key is that piece's encoding.
    Otherwise the pieces are split apart and keyed one by one.
    """
    occ = _occurrences(records)
    types = [[0, 0, 0, 0] for _ in records]
    for (i1, s1), (i2, s2) in occ.values():
        if i1 == i2:
            types[i1][s1] = (s2 - s1) & 3
            types[i1][s2] = (s1 - s2) & 3
        else:
            types[i1][s1] = 4 + (s2 & 1)
            types[i2][s2] = 4 + (s1 & 1)
    width = 4 if tags is None else 5  # encoding entries per record

    def least_encoding(members):
        """The least encoding over the least-type starts of ``members``,
        or None when the first one misses a record of ``members``."""
        starts = []
        for i in members:
            t0, t1, t2, t3 = types[i]
            tag = 0 if tags is None else tags[i]
            starts.append(((t0, t1, t2, t3, tag), i, 0))
            if tags is None:
                starts.append(((t2, t3, t0, t1, tag), i, 2))
        least = min(starts)[0]
        best = None
        for typ, start, turn in starts:
            if typ == least:
                enc = _encode(records, tags, occ, start, turn, best)
                if best is None and len(enc) < width * len(members):
                    return None
                if enc is not None and (best is None or enc < best):
                    best = enc
        return best

    if not records:
        return ()
    key = least_encoding(range(len(records)))
    if key is not None:
        return (key,)
    return tuple(sorted(least_encoding(m) for m in _split_pieces(records)))


def _encode(records, tags, occ, start, turn, best):
    """BFS relabeling of the piece holding ``start``, each record followed
    by its tag; None as soon as a prefix exceeds ``best``.  An untagged
    record reached through an arc in slot 2 or 3 is read half-turned."""
    half_turns = tags is None
    arc_ids: dict[int, int] = {}
    entry_turn = {start: turn}
    queue = [start]
    out = []
    tied = best is not None  # out is still a prefix of best
    pos = 0
    for ci in queue:  # the queue grows while it is read
        rec = records[ci]
        if entry_turn[ci]:
            rec = (rec[2], rec[3], rec[0], rec[1])
        if not half_turns:
            rec += (None,)  # the place of the tag
        for a in rec:
            if a is None:
                k = tags[ci]
            else:
                k = arc_ids.get(a)
                if k is None:
                    k = len(arc_ids)
                    arc_ids[a] = k
                    for cj, sj in occ[a]:
                        if cj not in entry_turn:
                            entry_turn[cj] = (sj & 2) if half_turns else 0
                            queue.append(cj)
            out.append(k)
            if tied:
                b = best[pos]
                if k > b:
                    return None
                if k < b:
                    tied = False
                pos += 1
    return tuple(out)
