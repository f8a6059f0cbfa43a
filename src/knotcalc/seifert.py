"""Seifert's algorithm, Seifert matrices, and the derived invariants.

The matrix pipeline follows the braid route: oriented Reidemeister II
moves make the Seifert circles concentric and coherent (Vogel's
algorithm), the diagram is then read off as a braid word, and the Seifert
matrix of the braid-closure surface comes from the classical description
of its homology generators: one generator per pair of consecutive bands
on the same strand pair, with linking numbers determined by handedness
and interleaving (Collins' algorithm).

Derived quantities rest on one exact integer determinant, Bareiss
fraction-free elimination (``_int_det``).  The Alexander polynomial
``det(t^1/2 S - t^-1/2 S^T)``, normalized symmetric with positive leading
coefficient, is interpolated from integer determinants of ``t S - S^T``
at ``t = 0..n``; the determinant is ``|det(S + S^T)|``; the signature of
``Q = S + S^T`` is read off the interpolated characteristic polynomial
``det(t I - Q)`` by Descartes' rule of signs, exact because its roots are
all real.  Also here: the monicity test (the fiberedness obstruction) and
Trotter's elementary enlargements.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .diagram import Diagram, _orbits
from .errors import DimensionMismatch, MultiComponent
from .moves import reidemeister_r2_add
from .polyring import LaurentPoly

__all__ = [
    "SeifertMatrix",
    "seifert_circles",
    "seifert_surface_genus",
    "seifert_matrix",
    "braid_word_from_diagram",
    "alexander_from_seifert",
    "normalize_alexander",
    "determinant",
    "signature",
    "is_monic",
    "elementary_enlarge",
]


class SeifertMatrix(NamedTuple):
    """Integer Seifert matrix with its homology basis descriptors.

    Each basis entry ``(strand, p, q)`` is the loop through the bands at
    braid levels p and q on the given strand pair.
    """

    matrix: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        return len(self.matrix)


def _coerce_matrix(s) -> tuple[tuple[int, ...], ...]:
    if isinstance(s, SeifertMatrix):
        return s.matrix
    out = tuple(tuple(int(x) for x in row) for row in s)
    for row in out:
        if len(row) != len(out):
            raise DimensionMismatch("matrix must be square")
    return out


# =====================================================================
# Seifert circles
# =====================================================================

def _seifert_successor(d: Diagram) -> dict[int, int]:
    """Next arc after the orientation-respecting smoothing of every
    crossing: at a positive crossing a->b and d->c, at a negative one
    a->d and b->c."""
    succ = {}
    for i, rec in enumerate(d.crossings):
        a, b, c, cc = rec
        if d.sign(i) == 1:
            succ[a] = b
            succ[cc] = c
        else:
            succ[a] = cc
            succ[b] = c
    return succ


def seifert_circles(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """Orbits of arcs under the Seifert smoothing (crossing-free circles
    are not listed; they count as extra circles downstream)."""
    return _orbits(_seifert_successor(d))


def seifert_surface_genus(d: Diagram) -> int:
    """Genus (c - s + 1)/2 of the surface from Seifert's algorithm,
    for knot diagrams.

    The value depends on the diagram, not only on the knot: it is an
    upper bound on the knot genus (an unknot diagram may give any value).
    """
    if d.n_components != 1:
        raise MultiComponent("the knot genus formula needs one component")
    c = d.n_crossings
    s = len(seifert_circles(d)) + d.free_loops
    if (c - s + 1) % 2:
        raise AssertionError("Seifert genus must be an integer for a knot")
    g = (c - s + 1) // 2
    if g < 0:
        raise AssertionError("negative genus")
    return g


# =====================================================================
# Vogel's algorithm: to braid position
# =====================================================================

def _circle_of_arc(circles) -> dict[int, int]:
    out = {}
    for k, orbit in enumerate(circles):
        for a in orbit:
            out[a] = k
    return out


def _smoothed_regions(d: Diagram):
    """Union-find classes of faces after smoothing every crossing; the
    classes are the complementary regions of the Seifert circles."""
    faces = d.faces()
    corner: dict[tuple[int, int], int] = {}
    for fi, face in enumerate(faces):
        for arc, along in face:
            ci, s = d.head_of(arc) if along else d.tail_of(arc)
            corner[(ci, s)] = fi       # walk arrives at slot s, corner (s, s+1)
    parent = list(range(len(faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(d.n_crossings):
        if d.sign(i) == 1:
            f1, f2 = corner[(i, 3)], corner[(i, 1)]
        else:
            f1, f2 = corner[(i, 0)], corner[(i, 2)]
        parent[find(f1)] = find(f2)

    face_of_dart = {}
    for fi, face in enumerate(faces):
        for dart in face:
            face_of_dart[dart] = fi
    return find, face_of_dart


def _seifert_tree(d: Diagram, circles):
    """Oriented edge (right region, left region) per Seifert circle."""
    find, face_of_dart = _smoothed_regions(d)
    edges = []
    for orbit in circles:
        arc = orbit[0]
        right = find(face_of_dart[(arc, True)])
        left = find(face_of_dart[(arc, False)])
        edges.append((right, left))
    return edges


def _is_chain(edges) -> bool:
    tails = [e[0] for e in edges]
    heads = [e[1] for e in edges]
    return len(set(tails)) == len(tails) and len(set(heads)) == len(heads)


def _vogel_move(d: Diagram) -> Diagram | None:
    """One oriented R2 move toward braid position, or None when done."""
    circles = seifert_circles(d)
    if not circles:
        return None
    edges = _seifert_tree(d, circles)
    if _is_chain(edges):
        return None
    circle_of = _circle_of_arc(circles)
    # two circles whose tree edges share a tail or a head can be merged
    # by sliding one across the other inside a shared face
    bad_pairs = set()
    for k1 in range(len(edges)):
        for k2 in range(k1 + 1, len(edges)):
            if edges[k1][0] == edges[k2][0] or edges[k1][1] == edges[k2][1]:
                bad_pairs.add((k1, k2))
    if not bad_pairs:
        raise AssertionError("tree is not a chain but has no defect pair")
    for face in d.faces():
        by_circle: dict[int, tuple] = {}
        for dart in face:
            by_circle.setdefault(circle_of[dart[0]], dart)
        for k1, k2 in bad_pairs:
            if k1 in by_circle and k2 in by_circle:
                return reidemeister_r2_add(
                    d, by_circle[k1], by_circle[k2], True).diagram
    raise AssertionError("no face admits a Vogel move")


def _to_braid_position(d: Diagram, cap: int = 300) -> Diagram:
    for _ in range(cap):
        moved = _vogel_move(d)
        if moved is None:
            return d
        d = moved
    raise AssertionError("Vogel moves did not terminate")


def _braid_arrows(d: Diagram):
    """(position, strand, sign) per crossing of a braid-position diagram,
    positions increasing along the braid axis."""
    d = _to_braid_position(d)
    circles = seifert_circles(d)
    if not circles:
        return [], 1 + d.free_loops
    edges = _seifert_tree(d, circles)
    tails = [e[0] for e in edges]
    heads = [e[1] for e in edges]
    start = None
    for k, t in enumerate(tails):
        if t not in heads:
            start = k
            break
    if start is None:
        raise AssertionError("no chain start (tree has a cycle?)")
    order = [start]
    while True:
        nxt_tail = edges[order[-1]][1]
        if nxt_tail not in tails:
            break
        order.append(tails.index(nxt_tail))
    if len(order) != len(circles):
        raise AssertionError("Seifert tree is not a single chain")

    # visits[k]: crossings along circle order[k], in circle order
    visits = []
    for k in order:
        orbit = circles[k]
        seq = []
        for arc in orbit:
            ci, _ = d.head_of(arc)
            seq.append(ci)
        visits.append(seq)

    # align phases: rotate each next strand to start at a crossing shared
    # with its predecessor
    for i in range(len(visits) - 1):
        shared = None
        for ci in visits[i]:
            if ci in visits[i + 1]:
                shared = ci
                break
        if shared is None:
            raise AssertionError("adjacent strands share no crossing")
        m = visits[i + 1].index(shared)
        visits[i + 1] = visits[i + 1][m:] + visits[i + 1][:m]

    arrows = []
    for i in range(len(visits) - 1):
        nxt_pos = {ci: m for m, ci in enumerate(visits[i + 1])}
        for n, ci in enumerate(visits[i]):
            if ci in nxt_pos:
                arrows.append([n, nxt_pos[ci], i, d.sign(ci)])
    # every crossing joins chain-adjacent circles exactly once
    if len(arrows) != d.n_crossings:
        raise AssertionError("crossing joins non-adjacent Seifert circles")

    # straighten: stretch strand coordinates until each arrow is level
    for _ in range(10000):
        settled = True
        for arrow in arrows:
            tail, head = arrow[0], arrow[1]
            if tail < head:
                diff = head - tail
                for x in arrows:
                    if x[2] == arrow[2] and x[0] >= tail:
                        x[0] += diff
                    if x[2] == arrow[2] - 1 and x[1] >= tail:
                        x[1] += diff
                settled = False
            elif head < tail:
                diff = tail - head
                for x in arrows:
                    if x[2] == arrow[2] and x[1] >= head:
                        x[1] += diff
                    if x[2] == arrow[2] + 1 and x[0] >= head:
                        x[0] += diff
                settled = False
        if settled:
            break
    else:
        raise AssertionError("arrow straightening did not settle")
    arrows.sort(key=lambda x: (x[0], x[2]))
    return ([(a[0], a[2], a[3]) for a in arrows],
            len(circles) + d.free_loops)


def braid_word_from_diagram(d: Diagram) -> tuple[int, list[int]]:
    """(strand count, letters) of a braid whose trace closure is the
    link; positive letters are positive crossings."""
    arrows, strands = _braid_arrows(d)
    return strands, [(s + 1) * sign for _, s, sign in arrows]


# =====================================================================
# the Seifert matrix
# =====================================================================

def seifert_matrix(d: Diagram) -> SeifertMatrix:
    """Seifert matrix ``S[i][j] = lk(basis_i^+, basis_j)`` of the braid
    surface of the diagram."""
    if d.n_components != 1:
        raise MultiComponent("Seifert matrices are computed for knots here")
    arrows, _ = _braid_arrows(d)
    by_strand: dict[int, list[tuple[int, int]]] = {}
    for pos, strand, sign in arrows:
        by_strand.setdefault(strand, []).append((pos, sign))
    gens = []       # (strand, p, q, sign_p, sign_q)
    for strand in sorted(by_strand):
        group = by_strand[strand]
        for k in range(len(group) - 1):
            (p, sp), (q, sq) = group[k], group[k + 1]
            gens.append((strand, p, q, sp, sq))
    n = len(gens)
    m = [[0] * n for _ in range(n)]
    for k, (strand, p, q, sp, sq) in enumerate(gens):
        if sp == sq:
            m[k][k] = sp
    # consecutive generators sharing a band
    for k, (strand, p, q, sp, sq) in enumerate(gens):
        for l, (strand2, r, s, sr, ss) in enumerate(gens):
            if strand2 != strand or r != q:
                continue
            if sq == 1:
                m[l][k] = -1
            else:
                m[k][l] = 1
    # staggered generators on adjacent strands
    for k, (strand, p, q, sp, sq) in enumerate(gens):
        for l, (strand2, r, s, sr, ss) in enumerate(gens):
            if strand2 != strand + 1:
                continue
            if r < p < s < q:
                m[l][k] = -1
            elif p < r < q < s:
                m[l][k] = 1
    # sign fixed so the negative trefoil's signature is -2, matching the
    # standard tables (the other choice is the opposite surface normal)
    return SeifertMatrix(tuple(tuple(row) for row in m),
                         tuple(g[:3] for g in gens))


# =====================================================================
# invariants of the matrix
# =====================================================================

def _int_det(m) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination:
    every division is exact, and a zero pivot is replaced by swapping in
    a lower row."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p, top = a[k][k], a[k][k + 1:]
        for r in range(k + 1, n):
            f = a[r][k]
            a[r][k + 1:] = [(p * x - f * y) // prev
                            for x, y in zip(a[r][k + 1:], top)]
        prev = p
    return sign * prev


def _det_poly(a, b) -> list[int]:
    """Integer coefficients of ``det(a + t b)``, lowest degree first,
    interpolated (Newton divided differences) from ``_int_det`` at
    ``t = 0..n``."""
    n = len(a)
    c = [_int_det([[x + t * y for x, y in zip(ra, rb)]
                   for ra, rb in zip(a, b)]) for t in range(n + 1)]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            c[i], rem = divmod(c[i] - c[i - 1], k)
            if rem:
                raise AssertionError("determinant is not an integer polynomial")
    # Newton form c0 + c1 t + c2 t(t-1) + ..., expanded by Horner's scheme
    poly = [c[n]]
    for k in range(n - 1, -1, -1):
        poly = [x - k * y for x, y in zip([0] + poly, poly + [0])]
        poly[0] += c[k]
    return poly


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def alexander_from_seifert(s) -> LaurentPoly:
    """``det(t^1/2 S - t^-1/2 S^T)``, symmetric with positive leading
    coefficient.  A knot's Seifert matrix has even size; for odd n,
    ``det(t S - S^T)`` is antisymmetric, and ``DimensionMismatch`` is
    raised."""
    m = _coerce_matrix(s)
    n = len(m)
    if n % 2:
        raise DimensionMismatch(
            f"a knot's Seifert matrix has even size, got {n}x{n}")
    neg_t = [[-m[j][i] for j in range(n)] for i in range(n)]
    return normalize_alexander(LaurentPoly.from_terms(
        enumerate(_det_poly(neg_t, m))))


def normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    """Center to the symmetric form and fix a positive leading coefficient."""
    if p.is_zero():
        return p
    center = (p.min_exponent() + p.max_exponent()) / 2
    p = p.shift(-center)
    if p.invert_t() != p:
        raise AssertionError("Alexander polynomial is not symmetric")
    lead = p.coefficient(p.max_exponent())
    if lead.im != 0:
        raise AssertionError("Alexander polynomial has imaginary parts")
    if lead.re < 0:
        p = -p
    return p


def _form(s) -> list[list[int]]:
    """The symmetric form ``S + S^T``."""
    m = _coerce_matrix(s)
    n = len(m)
    return [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]


def determinant(s) -> int:
    """Knot determinant ``|det(S + S^T)| = |Delta(-1)|``."""
    return abs(_int_det(_form(s)))


def signature(s) -> int:
    """Signature of ``Q = S + S^T``: positive minus negative roots of
    ``det(t I - Q)``, counted by Descartes' rule of signs, which is exact
    because the characteristic polynomial of a symmetric matrix has only
    real roots."""
    q = _form(s)
    n = len(q)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = _det_poly([[-x for x in row] for row in q], ident)
    mirrored = [c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]
    return _sign_changes(coeffs) - _sign_changes(mirrored)


def is_monic(delta: LaurentPoly) -> bool:
    """Leading coefficient of the symmetric-normalized Alexander
    polynomial is a unit: the fiberedness obstruction passes."""
    if delta.is_zero():
        return False
    lead = delta.coefficient(delta.max_exponent())
    return lead.im == 0 and abs(lead.re) == 1


def elementary_enlarge(s, mode: str, x: Sequence[int]) -> SeifertMatrix:
    """Trotter elementary enlargement by two rows and columns.

    Row mode borders with ``x`` as a new column; column mode with ``x``
    as a new row.  Both leave the Alexander polynomial, determinant, and
    signature unchanged.
    """
    m = _coerce_matrix(s)
    n = len(m)
    x = [int(v) for v in x]
    if len(x) != n:
        raise DimensionMismatch(f"need a vector of length {n}")
    if mode not in ("row", "column"):
        raise DimensionMismatch(f"unknown enlargement mode {mode!r}")
    big = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(n):
        for j in range(n):
            big[i][j] = m[i][j]
    if mode == "row":
        for i in range(n):
            big[i][n] = x[i]
        big[n][n + 1] = 1
    else:
        for j in range(n):
            big[n][j] = x[j]
        big[n + 1][n] = 1
    basis = None
    if isinstance(s, SeifertMatrix):
        basis = s.basis + ((-1, -1, -1), (-1, -1, -1))
    else:
        basis = tuple((-1, -1, -1) for _ in range(n + 2))
    return SeifertMatrix(tuple(tuple(row) for row in big), basis)
