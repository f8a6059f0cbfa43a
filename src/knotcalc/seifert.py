"""Seifert's algorithm, Seifert matrices, and the derived invariants.

Seifert's algorithm smooths each crossing along the orientation.  The
Seifert circles bound disks, a disk nested in another one lying above
it, and a half-twisted band at each crossing joins the disks of the two
circles there.  For a knot diagram with c crossings and s circles this
surface has first homology of rank c - s + 1, and ``seifert_matrix``
builds the Seifert form on it directly (after Lickorish, *An
Introduction to Knot Theory*, ch. 6).

Basis.  The c + 2 faces of the diagram fall into the s + 1 regions the
circles cut out.  A face's loop runs around the face, with the face on
its right, just on the disk side of each arc.  At a corner that the
smoothing opens into the opposite one it crosses the crossing's band;
at the other corners it follows its circle.  The loops of all faces but
the first of each region are a basis.  On a braid closure the faces of
the region between two strands are the lobes between consecutive bands,
so the basis is Collins' one.

Entries.  The loops run in a thin neighbourhood of the circles and
bands, so a loop f, pushed off along the normal for which the surface's
boundary is the knot, crosses a loop g in projection only near
crossings, and ``lk(f^+, g)`` is a sum of local terms.  Turn a crossing
so that both smoothed arcs run upward: the left one L, the right one R,
the band across between them.  Let t, b, l and r be the faces at its top
corner (between the outgoing strands), its bottom corner (between the
incoming ones), left of L and right of R.  The twist corner is b at a
positive crossing and t at a negative one, the other corner the
remaining one of t and b.  Each disk lies on the
side of its circle away from the region of face 0, taken as the outside;
the disks of L and R never both cover the band.  Writing a face for its
indicator vector, the crossing adds ``u_f v_g`` to ``S[f][g]`` with

* neither disk over the band: ``u = b - t``, ``v = twist``;
* R's disk over the band:     ``u = b - t``, ``v = twist - r``;
* L's disk over the band:     ``u = other - l``, ``v = t - b``.

These were counted once on an explicit model of the neighbourhood: the
loops' crossings at the half twist, where the band folds back over the
disk that covers it, and where two loops swap lanes on a disk.  On each
arc the loop of the face off the disk side runs nearer the circle.  The
total work is linear in c after ``Diagram.faces()``.

Derived quantities rest on one exact integer determinant, Bareiss
fraction-free elimination (``_int_det``).  The Alexander polynomial
``det(t^1/2 S - t^-1/2 S^T)``, normalized symmetric with positive leading
coefficient, is read off one integer determinant of ``t S - S^T`` at a
t past every coefficient's bound (``_det_poly``); the determinant is
``|det(S + S^T)|``; the signature of ``Q = S + S^T`` is read off the
characteristic polynomial ``det(t I - Q)``, found the same way, by
Descartes' rule of signs, exact because its roots are all real.  Also
here: the monicity test (the fiberedness obstruction) and Trotter's
elementary enlargements.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .diagram import Diagram, _glue, _ints, _orbits
from .errors import DimensionMismatch, MultiComponent
from .polyring import LaurentPoly

__all__ = [
    "SeifertMatrix",
    "seifert_circles",
    "seifert_surface_genus",
    "seifert_matrix",
    "alexander_from_seifert",
    "normalize_alexander",
    "determinant",
    "signature",
    "is_monic",
    "elementary_enlarge",
]


class SeifertMatrix(NamedTuple):
    """Integer Seifert matrix with its homology basis descriptors.

    Each basis entry is a face of the diagram, as ``Diagram.faces()``
    gives it (a cycle of darts), standing for the loop around that face
    on the Seifert surface; entries added by ``elementary_enlarge`` are
    the empty tuple.
    """

    matrix: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[tuple[int, bool], ...], ...]

    @property
    def size(self) -> int:
        return len(self.matrix)


def _coerce_matrix(s) -> tuple[tuple[int, ...], ...]:
    if isinstance(s, SeifertMatrix):
        return s.matrix
    out = tuple(tuple(row) for row in s)
    for row in out:
        if len(row) != len(out) or not _ints(row):
            raise DimensionMismatch("matrix must be a square integer matrix")
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
# the Seifert matrix
# =====================================================================

def seifert_matrix(d: Diagram) -> SeifertMatrix:
    """Seifert matrix ``S[i][j] = lk(basis_i^+, basis_j)`` on the surface
    that Seifert's algorithm gives for the diagram as it is, of size
    c - s + 1; the module docstring gives the face basis and the local
    terms."""
    if d.n_components != 1:
        raise MultiComponent("Seifert matrices are computed for knots here")
    return _seifert_form(d)


def _seifert_form(d: Diagram) -> SeifertMatrix:
    """The Seifert form of ``seifert_matrix`` on any diagram without free
    loops whose projection is connected, links included: then the
    surface is connected and the c - s + 1 face loops are a basis."""
    if not d.crossings:
        return SeifertMatrix((), ())
    faces = d.faces()
    face_of = {dart: fi for fi, face in enumerate(faces) for dart in face}
    # the walk along the dart that arrives at slot s of crossing i, the
    # arc's head exactly when s is 0 or the over-strand's entry, turns
    # into the corner between slots s and s + 1
    corner = {(i, s): face_of[rec[s], s == 0 or s == o]
              for i, (rec, o) in enumerate(zip(d.crossings, d.over_in))
              for s in range(4)}
    # regions cut out by the circles: the smoothing opens corners 1 and 3
    # of a positive crossing into each other, 0 and 2 of a negative one
    pairs = []
    for i in range(d.n_crossings):
        s = 1 if d.sign(i) == 1 else 0
        pairs.append((corner[(i, s)], corner[(i, s + 2)]))
    _, rename, _ = _glue((), pairs)

    def region_of(f):
        return rename.get(f, f)

    # the Seifert tree: regions joined across the circles, rooted at the
    # region of face 0, taken as the outside; each disk lies away from it
    sides = {a: (region_of(face_of[a, True]), region_of(face_of[a, False]))
             for a in d.arcs}
    adjacent: dict[int, set[int]] = {}
    for right, left in sides.values():
        adjacent.setdefault(right, set()).add(left)
        adjacent.setdefault(left, set()).add(right)
    depth = {region_of(0): 0}
    queue = [region_of(0)]
    for x in queue:
        for y in adjacent[x]:
            if y not in depth:
                depth[y] = depth[x] + 1
                queue.append(y)

    def disk_on_left(a):
        right, left = sides[a]
        return depth[left] > depth[right]

    # the first face of each region is dropped; the others' loops are a basis
    index: dict[int, int] = {}
    seen = set()
    for fi in range(len(faces)):
        region = region_of(fi)
        if region in seen:
            index[fi] = len(index)
        seen.add(region)
    n = len(index)
    m = [[0] * n for _ in range(n)]
    for i, rec in enumerate(d.crossings):
        # turned so that both strands leave upward, r, t, l and b are the
        # faces at the corners from slot neg on, and the arcs in slots
        # 2 + neg and 1 + neg leave along L and R
        neg = int(d.sign(i) == -1)
        r, t, l, b = (corner[(i, (k + neg) % 4)] for k in range(4))
        twist, other = (t, b) if neg else (b, t)
        if not disk_on_left(rec[2 + neg]):      # L's disk covers the band
            u, v = ((other, 1), (l, -1)), ((t, 1), (b, -1))
        elif disk_on_left(rec[1 + neg]):        # R's disk covers the band
            u, v = ((b, 1), (t, -1)), ((twist, 1), (r, -1))
        else:
            u, v = ((b, 1), (t, -1)), ((twist, 1),)
        for f, x in u:
            for g, y in v:
                if f in index and g in index:
                    m[index[f]][index[g]] += x * y
    return SeifertMatrix(tuple(tuple(row) for row in m),
                         tuple(faces[fi] for fi in index))


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
    """Integer coefficients of ``det(a + t b)``, lowest degree first, read
    off one integer determinant (Kronecker substitution).  Every
    coefficient is at most the product of the rows' l1 norms, so at
    ``t = 2 * bound + 1`` the balanced base-t digits of the determinant
    are the coefficients."""
    bound = 1
    for ra, rb in zip(a, b):
        bound *= sum(map(abs, ra)) + sum(map(abs, rb))
    base = 2 * bound + 1
    value = _int_det([[x + base * y for x, y in zip(ra, rb)]
                      for ra, rb in zip(a, b)])
    poly = []
    for _ in range(len(a) + 1):
        value, digit = divmod(value, base)
        if digit > bound:
            value, digit = value + 1, digit - base
        poly.append(digit)
    if value:
        raise AssertionError("determinant exceeds its coefficient bound")
    return poly


def _seifert_det(s) -> list[int]:
    """Integer coefficients of ``det(t S - S^T)``, lowest degree first."""
    return _det_poly([[-x for x in column] for column in zip(*s)], s)


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
    return _centered({4 * k: c for k, c in enumerate(_seifert_det(m)) if c})


def normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    """Center to the symmetric form and fix a positive leading coefficient."""
    return _centered(p.terms)


def _centered(terms: dict) -> LaurentPoly:
    """The polynomial of {quarter exponent: nonzero coefficient}, int or
    GaussInt, shifted to be symmetric about t^0 and signed so that its
    leading coefficient is positive."""
    if not terms:
        return LaurentPoly.zero()
    lo, hi = min(terms), max(terms)
    if (lo + hi) % 2:
        raise ValueError(
            f"exponent {Fraction(-(lo + hi), 8)} is not a multiple of 1/4")
    if any(terms.get(lo + hi - q) != c for q, c in terms.items()):
        raise AssertionError("Alexander polynomial is not symmetric")
    lead = terms[hi]
    if not isinstance(lead, int):
        if lead.im != 0:
            raise AssertionError("Alexander polynomial has imaginary parts")
        lead = lead.re
    mid, sign = (lo + hi) // 2, -1 if lead < 0 else 1
    return LaurentPoly({q - mid: sign * c for q, c in terms.items()})


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
    x = list(x)
    if len(x) != n or not _ints(x):
        raise DimensionMismatch(f"need an integer vector of length {n}")
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
    basis = s.basis if isinstance(s, SeifertMatrix) else ((),) * n
    return SeifertMatrix(tuple(tuple(row) for row in big), basis + ((), ()))
