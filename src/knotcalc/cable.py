"""Two-strand cables, their orientation variants, and the cabling identity.

``cable2`` produces the satellite ``K~ = K u K*`` by one tangle route:
cut the knot open into a 1-1 tangle, double it with the parallel-copy
rule of ``presentations`` (every crossing becomes a 2x2 same-sign block,
so ``lk = w(K)``), stack ``f - w(K)`` full twists of the two strands
below it, and join its top to its bottom, so that ``lk(K, K*)`` equals
the requested framing exactly.  The two curves are oriented
homologously; ``make_hat`` reverses the copy, giving ``K^ = K u (-K*)``.
The cable is oriented by construction, not by a walk: each doubled
record takes the orientation of the knot's record it replaces, and each
twist record that of its letter, strands running down.
``Diagram._oriented`` checks in O(n) that every arc is entered once and
left once.

``king_verify`` checks the cabling identity tying the two-variable
Kauffman polynomial of a knot to the Jones polynomial of its 2-cable:

    t^f (1 + t + t^-1) F(i t^-2, i(t - t^-1))
        = -(t^1/2 + t^-1/2) V(K~) - t^3f

``king_sides`` writes its two sides from an F already substituted by
``king_substitution``.  Both sides are computed on term maps keyed by
quarter exponents, with ``int`` coefficients when every input
coefficient is real, and multiplied by ``polyring.times``; so
``king_verify`` compares two maps and builds no ``LaurentPoly``.

``jprime_chain`` evaluates the two-step skein derivation that produces
the Jones polynomial of the genus-one double from ``V(K^)``:

    V(middle) = t^2 V(K^) + t^3/2 - t^1/2
    V(J')     = t^2 + (t^3/2 - t^1/2) V(middle)
              = t^3 - t^2 + t + (t^7/2 - t^5/2) V(K^)
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import Diagram, _glue
from .errors import (MultiComponent, NonInvertibleImage, ResidualImaginaryPart,
                     UnknownComponent)
from .polyring import LaurentPoly, TwoVarPoly, _difference_power, times
from .presentations import (BraidWord, Tangle, braid_to_tangle,
                            tangle_compose, tangle_parallel_double)

__all__ = [
    "CableLink",
    "cable2",
    "make_hat",
    "king_substitution",
    "king_sides",
    "king_verify",
    "jprime_chain",
]


class CableLink(NamedTuple):
    """A 2-cable diagram: component 0 is K, component 1 is K* (or -K*
    after ``make_hat``); ``linking()`` reads lk(K, K*) off the diagram."""

    diagram: Diagram

    def linking(self) -> int:
        return self.diagram.linking_number(0, 1)


def _cable_tangle(base: Diagram, twists: int) -> Tangle:
    """The 2-2 tangle whose trace closure is the cable of the knot
    ``base``: the knot cut open at the arc leaving its last crossing into
    a 1-1 tangle that runs down, doubled by ``tangle_parallel_double``,
    and stacked on ``2|twists|`` braid crossings of the sign of
    ``twists``.  Its records keep ``base``'s, four to each, in order,
    then one per twist letter."""
    if base.n_crossings == 0:
        strand = Tangle([], [1], [1])
    else:
        cut = base.crossings[-1][2]
        fresh = max(base.arcs) + 1
        hc, hs = base.head_of(cut)
        records = [list(rec) for rec in base.crossings]
        records[hc][hs] = fresh
        strand = Tangle(records, [fresh], [cut])
    letters = (1 if twists > 0 else -1,) * (2 * abs(twists))
    return tangle_compose(tangle_parallel_double(strand),
                          braid_to_tangle(BraidWord(2, letters)))


def cable2(base: Diagram, framing: int = 0) -> CableLink:
    """The 2-strand cable ``K~`` with ``lk(K, K*) = framing`` exactly.

    The knot is cut open into a 1-1 tangle, doubled (``lk = w(base)``),
    stacked on ``2|f - w|`` braid crossings of the sign of ``f - w``
    (``_cable_tangle``), and closed by joining top k to bottom k with
    ``diagram._glue``.  Which closed component is K and which K* does
    not matter: swapping them is an isotopy of the cable.

    The cable is oriented by construction, with no walk.  Both copies
    run parallel to the knot, so each record of a doubled block keeps
    slot 0 as its incoming under-strand and takes the ``over_in`` slot
    of the knot's record; every twist strand runs down, so a twist
    record has ``over_in`` 3 when its letter is positive and 1 when it
    is negative.  ``Diagram._oriented`` checks that every arc is entered
    and left once.
    """
    if base.n_components != 1:
        raise MultiComponent("cables are taken over knots")
    twists = framing - base.writhe()
    t = _cable_tangle(base, twists)
    records, _, closed = _glue(t.records, zip(t.top, t.bottom))
    over_in = (tuple(o for o in base.over_in for _ in range(4))
               + (3 if twists > 0 else 1,) * (2 * abs(twists)))
    out = CableLink(Diagram._oriented(records, over_in,
                                      t.free_loops + closed))
    if out.diagram.n_components != 2:
        raise AssertionError("cable must have exactly two components")
    if out.linking() != framing:
        raise AssertionError(
            f"cable framing came out {out.linking()}, wanted {framing}")
    return out


def make_hat(cable: CableLink) -> CableLink:
    """Reverse the parallel copy: ``K^ = K u (-K*)``.  A cable without
    crossings is its own hat, as reversing a free circle changes nothing."""
    d = cable.diagram
    if d.n_components != 2:
        raise UnknownComponent("make_hat needs the 2-component cable")
    if not d.crossings:
        return cable
    return CableLink(d.reverse_component(1))


def king_substitution(f_poly: TwoVarPoly) -> LaurentPoly:
    """``F(i t^-2, i(t - t^-1))``, asserted real, in integers.

    A term ``c a^j z^k`` goes to ``c i^(j+k) t^-2j (t - t^-1)^k``, the
    power of ``t - t^-1`` expanded by binomials.  On a knot every term has
    j + k even, so ``i^(j+k) = (-1)^((j+k)/2)``; the terms with j + k odd
    are summed apart, and ``ResidualImaginaryPart`` is raised unless they
    cancel.  A negative power of z raises ``NonInvertibleImage``, as
    ``t - t^-1`` is not a unit.
    """
    terms = f_poly.terms
    if any(k < 0 for _, k in terms):
        raise NonInvertibleImage(
            "negative z-exponents need an invertible z-image")
    real: dict[int, int] = {}
    imag: dict[int, int] = {}
    for (j, k), c in terms.items():
        acc = imag if (j + k) % 2 else real
        if (j + k) % 4 > 1:   # i^(j+k) is -1 or -i
            c = -c
        for e, b in _difference_power(k):
            q = 4 * (e - 2 * j)
            acc[q] = acc.get(q, 0) + b * c
    residue = [f"{c}i t^{q // 4}" for q, c in sorted(imag.items()) if c]
    if residue:
        raise ResidualImaginaryPart(
            f"nonzero imaginary coefficients: {', '.join(residue)}")
    return LaurentPoly(real)


def _int_terms(p: LaurentPoly) -> dict:
    """The term map of ``p`` with ``int`` coefficients when every one is
    real, else with its ``GaussInt`` coefficients."""
    terms = p.terms
    if any(c.im for c in terms.values()):
        return terms
    return {q: c.re for q, c in terms.items()}


def _sides(substituted: LaurentPoly, v_tilde: LaurentPoly,
           framing: int) -> tuple[dict, dict]:
    """The two sides of the cabling identity as term maps keyed by
    quarter exponents, with no zero coefficient."""
    q = 4 * framing
    lhs = times({q - 4: 1, q: 1, q + 4: 1}, _int_terms(substituted))
    rhs = times({2: -1, -2: -1}, _int_terms(v_tilde))
    c = rhs.get(3 * q, 0) - 1
    if c:
        rhs[3 * q] = c
    else:
        del rhs[3 * q]
    return lhs, rhs


def king_sides(substituted: LaurentPoly, v_tilde: LaurentPoly,
               framing: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The two sides of the cabling identity for (``king_substitution``
    of F of the companion, V of the 2-cable, framing), computed on
    quarter-keyed ``int`` term maps."""
    lhs, rhs = _sides(substituted, v_tilde, framing)
    return LaurentPoly(lhs), LaurentPoly(rhs)


def king_verify(f_poly: TwoVarPoly, v_tilde: LaurentPoly, framing: int) -> bool:
    """Exact check of the cabling identity for (F of the companion,
    V of the 2-cable, framing)."""
    lhs, rhs = _sides(king_substitution(f_poly), v_tilde, framing)
    return lhs == rhs


def jprime_chain(v_hat: LaurentPoly) -> LaurentPoly:
    """``V(J') = t^3 - t^2 + t + (t^7/2 - t^5/2) V(K^)``, the end of the
    two displayed skein applications."""
    return (LaurentPoly({12: 1, 8: -1, 4: 1})
            + LaurentPoly({14: 1, 10: -1}) * v_hat)
