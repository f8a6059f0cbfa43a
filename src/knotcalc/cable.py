"""Two-strand cables, their orientation variants, and the cabling identity.

``cable2`` produces the satellite ``K~ = K u K*`` by one tangle route:
cut the knot open into a 1-1 tangle, double it with the parallel-copy
rule of ``presentations`` (every crossing becomes a 2x2 same-sign block,
so ``lk = w(K)``), stack ``f - w(K)`` full twists of the two strands
below it, and trace-close, so that ``lk(K, K*)`` equals the requested
framing exactly.  The two curves are oriented homologously; ``make_hat``
reverses the copy, giving ``K^ = K u (-K*)``.

``king_verify`` checks the cabling identity tying the two-variable
Kauffman polynomial of a knot to the Jones polynomial of its 2-cable:

    t^f (1 + t + t^-1) F(i t^-2, i(t - t^-1))
        = -(t^1/2 + t^-1/2) V(K~) - t^3f

``jprime_chain`` evaluates the two-step skein derivation that produces
the Jones polynomial of the genus-one double from ``V(K^)``:

    V(middle) = t^2 V(K^) + t^3/2 - t^1/2
    V(J')     = t^2 + (t^3/2 - t^1/2) V(middle)
              = t^3 - t^2 + t + (t^7/2 - t^5/2) V(K^)
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diagram import Diagram
from .errors import (MultiComponent, NonInvertibleImage, ResidualImaginaryPart,
                     UnknownComponent)
from .polyring import LaurentPoly, TwoVarPoly, _difference_power
from .presentations import (BraidWord, Tangle, braid_to_tangle,
                            tangle_compose, tangle_parallel_double,
                            trace_closure)

__all__ = [
    "CableLink",
    "cable2",
    "make_hat",
    "king_substitution",
    "king_verify",
    "jprime_chain",
]

_T = LaurentPoly.t_pow


class CableLink(NamedTuple):
    """A 2-cable diagram: component 0 is K, component 1 is K* (or -K*
    after ``make_hat``)."""

    diagram: Diagram
    framing: int               # lk(K, K*) at construction time

    def linking(self) -> int:
        return self.diagram.linking_number(0, 1)


def cable2(base: Diagram, framing: int = 0) -> CableLink:
    """The 2-strand cable ``K~`` with ``lk(K, K*) = framing`` exactly.

    The knot is cut open at the arc leaving its last crossing into a 1-1
    tangle, doubled by ``tangle_parallel_double`` (``lk = w(base)``),
    stacked on ``2|f - w|`` braid crossings of the sign of ``f - w``, and
    trace-closed.  Which closed component is K and which K* does not
    matter: swapping them is an isotopy of the cable.
    """
    if base.n_components != 1:
        raise MultiComponent("cables are taken over knots")
    if base.n_crossings == 0:
        strand = Tangle([], [1], [1])
    else:
        cut = base.crossings[-1][2]
        fresh = max(base.arcs) + 1
        hc, hs = base.head_of(cut)
        records = [list(rec) for rec in base.crossings]
        records[hc][hs] = fresh
        strand = Tangle(records, [fresh], [cut])
    twists = framing - base.writhe()
    letters = (1 if twists > 0 else -1,) * (2 * abs(twists))
    out = CableLink(trace_closure(tangle_compose(
        tangle_parallel_double(strand),
        braid_to_tangle(BraidWord(2, letters)))), framing)
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
    return CableLink(d.reverse_component(1), cable.framing)


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


def king_verify(f_poly: TwoVarPoly, v_tilde: LaurentPoly, framing: int) -> bool:
    """Exact check of the cabling identity for (F of the companion,
    V of the 2-cable, framing)."""
    lhs = (_T(framing) * (LaurentPoly.one() + _T(1) + _T(-1))
           * king_substitution(f_poly))
    rhs = (-(_T(Fraction(1, 2)) + _T(Fraction(-1, 2)))) * v_tilde \
        - _T(3 * framing)
    return lhs == rhs


def jprime_chain(v_hat: LaurentPoly) -> LaurentPoly:
    """``V(J') = t^3 - t^2 + t + (t^7/2 - t^5/2) V(K^)``, the end of the
    two displayed skein applications."""
    return (_T(3) - _T(2) + _T(1)
            + (_T(Fraction(7, 2)) - _T(Fraction(5, 2))) * v_hat)

