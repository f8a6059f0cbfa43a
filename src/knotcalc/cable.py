"""Two-strand cables, their orientation variants, and the cabling identity.

``cable2`` produces the satellite ``K~ = K u K*``: the blackboard parallel
copy (every crossing becomes a 2x2 same-sign block) plus ``f - w(K)`` full
twists so that ``lk(K, K*)`` equals the requested framing exactly.  The
two curves are oriented homologously; ``make_hat`` reverses the copy,
giving ``K^ = K u (-K*)``.

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
from .errors import MultiComponent, UnknownComponent
from .polyring import GaussInt, LaurentPoly, TwoVarPoly, two_var_substitute
from .presentations import (BraidWord, braid_to_tangle, double_block,
                            tangle_substitute, trace_closure)

__all__ = [
    "CableLink",
    "blackboard_double",
    "cable2",
    "make_hat",
    "king_substitution",
    "king_verify",
    "jprime_chain",
]

_T = LaurentPoly.t_pow


class CableLink(NamedTuple):
    """A 2-component cable diagram with its component bookkeeping."""

    diagram: Diagram
    base_component: int        # index of K among diagram.components
    parallel_component: int    # index of K* (or -K* after make_hat)
    framing: int               # lk(K, K*) at construction time

    def linking(self) -> int:
        return self.diagram.linking_number(self.base_component,
                                           self.parallel_component)


def _doubled_with_lanes(d: Diagram):
    """Oriented blackboard 2-parallel plus the lane maps of the base arcs."""
    left = {}
    right = {}
    counter = [1]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    for a in sorted(d.arcs):
        left[a], right[a] = fresh(), fresh()

    records = []
    over = []
    for i, rec in enumerate(d.crossings):
        o = d.over_in[i]
        # slots 0 and o hold arc heads; slots 2 and o+2 hold tails
        pairs = [None] * 4
        pairs[0] = (left[rec[0]], right[rec[0]])
        pairs[2] = (right[rec[2]], left[rec[2]])
        pairs[o] = (left[rec[o]], right[rec[o]])
        pairs[(o + 2) % 4] = (right[rec[(o + 2) % 4]], left[rec[(o + 2) % 4]])
        records.extend(double_block(pairs[0], pairs[1], pairs[2], pairs[3],
                                    (fresh(), fresh(), fresh(), fresh())))
        over.extend([o] * 4)
    return Diagram(records, over, 0, _validated=False), left, right


def blackboard_double(d: Diagram) -> tuple[Diagram, int, int]:
    """Oriented blackboard 2-parallel of a knot diagram.

    Returns (diagram, base copy component, parallel copy component);
    both copies run parallel to the base orientation and ``lk = w(base)``.
    """
    if d.n_crossings == 0 and d.n_components == 1:
        return Diagram.unknot(2), 0, 1
    if d.n_components != 1:
        raise MultiComponent("doubling needs a one-component diagram")
    out, left, _ = _doubled_with_lanes(d)
    base_comp = out.component_of(left[min(d.arcs)])
    (other,) = [k for k in range(len(out.components)) if k != base_comp]
    return out, base_comp, other


def cable2(base: Diagram, framing: int = 0) -> CableLink:
    """The 2-strand cable ``K~`` with ``lk(K, K*) = framing`` exactly.

    The blackboard parallel contributes ``w(base)``; the difference is
    corrected by full twists (two same-sign crossings each) spliced in
    after the last base crossing.
    """
    if base.n_components != 1:
        raise MultiComponent("cables are taken over knots")
    twists = framing - base.writhe()
    if base.n_crossings == 0:
        if twists == 0:
            return CableLink(Diagram.unknot(2), 0, 1, framing)
        letters = (1 if twists > 0 else -1,) * (2 * abs(twists))
        diagram = trace_closure(braid_to_tangle(BraidWord(2, letters)))
        out = CableLink(diagram, 0, 1, framing)
    elif twists == 0:
        doubled, base_comp, par_comp = blackboard_double(base)
        out = CableLink(doubled, base_comp, par_comp, framing)
    else:
        doubled, left, right = _doubled_with_lanes(base)
        base_comp = doubled.component_of(left[min(base.arcs)])
        # splice the twist region into the lanes of the arc leaving the
        # last base crossing; the right lane is the tangle's first strand
        # (the disk across the inter-lane face is entered from that side)
        target = base.crossings[-1][2]
        lane_left, lane_right = left[target], right[target]
        letters = (1 if twists > 0 else -1,) * (2 * abs(twists))
        twist_tangle = braid_to_tangle(BraidWord(2, letters))
        probe = min(a for a in doubled.arcs
                    if a not in (lane_left, lane_right))
        probe_was_base = doubled.component_of(probe) == base_comp
        diagram = tangle_substitute(doubled, (lane_right, lane_left),
                                    twist_tangle)
        probe_comp = diagram.component_of(probe)
        base_c = probe_comp if probe_was_base else 1 - probe_comp
        out = CableLink(diagram, base_c, 1 - base_c, framing)
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
    reversed_diagram = d.reverse_component(cable.parallel_component)
    return CableLink(reversed_diagram, cable.base_component,
                     cable.parallel_component, cable.framing)


def king_substitution(f_poly: TwoVarPoly) -> LaurentPoly:
    """``F(i t^-2, i(t - t^-1))``, asserted real."""
    a_image = _T(-2, GaussInt.I)
    z_image = (_T(1) - _T(-1)) * GaussInt.I
    return two_var_substitute(f_poly, a_image, z_image, require_real=True)


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

