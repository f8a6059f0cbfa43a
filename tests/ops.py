"""Diagram and polynomial operations that only the tests need: mirrors
for the digest corpus and the mirror checks, one switched crossing for
the skein oracle, an arc's tail for the R2 scrambler, relabelings and
disjoint unions for the invariance checks, exact evaluation for the
Delta(-1) = det cross-checks, and powers of Laurent polynomials for the
oracles, negative ones of Gaussian monomials for the King oracle.

No command runs them, so they live with the tests that use them.
"""

from fractions import Fraction

from knotcalc.diagram import Diagram, _rotate
from knotcalc.errors import (NonInvertibleImage, ResidualImaginaryPart,
                             UnknownComponent)
from knotcalc.polyring import GaussInt, LaurentPoly


def mirror(d: Diagram) -> Diagram:
    """Switch every crossing's over/under strand."""
    # the old under-in lands at slot (0 - o) mod 4 and is the new over-in
    return Diagram(tuple(map(_rotate, d.crossings, d.over_in)),
                   tuple((0 - o) % 4 for o in d.over_in),
                   d.free_loops, _validated=True)


def switch_crossing(d: Diagram, i: int) -> Diagram:
    """Mirror the single crossing ``i``."""
    recs = list(d.crossings)
    over = list(d.over_in)
    o = over[i]
    recs[i] = _rotate(recs[i], o)
    over[i] = (0 - o) % 4
    return Diagram(tuple(recs), tuple(over), d.free_loops, _validated=True)


def tail_of(d: Diagram, arc: int) -> tuple[int, int]:
    """(crossing, slot) where the arc starts: the record i that holds it
    at slot 2 or ``over_in[i] + 2``."""
    for i, (rec, o) in enumerate(zip(d.crossings, d.over_in)):
        for s in (2, (o + 2) % 4):
            if rec[s] == arc:
                return i, s
    raise UnknownComponent(f"no arc {arc} in diagram")


def relabeled(d: Diagram) -> Diagram:
    """Same diagram with arcs renumbered densely from 1."""
    mapping = {a: k + 1 for k, a in enumerate(sorted(d.arcs))}
    recs = tuple(tuple(mapping[a] for a in rec) for rec in d.crossings)
    return Diagram(recs, d.over_in, d.free_loops, _validated=True)


def disjoint_union(d: Diagram, e: Diagram) -> Diagram:
    """``d`` beside ``e``, whose arcs are shifted past ``d``'s."""
    offset = max(d.arcs, default=0)
    recs = tuple(tuple(a + offset for a in rec) for rec in e.crossings)
    return Diagram(d.crossings + recs, d.over_in + e.over_in,
                   d.free_loops + e.free_loops, _validated=True)


def eval_at(p: LaurentPoly, t0) -> Fraction:
    """Exact value of ``p`` at a rational ``t0``; integer exponents and
    real coefficients are required."""
    t0 = Fraction(t0)
    if t0 == 0:
        raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
    if any(c.im for c in p.terms.values()):
        raise ResidualImaginaryPart(f"nonzero imaginary coefficients in {p}")
    total = Fraction(0)
    for q, c in p.terms.items():
        if q % 4:
            raise ValueError(f"exponent {Fraction(q, 4)} is not an integer")
        total += c.re * t0 ** (q // 4)
    return total


def power(p: LaurentPoly, k: int) -> LaurentPoly:
    """``p`` to the integer power ``k``; a negative ``k`` needs a monomial
    whose coefficient is a unit of Z[i] (1, -1, i or -i)."""
    if k < 0:
        if len(p.terms) != 1:
            raise NonInvertibleImage(f"{p} is not invertible in the Laurent ring")
        ((q, c),) = p.terms.items()
        if c.re * c.re + c.im * c.im != 1:
            raise NonInvertibleImage(f"{c} is not a unit in Z[i]")
        p, k = LaurentPoly({-q: GaussInt(c.re, -c.im)}), -k
    out = LaurentPoly.one()
    for _ in range(k):
        out = out * p
    return out
