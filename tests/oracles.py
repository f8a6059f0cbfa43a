"""The oracles of the tests: slow, independent routes to what the engines
compute.

* ``bracket_state_sum`` sums all ``2^n`` smoothings of a diagram, each
  circle but the last weighing its own ``DELTA``, and ``jones``
  normalizes it by its own ``LaurentPoly`` arithmetic: the oracle of
  the bracket sweep, which the tests reach through ``jones_memoized``;
* ``skein_triple`` and ``verify_jones_skein`` check the Jones skein
  relation at a crossing against the engine's Jones polynomial;
* ``two_var_substitute`` applies a ring morphism to a two-variable
  polynomial term by term, the oracle of the King substitution of
  ``cable``, which computes in integers.

No command runs them, so they live with the tests that use them.  They
import from ``knotcalc.skein`` only what it exports, so that no engine
internal enters the route that checks it.
"""

from fractions import Fraction

from knotcalc.diagram import Diagram, _erase
from knotcalc.errors import KnotError, ResourceLimit
from knotcalc.polyring import LaurentPoly, TwoVarPoly
from knotcalc.skein import jones_memoized

from ops import power, switch_crossing

DEFAULT_ORACLE_CAP = 26
# -A^2 - A^-2, its exponents in quarters of t = A^-4
DELTA = LaurentPoly({-2: -1, 2: -1})


class BadSite(KnotError):
    """A skein operation was pointed at an invalid crossing site."""


def bracket_state_sum(d: Diagram, max_crossings: int = DEFAULT_ORACLE_CAP) -> LaurentPoly:
    """Kauffman bracket by full state enumeration (the oracle path)."""
    n = d.n_crossings
    if n > max_crossings:
        raise ResourceLimit(
            f"{n} crossings exceeds the state-sum cap {max_crossings}")
    if n == 0:
        return power(DELTA, d.n_components - 1)
    arcs = sorted(d.arcs)
    index = {a: k for k, a in enumerate(arcs)}
    recs = [tuple(index[a] for a in rec) for rec in d.crossings]
    m = len(arcs)
    total = LaurentPoly.zero()
    for mask in range(1 << n):
        parent = list(range(m))
        circles = 0
        a_count = 0
        for i, rec in enumerate(recs):
            if (mask >> i) & 1:
                a_count += 1
                pairs = ((rec[0], rec[1]), (rec[2], rec[3]))
            else:
                pairs = ((rec[0], rec[3]), (rec[1], rec[2]))
            for x, y in pairs:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                while parent[y] != y:
                    parent[y] = parent[parent[y]]
                    y = parent[y]
                if x == y:
                    circles += 1
                else:
                    parent[x] = y
        weight = LaurentPoly({n - 2 * a_count: 1})   # A^(2a - n)
        total = total + weight * power(DELTA, circles - 1 + d.free_loops)
    return total


def jones(d: Diagram, max_crossings: int = DEFAULT_ORACLE_CAP) -> LaurentPoly:
    """Jones polynomial from the state-sum bracket: ``(-A)^{-3w} <D>``
    with ``t = A^-4``."""
    w = d.writhe()
    return (LaurentPoly({3 * w: -1 if w % 2 else 1})
            * bracket_state_sum(d, max_crossings))


def skein_triple(d: Diagram, site: int) -> tuple[Diagram, Diagram, Diagram]:
    """The diagrams (L+, L-, L0) agreeing with D away from the site."""
    if not (0 <= site < d.n_crossings):
        raise BadSite(f"no crossing {site}")
    plus = d if d.sign(site) == 1 else switch_crossing(d, site)
    minus = d if d.sign(site) == -1 else switch_crossing(d, site)
    o = d.over_in[site]
    records, closed = _erase(d.crossings, (site,), ((0, (o + 2) % 4), (o, 2)))
    zero = Diagram(records, d.over_in[:site] + d.over_in[site + 1:],
                   d.free_loops + closed)
    return plus, minus, zero


def verify_jones_skein(d: Diagram, site: int) -> bool:
    """Check ``t^-1 V(L+) - t V(L-) + (t^-1/2 - t^1/2) V(L0) = 0`` exactly."""
    plus, minus, zero = skein_triple(d, site)
    lhs = (LaurentPoly.t_pow(-1) * jones_memoized(plus)
           - LaurentPoly.t_pow(1) * jones_memoized(minus)
           + (LaurentPoly.t_pow(Fraction(-1, 2))
              - LaurentPoly.t_pow(Fraction(1, 2)))
           * jones_memoized(zero))
    return lhs.is_zero()


def two_var_substitute(
    poly: TwoVarPoly,
    a_image: LaurentPoly,
    z_image: LaurentPoly,
) -> LaurentPoly:
    """Apply the ring morphism ``a -> a_image, z -> z_image`` to ``poly``.

    Negative ``a`` or ``z`` exponents require the corresponding image to be
    a monomial unit of the Laurent ring.  The Jones-from-F substitution
    ``a -> i t^-2, z -> i(t - t^-1)`` gives a knot a result with real
    coefficients.
    """
    total = LaurentPoly.zero()
    for (ae, ze), c in sorted(poly.terms.items()):
        total = total + power(a_image, ae) * power(z_image, ze) * c
    return total
