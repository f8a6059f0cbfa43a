"""knotcalc: exact knot/link invariants from planar diagram combinatorics."""

from .polyring import GaussInt, LaurentPoly, TwoVarPoly

__all__ = [
    "GaussInt",
    "LaurentPoly",
    "TwoVarPoly",
]
