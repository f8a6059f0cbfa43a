"""knotcalc: exact knot/link invariants from planar diagram combinatorics."""

from .polyring import GaussInt, LaurentPoly, TwoVarPoly, two_var_substitute

__all__ = [
    "GaussInt",
    "LaurentPoly",
    "TwoVarPoly",
    "two_var_substitute",
]
