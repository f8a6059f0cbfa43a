"""knotcalc: exact knot/link invariants from planar diagram combinatorics."""
