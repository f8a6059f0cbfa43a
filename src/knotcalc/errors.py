"""Exception hierarchy shared by all knotcalc modules."""


class KnotError(Exception):
    """Base class for all errors raised by knotcalc."""


# ---------------------------------------------------------------- polynomials

class NonInvertibleImage(KnotError):
    """A substitution needs the inverse of an image that is not a unit."""


class ResidualImaginaryPart(KnotError):
    """A result expected to be real has nonzero imaginary coefficients."""


# ------------------------------------------------------------------- diagrams

class DiagramSyntaxError(KnotError):
    """Malformed PD / braid / plat input text."""


class DanglingArc(DiagramSyntaxError):
    """An arc label occurs an odd number of times (or more than twice)."""


class InconsistentOrientation(KnotError):
    """No consistent orientation of all strands exists."""


class SameComponent(KnotError):
    """Linking number requested for a component with itself."""


class UnknownComponent(KnotError):
    """Component identifier not present in the diagram."""


# -------------------------------------------------------------- presentations

class StrandMismatch(KnotError):
    """Tangle composition or closure with incompatible strand counts."""


class ExtraComponents(KnotError):
    """A plat closure produced circles besides the wedge spine."""


class DisconnectedBoundary(KnotError):
    """The banded spine's boundary is a link, not a knot."""


# ---------------------------------------------------------------------- skein

class ResourceLimit(KnotError):
    """Crossing count exceeds the cap of a polynomial engine, or a
    braid's strand count or a diagram's free loops (for Jones and
    Kauffman F) the bound of twice the cap plus 2.  A cable is sized
    against the cap before it is built."""


# -------------------------------------------------------------------- seifert

class MultiComponent(KnotError):
    """A knot-only operation was applied to a multi-component link."""


class DimensionMismatch(KnotError):
    """A matrix or vector of the wrong size or entries: not a square
    integer matrix, an odd-size Seifert matrix, or an enlargement vector
    of the wrong length or with non-integer entries."""
