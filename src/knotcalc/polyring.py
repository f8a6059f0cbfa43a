"""Exact Laurent polynomial arithmetic.

Two rings live here:

* ``LaurentPoly`` -- one variable ``t`` with Gaussian-integer coefficients.
  Exponents are stored as integer counts of *quarter* units of ``t``, so a
  single representation covers the bracket variable ``A`` (via ``t = A^-4``,
  i.e. ``A = t^-1/4``), the half-integer exponents of Jones polynomials of
  even-component links, and ordinary integer exponents.

* ``TwoVarPoly`` -- two variables ``a, z`` with integer coefficients and
  integer exponents, the home of the two-variable Kauffman polynomial.
  The term ``a^i z^j`` is keyed ``i * A_STEP + j`` with ``A_STEP = 2^20``,
  which holds ``-2^19 <= j < 2^19``; so a monomial factor adds its key to
  every key, and the chord sweep of ``chords`` computes in these keys.

Both rings hold a map from int keys to nonzero coefficients and share one
set of operations on it, ``_Poly``: ``+``, ``-``, ``*`` (by ``times``),
``==``, hashing, truth and immutability.  Everything is exact; no
floating point is used anywhere.

Canonical string grammar (used by golden files and the CLI):
terms are sorted by ascending exponent and joined with `` + `` / `` - ``;
a coefficient of magnitude 1 is dropped in front of a variable; ``t`` powers
print as ``t``, ``t^3``, ``t^-1`` or with a reduced fraction ``t^1/2``,
``t^-25/2``, ``t^-3/4``.  Two-variable terms group by ascending ``z`` power,
each ``a``-coefficient polynomial in the same scalar grammar, parenthesised
when it has more than one term, e.g. ``(-a^-2 + a^2 + a^4) + (2a + 2a^3)z``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol, Union

__all__ = [
    "A_STEP",
    "GaussInt",
    "LaurentPoly",
    "TwoVarPoly",
    "times",
]

A_STEP = 1 << 20


class GaussInt:
    """A Gaussian integer ``re + im*i`` with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *args):
        raise AttributeError("GaussInt is immutable")

    @staticmethod
    def coerce(value: "GaussInt | int") -> "GaussInt":
        if isinstance(value, GaussInt):
            return value
        if isinstance(value, int):
            return GaussInt(value, 0)
        raise TypeError(f"{value!r} is not a Gaussian integer")

    def __add__(self, other):
        try:
            other = GaussInt.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussInt.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = GaussInt.coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        try:
            other = GaussInt.coerce(other)
        except TypeError:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if b == 0 and d == 0:
            return GaussInt(a * c, 0)
        return GaussInt(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussInt):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({re}{sign}{istr})"


GaussInt.ONE = GaussInt(1, 0)
GaussInt.I = GaussInt(0, 1)


class _Rational(Protocol):
    """An exact rational, such as a ``fractions.Fraction``."""

    numerator: int
    denominator: int


Coefficient = Union[GaussInt, int]
ExponentLike = Union[int, _Rational]


def _quarters(exponent: ExponentLike) -> int:
    """``exponent``, an int or an exact rational, in quarter units."""
    if isinstance(exponent, int):
        return 4 * exponent
    try:
        q, r = divmod(4 * exponent.numerator, exponent.denominator)
    except AttributeError:
        raise TypeError(f"exponent {exponent!r} is not an int or an exact "
                        "rational") from None
    if r:
        raise ValueError(f"exponent {exponent} is not a multiple of 1/4")
    return q


def _exp_str(var: str, quarters: int) -> str:
    """``var`` to the power ``quarters / 4``, the fraction reduced."""
    if quarters == 4:
        return var
    if quarters % 4 == 0:
        return f"{var}^{quarters // 4}" if quarters else ""
    if quarters % 2 == 0:
        return f"{var}^{quarters // 2}/2"
    return f"{var}^{quarters}/4"


def _difference_power(k: int) -> list[tuple[int, int]]:
    """``(x - x^-1)^k`` by binomials, as (exponent of x, coefficient)
    pairs from the top power down."""
    out, c = [], 1
    for j in range(k + 1):
        out.append((k - 2 * j, c))
        c = -c * (k - j) // (j + 1)
    return out


def _scalar_term_strings(items) -> list[tuple[str, str]]:
    """Render (power-string, coefficient) term pairs as (sign, body) pairs."""
    out = []
    for power, coeff in items:
        if coeff.im == 0:
            sign = "-" if coeff.re < 0 else "+"
            mag = abs(coeff.re)
            if power and mag == 1:
                body = power
            elif power:
                body = f"{mag}{power}"
            else:
                body = str(mag)
        else:
            # mixed / imaginary coefficients always join with '+'
            sign = "+"
            cstr = str(coeff)
            body = f"{cstr}{power}" if power else cstr
        out.append((sign, body))
    return out


def _join_terms(parts: list[tuple[str, str]]) -> str:
    if not parts:
        return "0"
    sign, body = parts[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def times(p: dict, q: dict) -> dict:
    """The product of two term maps, with no zero coefficient."""
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:  # the coefficients form a domain: nothing cancels
        ((e1, c1),) = p.items()
        return {e1 + e2: c1 * c2 for e2, c2 in q.items()}
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            prev = out.get(e)
            if prev is None:
                out[e] = c1 * c2
            else:
                s = prev + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


class _Poly:
    """The ring operations of both rings, over ``_terms``, a map from int
    keys (adding under multiplication) to nonzero coefficients.  A ring
    sets ``_SCALAR``, the coefficient type it takes as a constant, and
    ``_coeff``, which makes one a coefficient.  It binds ``+`` and ``*``
    in its own class dict: ``perfbench``'s tracer wraps a class's own
    bindings only."""

    __slots__ = ("_terms",)

    @classmethod
    def _of(cls, terms: dict):
        """The polynomial of a term map with no zero coefficient."""
        out = cls.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def one(cls):
        return cls._of({0: cls._coeff(1)})

    def _lift(self, other):
        """``other`` in this ring (a scalar as a constant), or None."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self._SCALAR):
            return self._of({0: self._coeff(other)} if other else {})
        return None

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for q, c in other._terms.items():
            prev = acc.get(q)
            if prev is None:
                acc[q] = c
            else:
                s = prev + c
                if s:
                    acc[q] = s
                else:
                    del acc[q]
        return self._of(acc)

    def __neg__(self):
        return self._of({q: -c for q, c in self._terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self._of(times(self._terms, other._terms))

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class LaurentPoly(_Poly):
    """Laurent polynomial in ``t^(1/4)`` over the Gaussian integers.

    The term map sends the exponent, counted in quarter units of ``t``,
    to its nonzero coefficient.  Instances are immutable and canonical:
    equal polynomials have equal term maps.
    """

    __slots__ = ()
    _SCALAR = (int, GaussInt)
    _coeff = staticmethod(GaussInt.coerce)
    __add__ = __radd__ = _Poly.__add__
    __mul__ = __rmul__ = _Poly.__mul__

    def __init__(self, terms: Mapping[int, Coefficient] | None = None):
        clean: dict[int, GaussInt] = {}
        if terms:
            for q, c in terms.items():
                if not isinstance(q, int):
                    raise TypeError(f"exponent key {q!r} is not an int")
                c = GaussInt.coerce(c)
                if c:
                    clean[q] = c
        object.__setattr__(self, "_terms", clean)

    # ------------------------------------------------------------ constructors

    @classmethod
    def t_pow(cls, exponent: ExponentLike) -> "LaurentPoly":
        """``t**exponent`` with ``exponent`` any multiple of 1/4."""
        return cls({_quarters(exponent): 1})

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[ExponentLike, Coefficient]]) -> "LaurentPoly":
        acc: dict[int, GaussInt] = {}
        for exponent, coeff in pairs:
            q = _quarters(exponent)
            acc[q] = GaussInt.coerce(acc.get(q, 0)) + GaussInt.coerce(coeff)
        return cls(acc)

    # ------------------------------------------------------------- inspection

    @property
    def terms(self) -> dict[int, GaussInt]:
        """Copy of the term map keyed by quarter-unit exponents."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -------------------------------------------------------------- protocol

    def to_str(self, var: str = "t") -> str:
        items = [(_exp_str(var, q), c) for q, c in sorted(self._terms.items())]
        return _join_terms(_scalar_term_strings(items))

    def __str__(self):
        return self.to_str("t")


class TwoVarPoly(_Poly):
    """Laurent polynomial in ``a`` and ``z`` with integer coefficients.

    Built from, and read as, a map ``(a_exponent, z_exponent) -> int``;
    it holds ``a^i z^j`` under the packed key ``i * A_STEP + j``.
    """

    __slots__ = ()
    _SCALAR = int
    _coeff = int
    __add__ = __radd__ = _Poly.__add__
    __mul__ = __rmul__ = _Poly.__mul__

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for (a, z), c in terms.items():
                if not (isinstance(a, int) and isinstance(z, int)
                        and isinstance(c, int)):
                    raise TypeError(f"a^{a!r} z^{z!r} with coefficient {c!r}: "
                                    "exponents and coefficient must be ints")
                if not -A_STEP // 2 <= z < A_STEP // 2:
                    raise ValueError(f"z^{z} is outside the packed range "
                                     "-2^19 <= j < 2^19 of a TwoVarPoly")
                if c:
                    clean[a * A_STEP + z] = c
        object.__setattr__(self, "_terms", clean)

    # ------------------------------------------------------------- inspection

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        """The term map ``(a_exponent, z_exponent) -> int``."""
        out = {}
        for e, c in self._terms.items():
            a, z = divmod(e + A_STEP // 2, A_STEP)
            out[(a, z - A_STEP // 2)] = c
        return out

    # -------------------------------------------------------------- protocol

    def __str__(self):
        if not self._terms:
            return "0"
        by_z: dict[int, dict[int, GaussInt]] = {}
        for (a, z), c in self.terms.items():
            by_z.setdefault(z, {})[a] = GaussInt(c)
        parts = []
        for z in sorted(by_z):
            a_terms = [(_exp_str("a", 4 * a), c)
                       for a, c in sorted(by_z[z].items())]
            rendered = _scalar_term_strings(a_terms)
            zs = _exp_str("z", 4 * z)
            if not zs:
                parts.extend(rendered)
                continue
            if len(rendered) == 1:
                sign, body = rendered[0]
                parts.append((sign, zs if body == "1" else f"{body}{zs}"))
            else:
                parts.append(("+", f"({_join_terms(rendered)}){zs}"))
        return _join_terms(parts)
