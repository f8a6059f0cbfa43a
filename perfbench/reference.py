"""Independent exact references for the benchmark's correctness gate.

Polynomials here are plain dicts from exponents of t, counted in quarter
units as in knotcalc, to Gaussian-integer coefficients stored as
``(re, im)`` pairs.  Nothing here calls knotcalc's polynomial arithmetic:
a defect there cannot vouch for itself, and a traced run counts only the
program's own work.
"""

from __future__ import annotations

Poly = dict  # quarter exponent -> (re, im)


def from_laurent(p) -> Poly:
    """Term map of a knotcalc ``LaurentPoly``."""
    return {q: (c.re, c.im) for q, c in p.terms.items()}


def to_real_terms(p: Poly) -> dict[int, int] | None:
    """{quarter exponent: integer} or None when a coefficient is not real."""
    if any(im for _, im in p.values()):
        return None
    return {q: re for q, (re, _) in p.items()}


def _accumulate(acc: Poly, q: int, re: int, im: int) -> None:
    old_re, old_im = acc.get(q, (0, 0))
    re, im = old_re + re, old_im + im
    if re or im:
        acc[q] = (re, im)
    else:
        acc.pop(q, None)


def add(*polys: Poly) -> Poly:
    acc: Poly = {}
    for p in polys:
        for q, (re, im) in p.items():
            _accumulate(acc, q, re, im)
    return acc


def mul(p: Poly, r: Poly) -> Poly:
    acc: Poly = {}
    for q1, (a, b) in p.items():
        for q2, (c, d) in r.items():
            _accumulate(acc, q1 + q2, a * c - b * d, a * d + b * c)
    return acc


def scale(p: Poly, re: int, im: int = 0) -> Poly:
    return mul(p, {0: (re, im)})


def power(p: Poly, k: int) -> Poly:
    out: Poly = {0: (1, 0)}
    for _ in range(k):
        out = mul(out, p)
    return out


def monomial(quarters: int, re: int = 1, im: int = 0) -> Poly:
    return {quarters: (re, im)}


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def kauffman_to_jones(f_terms: dict[tuple[int, int], int]) -> Poly | None:
    """``F(-t^-3/4, t^1/4 + t^-1/4)``: the Jones polynomial of the knot
    whose Kauffman polynomial is F.  None when F has negative z-powers,
    which a knot's F cannot have."""
    z_image = {1: (1, 0), -1: (1, 0)}
    total: Poly = {}
    for (a, z), c in f_terms.items():
        if z < 0:
            return None
        sign = -1 if a % 2 else 1
        total = add(total, mul(monomial(-3 * a, sign * c), power(z_image, z)))
    return total


def king_identity_holds(f_terms: dict[tuple[int, int], int], v_cable: Poly,
                        framing: int) -> bool:
    """The cabling identity of the paper, evaluated here from scratch:
    ``t^f (1 + t + t^-1) F(i t^-2, i(t - t^-1))
    = -(t^1/2 + t^-1/2) V(cable) - t^3f``."""
    t_minus_inv = {4: (1, 0), -4: (-1, 0)}
    substituted: Poly = {}
    for (a, z), c in f_terms.items():
        if z < 0:
            return False
        unit = _I_POWERS[(a + z) % 4]
        term = mul(monomial(-8 * a, unit[0] * c, unit[1] * c),
                   power(t_minus_inv, z))
        substituted = add(substituted, term)
    lhs = mul(mul(monomial(4 * framing), {0: (1, 0), 4: (1, 0), -4: (1, 0)}),
              substituted)
    rhs = add(scale(mul({2: (1, 0), -2: (1, 0)}, v_cable), -1),
              monomial(12 * framing, -1))
    return lhs == rhs


def shifted(p: Poly, quarters: int) -> Poly:
    """``t^(quarters/4) * p``."""
    return {q + quarters: c for q, c in p.items()}


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials (coefficient lists, lowest degree
    first) when den divides num exactly; raises otherwise."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(out) - 1, -1, -1):
        coeff, rem = divmod(num[k + len(den) - 1], lead)
        if rem:
            raise ArithmeticError("inexact division")
        out[k] = coeff
        for j, d in enumerate(den):
            num[k + j] -= coeff * d
    if any(num):
        raise ArithmeticError("inexact division")
    return out


def _binomial_list(exponent: int, sign: int) -> list[int]:
    """Coefficients of ``t^exponent + sign``."""
    out = [0] * (exponent + 1)
    out[0] += sign
    out[exponent] += 1
    return out


def _times(p: list[int], r: list[int]) -> list[int]:
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def torus_jones(p: int, q: int) -> Poly:
    """Jones polynomial of the positive torus knot T(p, q):
    ``t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)``."""
    num = [0] * (p + q + 1)
    for k, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        num[k] += c
    quotient = _exact_quotient(num, [1, 0, -1])
    base = (p - 1) * (q - 1) // 2
    return {4 * (base + k): (c, 0) for k, c in enumerate(quotient) if c}


def torus_alexander(p: int, q: int) -> Poly:
    """Symmetric Alexander polynomial of T(p, q):
    ``(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))``, centred at t^0."""
    num = _times(_binomial_list(p * q, -1), _binomial_list(1, -1))
    den = _times(_binomial_list(p, -1), _binomial_list(q, -1))
    quotient = _exact_quotient(num, den)
    centre = (len(quotient) - 1) // 2
    return {4 * (k - centre): (c, 0) for k, c in enumerate(quotient) if c}


def torus_signature(p: int, q: int) -> int:
    """Signature of the positive torus knot T(p, q) by the lattice-point
    count of Brieskorn and Hirzebruch, in knotcalc's sign convention
    (positive knots have positive signature)."""
    inside = sum(1 for i in range(1, p) for j in range(1, q)
                 if p * q < 2 * (i * q + j * p) < 3 * p * q)
    return 2 * inside - (p - 1) * (q - 1)


def value_at_minus_one(p: Poly) -> int | None:
    """Integer value at t = -1; None unless every exponent is an integer
    and every coefficient real."""
    total = 0
    for q, (re, im) in p.items():
        if q % 4 or im:
            return None
        total += re if (q // 4) % 2 == 0 else -re
    return total


def signature_consistent(sig: int, delta_at_minus_one: int, dim: int) -> bool:
    """Murasugi's parity rule ``(-1)^(sigma/2) = sign Delta(-1)`` for the
    Conway-normalized Alexander polynomial, and ``|sigma| <= dim S``."""
    if sig % 2 or delta_at_minus_one == 0 or abs(sig) > dim:
        return False
    return (delta_at_minus_one > 0) == ((sig // 2) % 2 == 0)

