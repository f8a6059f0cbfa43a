"""End-to-end verification of the published stevedore-cable computation.

The chain ties every engine in the package together on the knot 6_1: the
Alexander polynomial by two independent routes, the fiberedness
obstruction, the two-variable Kauffman polynomial and its substitution,
the zero-framed 2-cable and its Jones polynomial, the reversed-copy
equality, the cabling identity, and the final Jones polynomial of the
genus-one double.

The published source for the Kauffman polynomial of 6_1 prints the z^2
coefficient as ``a^-2 + 4a^2 - 3a^4``; that sign is a misprint.  The
corrected value ``a^-2 - 4a^2 - 3a^4`` is forced by three independent
checks (the printed substitution value, the cabling identity with the
printed cable Jones polynomial, and the Jones specialization of F), and
the computed polynomial confirms it.  Both versions are kept below and
the discrepancy is reported, never silently dropped.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .cable import cable2, jprime_chain, king_substitution, king_verify, make_hat
from .polyring import LaurentPoly, TwoVarPoly
from .seifert import (alexander_from_seifert, is_monic, normalize_alexander,
                      seifert_matrix)
from .skein import (DEFAULT_ENGINE_CAP, SkeinMemo, alexander_from_conway,
                    conway, jones_memoized, kauffman_F)
from .table import diagram

__all__ = [
    "ALEXANDER_61", "KAUFFMAN_61_PRINTED", "KAUFFMAN_61_CORRECTED",
    "SUBSTITUTION_61", "JONES_CABLE_61", "JONES_JPRIME",
    "stevedore_chain_report",
]

_T = LaurentPoly.t_pow

# Delta(6_1) = 2t^-1 - 5 + 2t
ALEXANDER_61 = LaurentPoly.from_terms([(-1, 2), (0, -5), (1, 2)])

# F(6_1(a, z)) as printed, and with the corrected z^2 coefficient
KAUFFMAN_61_PRINTED = TwoVarPoly({
    (-2, 0): -1, (2, 0): 1, (4, 0): 1,
    (1, 1): 2, (3, 1): 2,
    (-2, 2): 1, (2, 2): 4, (4, 2): -3,
    (-1, 3): 1, (1, 3): -2, (3, 3): -3,
    (0, 4): 1, (2, 4): 2, (4, 4): 1,
    (1, 5): 1, (3, 5): 1,
})
KAUFFMAN_61_CORRECTED = KAUFFMAN_61_PRINTED + TwoVarPoly({(2, 2): -8})

# F(i t^-2, i(t - t^-1)) = t^-12 (t^18 - t^17 + 2t^15 - ... + 1)
SUBSTITUTION_61 = _T(-12) * LaurentPoly.from_terms(
    [(18, 1), (17, -1), (15, 2), (14, -3), (12, 4), (11, -4), (9, 4),
     (8, -3), (6, 3), (5, -2), (4, -1), (3, 2), (2, -1), (1, -1), (0, 1)])

# V of the zero-framed 2-cable: -t^-25/2 (t^19 - t^18 + ... + 1)
JONES_CABLE_61 = -_T(Fraction(-25, 2)) * LaurentPoly.from_terms(
    [(19, 1), (18, -1), (17, 1), (15, -1), (13, 1), (9, 1), (6, 1),
     (5, -1), (1, -1), (0, 1)])

# V of the genus-one double: -t^-10 (t^20 - 2t^19 + ... - 1)
JONES_JPRIME = -_T(-10) * LaurentPoly.from_terms(
    [(20, 1), (19, -2), (18, 2), (17, -1), (16, -1), (15, 1), (14, 1),
     (13, -2), (12, 1), (11, -1), (10, 1), (9, -1), (7, 1), (6, -2),
     (5, 1), (2, -1), (1, 2), (0, -1)])


def _unit_multiple(p: LaurentPoly, q: LaurentPoly) -> bool:
    """p == +- t^k q exactly, for some integer multiple of 1/4 in k."""
    if p.is_zero() or q.is_zero():
        return p == q
    shift = p.min_exponent() - q.min_exponent()
    shifted = q.shift(shift)
    return p == shifted or p == -shifted


def stevedore_chain_report(max_crossings: int = DEFAULT_ENGINE_CAP) -> dict:
    """Run the nine identities in order; each step records both sides.

    Everything is computed from the bundled 6_1 diagram.  The chain owns
    the Kauffman F memo, whose counts are reported in the ``memo``
    section.  The two Alexander routes are independent: the Seifert
    matrix on one side, Conway from the Fox matrix of the Wirtinger
    presentation on the other.  Jones comes from the bracket sweep, and
    neither it nor Conway keys states.
    """
    steps = []
    timings = {}
    memo = SkeinMemo()

    def step(name, passed, lhs, rhs, note=None):
        row = {"name": name, "pass": bool(passed),
               "lhs": str(lhs), "rhs": str(rhs)}
        if note:
            row["note"] = note
        steps.append(row)

    def clocked(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 6)
        return out

    d61 = diagram("6_1")
    d31 = diagram("3_1")

    alex_seifert = clocked(
        "alexander_seifert",
        lambda: alexander_from_seifert(seifert_matrix(d61)))
    alex_conway = clocked(
        "alexander_conway",
        lambda: normalize_alexander(
            alexander_from_conway(conway(d61, max_crossings))))
    step("alexander-both-paths",
         alex_seifert == ALEXANDER_61 and _unit_multiple(alex_conway,
                                                         ALEXANDER_61),
         f"seifert: {alex_seifert}; conway: {alex_conway}",
         ALEXANDER_61)

    alex_31 = alexander_from_seifert(seifert_matrix(d31))
    step("monicity",
         is_monic(alex_31) and not is_monic(alex_seifert),
         f"3_1 monic: {is_monic(alex_31)}; 6_1 monic: {is_monic(alex_seifert)}",
         "3_1 monic: True; 6_1 monic: False")

    computed_f = clocked(
        "kauffman_F", lambda: kauffman_F(d61, max_crossings, memo))
    step("kauffman-F", computed_f == KAUFFMAN_61_CORRECTED,
         computed_f, KAUFFMAN_61_CORRECTED,
         note=("printed source has +4a^2 in the z^2 coefficient; the "
               "corrected -4a^2 is forced by the substitution display, "
               "the cabling identity and the Jones specialization"))

    try:
        substituted = king_substitution(computed_f)
    except Exception as e:  # keep the chain running for fault injection
        substituted = LaurentPoly.zero()
        step("substitution", False, f"error: {e}", SUBSTITUTION_61)
    else:
        step("substitution", substituted == SUBSTITUTION_61,
             substituted, SUBSTITUTION_61)

    ktilde = clocked("cable", lambda: cable2(d61, 0))
    expected_crossings = 4 * d61.n_crossings + 2 * abs(d61.writhe())
    expected_writhe = 4 * d61.writhe() + 2 * (0 - d61.writhe())
    cable_ok = (ktilde.diagram.n_components == 2
                and ktilde.linking() == 0
                and ktilde.diagram.n_crossings == expected_crossings
                and ktilde.diagram.writhe() == expected_writhe)
    step("cable-construction", cable_ok,
         (f"components: {ktilde.diagram.n_components}; lk: "
          f"{ktilde.linking()}; crossings: {ktilde.diagram.n_crossings}; "
          f"writhe: {ktilde.diagram.writhe()}"),
         (f"components: 2; lk: 0; crossings: {expected_crossings}; "
          f"writhe: {expected_writhe}"))

    computed_v_tilde = clocked(
        "jones_cable", lambda: jones_memoized(ktilde.diagram, max_crossings))
    step("jones-cable", computed_v_tilde == JONES_CABLE_61,
         computed_v_tilde, JONES_CABLE_61)

    khat = make_hat(ktilde)
    v_hat = clocked(
        "jones_hat",
        lambda: jones_memoized(khat.diagram, max_crossings))
    step("hat-equality",
         v_hat == _T(-3 * 0) * computed_v_tilde,
         v_hat, computed_v_tilde)

    step("king-identity", king_verify(computed_f, computed_v_tilde, 0),
         (_T(0) * (LaurentPoly.one() + _T(1) + _T(-1))) * substituted,
         -(_T(Fraction(1, 2)) + _T(Fraction(-1, 2))) * computed_v_tilde - _T(0))

    v_jprime = jprime_chain(v_hat)
    step("jprime", v_jprime == JONES_JPRIME, v_jprime, JONES_JPRIME)

    return {
        "payload": {
            "scenario": "stevedore-cable-chain",
            "steps": steps,
            "all_pass": all(s["pass"] for s in steps),
        },
        "timing": timings,
        "memo": {"kauffman": memo.stats()},
    }
