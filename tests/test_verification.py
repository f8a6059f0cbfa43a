"""The paper's stevedore-cable chain, end to end."""

import pytest

from knotcalc.verification import KAUFFMAN_61_PRINTED, stevedore_chain_report


@pytest.fixture(scope="module")
def report():
    return stevedore_chain_report()


def test_chain_passes(report):
    steps = report["payload"]["steps"]
    assert len(steps) == 9
    assert report["payload"]["all_pass"]


def test_printed_kauffman_polynomial_fails_exactly_its_steps():
    # the printed +4a^2 z^2 coefficient breaks F itself, its substitution
    # and the cabling identity, and nothing computed independently of F
    bad = stevedore_chain_report(f_poly=KAUFFMAN_61_PRINTED)
    failed = [s["name"] for s in bad["payload"]["steps"] if not s["pass"]]
    assert failed == ["kauffman-F", "substitution", "king-identity"]
    assert not bad["payload"]["all_pass"]
