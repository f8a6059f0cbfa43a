"""Recomputing the bundled table."""

import pytest

from knotcalc.errors import ResourceLimit
from knotcalc.skein import shared_memos
from knotcalc.table import entry, verify_entry


def test_verify_entry_caps_every_engine():
    before = shared_memos()["conway"].stats()
    with pytest.raises(ResourceLimit):
        verify_entry(entry("6_1"), 2)
    assert shared_memos()["conway"].stats() == before
