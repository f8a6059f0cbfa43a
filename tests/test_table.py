"""Recomputing the bundled table."""

import pytest

from knotcalc import table
from knotcalc.errors import ResourceLimit
from knotcalc.table import entry, load_table, verify_entry


def test_verify_entry_caps_every_engine(monkeypatch):
    # each engine honors the cap: with Jones stubbed out, Conway must
    # still stop the call
    with pytest.raises(ResourceLimit):
        verify_entry(entry("6_1"), 2)
    monkeypatch.setattr(table, "jones_memoized", lambda d, cap: "")
    with pytest.raises(ResourceLimit):
        verify_entry(entry("6_1"), 2)


def test_verify_entry_is_clean_on_every_entry():
    assert {e.name: verify_entry(e) for e in load_table()} == {
        e.name: {} for e in load_table()}
