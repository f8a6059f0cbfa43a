"""Recomputing the bundled table."""

import pytest

from knotcalc.errors import ResourceLimit
from knotcalc.skein import SkeinMemo
from knotcalc.table import entry, verify_entry


def test_verify_entry_caps_every_engine():
    memo = SkeinMemo()
    with pytest.raises(ResourceLimit):
        verify_entry(entry("6_1"), 2, conway_memo=memo)
    assert memo.stats() == {"entries": 0, "hits": 0, "misses": 0,
                            "kinks": 0, "bigons": 0}


def test_verify_entry_runs_on_the_callers_memos():
    conway = SkeinMemo()
    assert verify_entry(entry("6_1"), conway_memo=conway) == {}
    assert conway.table
    misses = conway.misses
    assert verify_entry(entry("6_1"), conway_memo=conway) == {}
    assert conway.misses == misses  # the rerun is pure hits
