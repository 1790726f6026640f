"""Tests for the extended directory (snoop filter)."""

import pytest

from repro.cache.directory import SnoopFilter
from repro.cache.line import holder_cores


def test_track_and_entry():
    sf = SnoopFilter(sets=2, ways=4)
    assert sf.track(0, core=1, inclusive=False) is None
    entry = sf.entry(0)
    assert entry is not None and holder_cores(entry.holders) == [1]


def test_track_second_holder_merges():
    sf = SnoopFilter(sets=2, ways=4)
    sf.track(0, core=1, inclusive=False)
    sf.track(0, core=2, inclusive=True)
    entry = sf.entry(0)
    assert holder_cores(entry.holders) == [1, 2]
    assert entry.inclusive


def test_overflow_evicts_lru_non_inclusive():
    sf = SnoopFilter(sets=1, ways=2)
    sf.track(0, core=0, inclusive=False)
    sf.track(1, core=0, inclusive=False)
    sf.entry(0)  # does not touch LRU; victim should still be addr 0
    victim = sf.track(2, core=0, inclusive=False)
    assert victim is not None and victim.addr == 0
    assert sf.back_invalidations == 1


def test_gaining_a_holder_makes_an_entry_most_recent():
    sf = SnoopFilter(sets=1, ways=2)
    sf.track(0, core=0, inclusive=False)
    sf.track(1, core=0, inclusive=False)
    sf.track(0, core=1, inclusive=False)
    victim = sf.track(2, core=0, inclusive=False)
    assert victim is not None and victim.addr == 1


def test_inclusive_entries_protected_from_eviction():
    sf = SnoopFilter(sets=1, ways=2)
    sf.track(0, core=0, inclusive=True)
    sf.track(1, core=0, inclusive=False)
    victim = sf.track(2, core=0, inclusive=False)
    assert victim.addr == 1  # the non-inclusive one


def test_all_inclusive_overflow_is_structural_error():
    sf = SnoopFilter(sets=1, ways=2)
    sf.track(0, core=0, inclusive=True)
    sf.track(1, core=0, inclusive=True)
    with pytest.raises(RuntimeError):
        sf.track(2, core=0, inclusive=False)


def test_drop_holder_removes_entry_when_empty():
    sf = SnoopFilter(sets=1, ways=4)
    sf.track(0, core=0, inclusive=False)
    sf.track(0, core=1, inclusive=False)
    sf.drop_holder(0, 0)
    assert holder_cores(sf.entry(0).holders) == [1]
    sf.drop_holder(0, 1)
    assert sf.entry(0) is None


def test_set_inclusive_flag():
    sf = SnoopFilter(sets=1, ways=4)
    sf.track(0, core=0, inclusive=True)
    sf.set_inclusive(0, False)
    assert not sf.entry(0).inclusive
    sf.set_inclusive(99, True)  # unknown addr: silently ignored


def test_remove():
    sf = SnoopFilter(sets=1, ways=4)
    sf.track(0, core=0, inclusive=False)
    removed = sf.remove(0)
    assert removed is not None and sf.entry(0) is None


def test_geometry_guard():
    with pytest.raises(ValueError):
        SnoopFilter(sets=4, ways=1)  # fewer ways than shared (inclusive) ways


def test_occupancy():
    sf = SnoopFilter(sets=2, ways=4)
    sf.track(0, core=0, inclusive=False)
    sf.track(2, core=0, inclusive=False)  # same set (2 % 2 == 0)
    assert sf.occupancy(0) == 2
    assert sf.occupancy(1) == 0
