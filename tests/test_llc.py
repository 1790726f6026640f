"""Tests for the LLC data array: masked victim selection, migration."""

import pytest

from repro.cache.llc import LastLevelCache, LlcConfig


def make(sets=4):
    return LastLevelCache(LlcConfig(sets=sets))


def test_config_validates_special_ways():
    with pytest.raises(ValueError):
        LlcConfig(ways=11, dca_ways=(0, 11))
    with pytest.raises(ValueError):
        LlcConfig(dca_ways=(0, 1), inclusive_ways=(1, 2))


def test_standard_ways_excludes_special():
    cfg = LlcConfig()
    assert cfg.standard_ways == tuple(range(2, 9))


def test_allocate_respects_allowed_ways():
    llc = make()
    for i in range(8):
        line, _ = llc.allocate(i * 4, "s", allowed_ways=(5, 6))
        assert line.way in (5, 6)


def test_allocate_prefers_empty_way():
    llc = make()
    line1, victim1 = llc.allocate(0, "s", allowed_ways=(3, 4))
    line2, victim2 = llc.allocate(4, "s", allowed_ways=(3, 4))  # same set
    assert victim1 is None and victim2 is None
    assert {line1.way, line2.way} == {3, 4}


def test_allocate_evicts_lru_within_mask():
    llc = make(sets=1)
    llc.allocate(0, "s", allowed_ways=(3, 4))
    llc.allocate(1, "s", allowed_ways=(3, 4))
    llc.lookup(0)  # refresh addr 0
    _, victim = llc.allocate(2, "s", allowed_ways=(3, 4))
    assert victim is not None and victim.addr == 1


def test_allocate_never_evicts_outside_mask():
    llc = make(sets=1)
    protected, _ = llc.allocate(0, "other", allowed_ways=(0,))
    for addr in range(1, 10):
        _, victim = llc.allocate(addr, "s", allowed_ways=(5, 6))
        assert victim is None or victim.way in (5, 6)
    assert llc.lookup(0, touch=False) is protected


def test_double_allocate_same_addr_raises():
    llc = make()
    llc.allocate(7, "s", allowed_ways=(2,))
    with pytest.raises(ValueError):
        llc.allocate(7, "s", allowed_ways=(3,))


def test_remove():
    llc = make()
    line, _ = llc.allocate(9, "s", allowed_ways=(2,))
    llc.remove(line)
    assert llc.lookup(9) is None


def test_migrate_to_inclusive_moves_line():
    llc = make()
    line, _ = llc.allocate(5, "s", allowed_ways=(0,))
    victim = llc.migrate_to_inclusive(line)
    assert victim is None
    assert line.way in LlcConfig().inclusive_ways
    assert llc.lookup(5, touch=False) is line


def test_migrate_already_inclusive_is_noop():
    llc = make()
    line, _ = llc.allocate(5, "s", allowed_ways=(9,))
    assert llc.migrate_to_inclusive(line) is None
    assert line.way == 9


def test_migrate_evicts_inclusive_occupant():
    llc = make(sets=1)
    llc.allocate(1, "victim1", allowed_ways=(9,))
    llc.allocate(2, "victim2", allowed_ways=(10,))
    line, _ = llc.allocate(3, "io", allowed_ways=(0,))
    victim = llc.migrate_to_inclusive(line)
    assert victim is not None and victim.stream in ("victim1", "victim2")
    assert line.way in (9, 10)


def test_occupancy_reports():
    llc = make()
    llc.allocate(0, "a", allowed_ways=(2,))
    llc.allocate(1, "a", allowed_ways=(2,))
    llc.allocate(2, "b", allowed_ways=(3,))
    assert llc.occupancy_by_stream() == {"a": 2, "b": 1}
    by_way = llc.occupancy_by_way()
    assert by_way[2] == 2 and by_way[3] == 1


def test_touch_refreshes_recency():
    llc = make(sets=1)
    line0, _ = llc.allocate(0, "s", allowed_ways=(3, 4))
    llc.allocate(1, "s", allowed_ways=(3, 4))
    llc._sets[0].touch(line0)
    _, victim = llc.allocate(2, "s", allowed_ways=(3, 4))
    assert victim.addr == 1
