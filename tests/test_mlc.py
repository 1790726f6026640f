"""Tests for the mid-level cache model.

Fills, hits and evictions are driven through
:meth:`CacheHierarchy.cpu_access` on a small geometry, since that is the
only code that fills MLC sets and keeps their recency order."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.llc import LlcConfig
from repro.cache.mlc import MidLevelCache
from repro.rdt.cat import CacheAllocation
from repro.telemetry.counters import CounterBank
from repro.uncore.memory import MemoryController


def make(sets=4, ways=2):
    """A two-core hierarchy whose core-0 MLC has ``sets`` x ``ways``."""
    bank = CounterBank()
    cfg = HierarchyConfig(
        cores=2, llc=LlcConfig(sets=8), mlc_sets=sets, mlc_ways=ways
    )
    return CacheHierarchy(cfg, CacheAllocation(), MemoryController(bank), bank)


def occupancy(mlc):
    """The number of lines resident in ``mlc``."""
    return sum(len(bucket) for bucket in mlc._sets)


def read(hierarchy, *addrs, write=False):
    for addr in addrs:
        hierarchy.cpu_access(0.0, 0, addr, "s", write=write)


def test_insert_and_lookup():
    hierarchy = make()
    read(hierarchy, 4)
    mlc = hierarchy.mlcs[0]
    assert mlc.peek(4) is not None
    assert mlc.peek(8) is None
    read(hierarchy, 4)
    assert hierarchy.counters.stream("s").mlc_hits == 1


def test_capacity_and_occupancy():
    hierarchy = make(sets=4, ways=2)
    mlc = hierarchy.mlcs[0]
    assert mlc.sets * mlc.ways == 8
    read(hierarchy, *range(8))
    assert occupancy(mlc) == 8
    read(hierarchy, 8)  # a ninth line evicts one
    assert occupancy(mlc) == 8


def test_eviction_is_lru_within_set():
    hierarchy = make(sets=1, ways=2)
    read(hierarchy, 0, 1, 0)  # the hit makes addr 0 most-recent
    read(hierarchy, 2)
    mlc = hierarchy.mlcs[0]
    assert mlc.peek(1) is None
    assert mlc.peek(0) is not None and mlc.peek(2) is not None
    # The victim falls back into the LLC.
    assert hierarchy.llc.lookup(1, touch=False) is not None


def test_conflict_only_within_same_set():
    hierarchy = make(sets=4, ways=1)
    mlc = hierarchy.mlcs[0]
    read(hierarchy, 0, 1)  # different sets: no eviction
    assert occupancy(mlc) == 2
    read(hierarchy, 4)  # maps to set 0
    assert mlc.peek(0) is None
    assert mlc.peek(1) is not None and mlc.peek(4) is not None


def test_double_access_fills_once():
    hierarchy = make()
    read(hierarchy, 3, 3)
    mlc = hierarchy.mlcs[0]
    assert occupancy(mlc) == 1
    counters = hierarchy.counters.stream("s")
    assert (counters.mlc_misses, counters.mlc_hits) == (1, 1)


def test_invalidate_returns_line_and_removes():
    hierarchy = make()
    read(hierarchy, 5, write=True)
    mlc = hierarchy.mlcs[0]
    dropped = mlc.invalidate(5)
    assert dropped is not None and dropped.dirty
    assert mlc.peek(5) is None
    assert mlc.invalidate(5) is None


def test_peek_does_not_touch_lru():
    hierarchy = make(sets=1, ways=2)
    read(hierarchy, 0, 1)
    mlc = hierarchy.mlcs[0]
    mlc.peek(0)  # must NOT refresh addr 0
    read(hierarchy, 2)
    assert mlc.peek(0) is None
    assert mlc.peek(1) is not None


def test_resident_iterates_all():
    hierarchy = make()
    read(hierarchy, 0, 1, 2)
    lines = [line for bucket in hierarchy.mlcs[0]._sets for line in bucket.values()]
    assert sorted(line.addr for line in lines) == [0, 1, 2]


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        MidLevelCache(core_id=0, sets=0, ways=2)
