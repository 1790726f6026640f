"""Tests for the extended directory (snoop filter).

Entries are made by :meth:`CacheHierarchy.cpu_access` on a small
geometry, since MLC fills are the only code that tracks a line: a plain
miss makes a non-inclusive entry, and the first CPU read of a DMA-written
line (which migrates into the inclusive ways) makes an inclusive one."""

import pytest

from repro.cache.directory import SnoopFilter
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.line import holder_cores
from repro.cache.llc import LlcConfig
from repro.rdt.cat import CacheAllocation
from repro.telemetry.counters import CounterBank
from repro.uncore.memory import MemoryController


def make(sets=2, ways=4):
    """A three-core hierarchy whose directory has ``sets`` x ``ways``
    entries, with MLCs large enough never to evict in these tests."""
    bank = CounterBank()
    cfg = HierarchyConfig(
        cores=3,
        llc=LlcConfig(sets=sets),
        mlc_sets=1,
        mlc_ways=8,
        ext_dir_ways=ways,
    )
    return CacheHierarchy(cfg, CacheAllocation(), MemoryController(bank), bank)


def read(hierarchy, core, *addrs):
    for addr in addrs:
        hierarchy.cpu_access(0.0, core, addr, "s")


def read_dma_line(hierarchy, core, addr):
    """DMA-write ``addr`` into the LLC, then read it: the line migrates
    into the inclusive ways and its directory entry is pinned."""
    hierarchy.dma_write(0.0, addr, "nic", True)
    read(hierarchy, core, addr)


def test_track_and_entry():
    hierarchy = make()
    read(hierarchy, 1, 0)
    entry = hierarchy.sf.entry(0)
    assert entry is not None and holder_cores(entry.holders) == [1]
    assert not entry.inclusive


def test_track_second_holder_merges():
    hierarchy = make()
    read_dma_line(hierarchy, 1, 0)
    read(hierarchy, 2, 0)
    entry = hierarchy.sf.entry(0)
    assert holder_cores(entry.holders) == [1, 2]
    assert entry.inclusive


def test_overflow_evicts_lru_non_inclusive():
    hierarchy = make(sets=1, ways=2)
    sf = hierarchy.sf
    read(hierarchy, 0, 0, 1)
    sf.entry(0)  # does not touch LRU; victim should still be addr 0
    read(hierarchy, 0, 2)
    assert sf.entry(0) is None
    assert sf.back_invalidations == 1
    # The evicted entry's holder loses its MLC copy.
    assert hierarchy.mlcs[0].peek(0) is None
    assert hierarchy.counters.stream("s").back_invalidations == 1


def test_gaining_a_holder_makes_an_entry_most_recent():
    hierarchy = make(sets=1, ways=2)
    read(hierarchy, 0, 0, 1)
    read(hierarchy, 1, 0)  # a peer snoop: addr 0 gains core 1
    read(hierarchy, 0, 2)
    assert hierarchy.sf.entry(1) is None
    assert holder_cores(hierarchy.sf.entry(0).holders) == [0, 1]
    assert hierarchy.mlcs[0].peek(1) is None


def test_inclusive_entries_protected_from_eviction():
    hierarchy = make(sets=1, ways=2)
    read_dma_line(hierarchy, 0, 0)
    read(hierarchy, 0, 1, 2)
    sf = hierarchy.sf
    assert sf.entry(1) is None  # the non-inclusive one
    assert sf.entry(0).inclusive


def test_all_inclusive_overflow_is_structural_error():
    hierarchy = make(sets=1, ways=2)
    read_dma_line(hierarchy, 0, 0)
    read_dma_line(hierarchy, 0, 1)
    with pytest.raises(RuntimeError):
        read(hierarchy, 0, 2)


def test_drop_holder_removes_entry_when_empty():
    hierarchy = make(sets=1, ways=4)
    read(hierarchy, 0, 0)
    read(hierarchy, 1, 0)
    sf = hierarchy.sf
    sf.drop_holder(0, 0)
    assert holder_cores(sf.entry(0).holders) == [1]
    sf.drop_holder(0, 1)
    assert sf.entry(0) is None


def test_set_inclusive_flag():
    hierarchy = make(sets=1, ways=4)
    read_dma_line(hierarchy, 0, 0)
    sf = hierarchy.sf
    assert sf.entry(0).inclusive
    sf.set_inclusive(0, False)
    assert not sf.entry(0).inclusive
    sf.set_inclusive(99, True)  # unknown addr: silently ignored


def test_remove():
    hierarchy = make(sets=1, ways=4)
    read(hierarchy, 0, 0)
    sf = hierarchy.sf
    removed = sf.remove(0)
    assert removed is not None and sf.entry(0) is None


def test_geometry_guard():
    with pytest.raises(ValueError):
        SnoopFilter(sets=4, ways=1)  # fewer ways than shared (inclusive) ways


def test_occupancy():
    hierarchy = make(sets=2, ways=4)
    read(hierarchy, 0, 0, 2)  # same set (2 % 2 == 0)
    sf = hierarchy.sf
    assert sf.occupancy(0) == 2
    assert sf.occupancy(1) == 0
