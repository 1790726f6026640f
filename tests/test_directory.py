"""Tests for the extended directory (snoop filter).

Entries are made by :meth:`CacheHierarchy.cpu_access` on a small
geometry, since MLC fills are the only code that tracks a line: a plain
miss makes an entry, and the first CPU read of a DMA-written line (which
migrates into the inclusive ways) makes one that is pinned, because its
line is LLC-resident."""

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


def pinned(hierarchy, addr):
    """An entry is pinned exactly when its line is LLC-resident."""
    return hierarchy.llc.lookup(addr, touch=False) is not None


def read_dma_line(hierarchy, core, addr):
    """DMA-write ``addr`` into the LLC, then read it: the line migrates
    into the inclusive ways and its directory entry is pinned."""
    hierarchy.dma_write(0.0, addr, "nic", True)
    read(hierarchy, core, addr)


def test_track_and_entry():
    hierarchy = make()
    read(hierarchy, 1, 0)
    assert holder_cores(hierarchy.sf.holders(0)) == [1]
    assert not pinned(hierarchy, 0)


def test_track_second_holder_merges():
    hierarchy = make()
    read_dma_line(hierarchy, 1, 0)
    read(hierarchy, 2, 0)
    assert holder_cores(hierarchy.sf.holders(0)) == [1, 2]
    assert pinned(hierarchy, 0)


def test_overflow_evicts_lru_non_inclusive():
    hierarchy = make(sets=1, ways=2)
    sf = hierarchy.sf
    read(hierarchy, 0, 0, 1)
    sf.holders(0)  # does not touch LRU; victim should still be addr 0
    read(hierarchy, 0, 2)
    assert sf.holders(0) == 0
    assert sf.back_invalidations == 1
    # The evicted entry's holder loses its MLC copy.
    assert hierarchy.mlcs[0].peek(0) is None
    assert hierarchy.counters.stream("s").back_invalidations == 1


def test_gaining_a_holder_makes_an_entry_most_recent():
    hierarchy = make(sets=1, ways=2)
    read(hierarchy, 0, 0, 1)
    read(hierarchy, 1, 0)  # a peer snoop: addr 0 gains core 1
    read(hierarchy, 0, 2)
    assert hierarchy.sf.holders(1) == 0
    assert holder_cores(hierarchy.sf.holders(0)) == [0, 1]
    assert hierarchy.mlcs[0].peek(1) is None


def test_inclusive_entries_protected_from_eviction():
    hierarchy = make(sets=1, ways=2)
    read_dma_line(hierarchy, 0, 0)
    read(hierarchy, 0, 1, 2)
    sf = hierarchy.sf
    assert sf.holders(1) == 0  # the non-pinned one
    assert sf.holders(0) and pinned(hierarchy, 0)


def test_all_inclusive_overflow_is_structural_error():
    hierarchy = make(sets=1, ways=2)
    read_dma_line(hierarchy, 0, 0)
    read_dma_line(hierarchy, 0, 1)
    with pytest.raises(RuntimeError):
        read(hierarchy, 0, 2)


def test_drop_holder_removes_entry_when_empty():
    """Each MLC eviction of a shared line drops one holder; the address
    leaves the directory with its last holder."""
    hierarchy = make(sets=1, ways=12)
    read(hierarchy, 0, 0)
    read(hierarchy, 1, 0)
    sf = hierarchy.sf
    read(hierarchy, 0, *range(1, 9))  # core 0's 8-way MLC evicts addr 0
    assert hierarchy.mlcs[0].peek(0) is None
    assert holder_cores(sf.holders(0)) == [1]
    read(hierarchy, 1, *range(1, 9))
    assert hierarchy.mlcs[1].peek(0) is None
    assert 0 not in sf._sets[0]


def test_remove():
    """A DMA write takes ownership of a tracked line: every MLC copy is
    invalidated and the address leaves the directory."""
    hierarchy = make(sets=1, ways=4)
    read(hierarchy, 0, 0)
    read(hierarchy, 1, 0)
    hierarchy.dma_write(1.0, 0, "nic", False)
    sf = hierarchy.sf
    assert 0 not in sf._sets[0] and sf.holders(0) == 0
    assert hierarchy.mlcs[0].peek(0) is None
    assert hierarchy.mlcs[1].peek(0) is None


def test_geometry_guard():
    with pytest.raises(ValueError):
        SnoopFilter(sets=4, ways=1)  # fewer ways than shared (inclusive) ways


def test_occupancy():
    hierarchy = make(sets=2, ways=4)
    read(hierarchy, 0, 0, 2)  # same set (2 % 2 == 0)
    sf = hierarchy.sf
    assert list(sf._sets[0]) == [0, 2]
    assert not sf._sets[1]
