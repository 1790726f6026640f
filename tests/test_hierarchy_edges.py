"""Edge-case behaviour of the hierarchy that the main test files skip."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.line import holder_cores
from repro.cache.llc import LlcConfig
from repro.platform import SKYLAKE_SP
from repro.rdt.mba import MemoryBandwidthAllocation


def test_dma_write_update_of_consumed_inclusive_line(hierarchy, bank):
    """Ring-slot reuse: the slot was consumed (migrated + MLC-resident);
    a fresh DMA write must reclaim it in place and invalidate the MLC."""
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 100, "nic", io_read=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert line.way in SKYLAKE_SP.inclusive_ways
    assert holder_cores(hierarchy.sf.holders(100)) == [0]
    hierarchy.dma_write(1.0, 100, "nic", allocating=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert line.way in SKYLAKE_SP.inclusive_ways  # write-update in place
    assert not line.consumed and line.dirty
    assert hierarchy.sf.holders(100) == 0
    assert hierarchy.mlcs[0].peek(100) is None


def test_second_cpu_read_of_consumed_line_does_not_remigrate(hierarchy, bank):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 100, "nic", io_read=True)
    migrations = bank.stream("nic").migrations
    # Another core reads the same (now shared) line.
    hierarchy.cpu_access(1.0, 1, 100, "nic", io_read=True)
    assert bank.stream("nic").migrations == migrations
    assert hierarchy.llc.lookup(100, touch=False) is not None
    assert holder_cores(hierarchy.sf.holders(100)) == [0, 1]


def test_rfo_on_io_line_takes_it_out_of_llc(hierarchy):
    hierarchy.dma_write(0.0, 100, "app", allocating=True)
    hierarchy.cpu_access(1.0, 0, 100, "app", write=True)
    assert hierarchy.llc.lookup(100, touch=False) is None
    mlc_line = hierarchy.mlcs[0].peek(100)
    assert mlc_line is not None and mlc_line.dirty and mlc_line.io


def test_dma_read_touch_keeps_line_resident(hierarchy):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    for _ in range(4):
        hierarchy.dma_read(1.0, 100, "nic")
    assert hierarchy.llc.lookup(100, touch=False) is not None


def test_io_read_of_line_in_own_mlc_is_not_a_dca_miss(hierarchy, bank):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 100, "nic", io_read=True)
    hierarchy.cpu_access(1.0, 0, 100, "nic", io_read=True)  # MLC hit
    counters = bank.stream("nic")
    assert counters.io_reads == 2
    assert counters.io_read_misses == 0


def test_non_allocating_write_back_invalidates_mlc(hierarchy):
    hierarchy.cpu_access(0.0, 0, 100, "app")
    assert hierarchy.mlcs[0].peek(100) is not None
    hierarchy.dma_write(1.0, 100, "ssd", allocating=False)
    assert hierarchy.mlcs[0].peek(100) is None


def test_stream_attribution_follows_last_dma_writer(hierarchy):
    hierarchy.dma_write(0.0, 100, "nic-a", allocating=True)
    hierarchy.dma_write(1.0, 100, "nic-b", allocating=True)
    assert hierarchy.llc.lookup(100, touch=False).stream == "nic-b"


def test_migration_counts_against_io_stream_not_reader(hierarchy, bank):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(1.0, 0, 100, "reader", io_read=True)
    assert bank.stream("nic").migrations == 1
    assert bank.stream("reader").migrations == 0


@pytest.mark.parametrize("path", ["migration", "dispose"])
def test_dirty_inclusive_victim_marks_lowest_holder(bank, cat, memory, path):
    """An inclusive LLC line held by cores 3 and 9 loses its dirty LLC copy:
    the data lands in the MLC copy of the lowest holder, core 3."""
    cfg = HierarchyConfig(cores=10, llc=LlcConfig(sets=1), mlc_sets=4, mlc_ways=2)
    hierarchy = CacheHierarchy(cfg, cat, memory, bank)
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(1.0, 9, 100, "nic", io_read=True)
    hierarchy.cpu_access(2.0, 3, 100, "nic", io_read=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert holder_cores(hierarchy.sf.holders(100)) == [3, 9]
    line.dirty = True  # as if it had absorbed a dirty MLC victim
    if path == "migration":
        # Two more consumed I/O lines migrate into the two inclusive ways;
        # the second displaces the older resident, line 100.
        for now, addr in ((3.0, 101), (4.0, 102)):
            hierarchy.dma_write(now, addr, "nic", allocating=True)
        hierarchy.cpu_access(5.0, 0, 101, "nic", io_read=True)
        hierarchy.cpu_access(6.0, 0, 102, "nic", io_read=True)
        assert hierarchy.llc.lookup(100, touch=False) is None
    else:
        hierarchy._dispose_victim(3.0, line)
    assert bank.stream("nic").inclusive_downgrades == 1
    assert hierarchy.mlcs[3].peek(100).dirty
    assert not hierarchy.mlcs[9].peek(100).dirty


def test_full_miss_latency_scales_only_for_a_throttled_clos(bank, cat, memory):
    mba = MemoryBandwidthAllocation()
    hierarchy = CacheHierarchy(HierarchyConfig(cores=4), cat, memory, bank, mba)
    # Nothing throttled: a full miss costs exactly the read's latency.
    assert hierarchy.cpu_access(0.0, 0, 100, "a") == memory.access_latency()
    mba.set_delay(1, 50)
    cat.associate(1, 1)
    # Core 0's CLOS 0 stays unthrottled while CLOS 1 is throttled.
    assert hierarchy.cpu_access(1.0, 0, 200, "a") == memory.access_latency()
    throttled = hierarchy.cpu_access(2.0, 1, 300, "b")
    assert throttled == memory.access_latency() * mba.latency_factor(1)
    assert mba.latency_factor(1) == pytest.approx(2.0)
    mba.set_delay(1, 0)
    assert not mba.factors
    assert hierarchy.cpu_access(3.0, 1, 400, "b") == memory.access_latency()
