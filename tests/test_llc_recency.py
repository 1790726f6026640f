"""LLC recency is each set's key order, driven through the hierarchy.

A fill appends its address to its set's index and a hit that leaves the
line resident (a CPU read of a DMA-written line, a DDIO write-update)
moves it to the end, so the first key is the least recent line: the one
LRU evicts, and the one RRIP evicts among lines tied at the distant
re-reference value.
"""

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.llc import LlcConfig
from repro.rdt.cat import CacheAllocation
from repro.telemetry.counters import CounterBank
from repro.uncore.memory import MemoryController


def one_set_hierarchy(replacement="lru"):
    """One core, one LLC set (11 ways: DCA 0-1, inclusive 9-10) and a
    one-set, two-way MLC."""
    bank = CounterBank()
    cfg = HierarchyConfig(
        cores=1,
        llc=LlcConfig(sets=1, replacement=replacement),
        mlc_sets=1,
        mlc_ways=2,
    )
    return CacheHierarchy(cfg, CacheAllocation(), MemoryController(bank), bank)


def test_llc_key_order_is_last_touch_order():
    hierarchy = one_set_hierarchy()
    index = hierarchy.llc._sets[0].index
    hierarchy.dma_write(0.0, 10, "nic", allocating=True)  # fill
    hierarchy.dma_write(1.0, 11, "nic", allocating=True)  # fill
    assert list(index) == [10, 11]
    # A CPU read of a DMA-written line keeps (and migrates) the LLC copy.
    hierarchy.cpu_access(2.0, 0, 10, "nic", io_read=True)
    assert list(index) == [11, 10]
    hierarchy.dma_write(3.0, 11, "nic", allocating=True)  # write-update
    hierarchy.dma_write(4.0, 10, "nic", allocating=True)  # write-update
    assert list(index) == [11, 10]
    # Three plain reads: the MLC evicts 20, a victim-cache fill.
    for now, addr in ((5.0, 20), (6.0, 21), (7.0, 22)):
        hierarchy.cpu_access(now, 0, addr, "app")
    assert list(index) == [11, 10, 20]
    # Reading 11 touches it; its MLC fill evicts 21 into the LLC.
    hierarchy.cpu_access(8.0, 0, 11, "nic", io_read=True)
    assert list(index) == [10, 20, 11, 21]
    # 20 and 21 refilled the DCA ways the migrations emptied; the next
    # DMA fill evicts the less recent of the two.
    assert [index[addr].way for addr in (20, 21)] == [0, 1]
    hierarchy.dma_write(9.0, 30, "nic", allocating=True)
    assert list(index) == [10, 11, 21, 30]


def test_srrip_evicts_least_recent_line_among_distant_ties():
    hierarchy = one_set_hierarchy("srrip")
    wayset = hierarchy.llc._sets[0]
    hierarchy.dma_write(0.0, 10, "nic", allocating=True)  # way 0
    hierarchy.dma_write(1.0, 11, "nic", allocating=True)  # way 1
    assert [wayset.index[a].way for a in (10, 11)] == [0, 1]
    # Write-updates re-reference both (rrpv 0), 11 before 10.
    hierarchy.dma_write(2.0, 11, "nic", allocating=True)
    hierarchy.dma_write(3.0, 10, "nic", allocating=True)
    assert [wayset.index[a].meta["rrpv"] for a in (10, 11)] == [0, 0]
    # The next DMA fill ages both to the distant value; the tie goes to
    # the least recent line, 11 in way 1 (not the lowest way, not 10).
    hierarchy.dma_write(4.0, 12, "nic", allocating=True)
    assert 11 not in wayset.index
    assert wayset.index[12].way == 1
    assert wayset.index[10].meta["rrpv"] == 3
