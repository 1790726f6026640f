"""Tests for the IDIO/Sweeper-style self-invalidation baseline (§8)."""

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.platform import SKYLAKE_SP
from repro.rdt.cat import CacheAllocation
from repro.telemetry.counters import CounterBank
from repro.uncore.memory import MemoryController


def build(self_invalidate=True):
    bank = CounterBank()
    cat = CacheAllocation()
    memory = MemoryController(bank)
    cfg = HierarchyConfig(cores=2, self_invalidate_consumed=self_invalidate)
    return CacheHierarchy(cfg, cat, memory, bank), bank, cat


def test_consume_invalidates_llc_copy_instead_of_migrating():
    hierarchy, bank, _ = build()
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(1.0, 0, 100, "nic", io_read=True)
    assert hierarchy.llc.lookup(100, touch=False) is None
    assert hierarchy.mlcs[0].peek(100) is not None
    assert bank.stream("nic").migrations == 0


def test_consumed_lines_never_bloat():
    hierarchy, bank, _ = build()
    sets = hierarchy.cfg.mlc_sets
    ways = hierarchy.cfg.mlc_ways
    hierarchy.dma_write(0.0, 4096, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 4096, "nic", io_read=True)
    # Conflict the line out of the MLC: it must vanish, not enter the LLC.
    for j in range(1, ways + 1):
        hierarchy.cpu_access(1.0, 0, 4096 + j * sets, "app")
    assert hierarchy.mlcs[0].peek(4096) is None
    assert hierarchy.llc.lookup(4096, touch=False) is None
    assert bank.stream("nic").dma_bloats == 0


def test_regular_lines_still_use_victim_cache():
    hierarchy, bank, _ = build()
    capacity = hierarchy.cfg.mlc_sets * hierarchy.cfg.mlc_ways
    for addr in range(capacity + 1):
        hierarchy.cpu_access(0.0, 0, addr, "app")
    assert hierarchy.llc.lookup(0, touch=False) is not None


def test_inclusive_ways_stay_free_for_others():
    hierarchy, bank, cat = build()
    # Consume a stream of packets; with self-invalidation nothing of them
    # may end up in the inclusive ways.
    sets = hierarchy.llc.cfg.sets
    for i in range(64):
        addr = 10_000 + i
        hierarchy.dma_write(0.0, addr, "nic", allocating=True)
        hierarchy.cpu_access(0.0, 0, addr, "nic", io_read=True)
    occupied = [
        line
        for line in hierarchy.llc.resident()
        if line.stream == "nic" and line.way in SKYLAKE_SP.inclusive_ways
    ]
    assert occupied == []
    del sets


def test_default_hierarchy_keeps_paper_behaviour():
    hierarchy, bank, _ = build(self_invalidate=False)
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(1.0, 0, 100, "nic", io_read=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert line is not None and line.way in SKYLAKE_SP.inclusive_ways
