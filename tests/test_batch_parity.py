"""Randomized batch/scalar parity: batched dispatch is a pure perf mode.

Every test here drives two identical hierarchies — one with batching
forced on, one forced off — through the same randomized interleaved
DMA/CPU operation stream and asserts the end states are *identical*:
counters (every stream, every field), trace events, memory-controller
state, and the full cache state (LLC lines, MLC contents, snoop-filter
entries, including recency ordering).  Streams include the control-flow
boundaries the batched path must flush around: DCA-way reprogramming,
CLOS mask rewrites, non-allocating flows, and the write-update ablation.

Coverage spans all three platform presets and, at the end, a full server
run with fault injection enabled.  After every operation both hierarchies
also pass :func:`check_invariants`, which catches, among other things, a
reused line or directory record left reachable from two places.  The
last test checks that a process building a figure's server never imports
numpy, which the batched paths no longer use, nor the process pool.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obsv
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.llc import LlcConfig
from repro.platform import CASCADELAKE_SP, ICELAKE_SP, SKYLAKE_SP
from repro.rdt.cat import CacheAllocation
from repro.sim import batch
from repro.telemetry.counters import CounterBank
from repro.uncore.memory import MemoryController

PLATFORMS = {
    "skylake-sp": SKYLAKE_SP,
    "icelake-sp": ICELAKE_SP,
    "cascadelake-sp": CASCADELAKE_SP,
}


def build_hierarchy(spec, llc_overrides=None, **cfg_overrides):
    bank = CounterBank()
    cat = CacheAllocation(ways=spec.llc_ways)
    memory = MemoryController.for_platform(bank, spec)
    llc = LlcConfig.for_platform(spec)
    # Small geometry for eviction pressure; way roles stay per-platform.
    llc = LlcConfig(
        sets=16,
        ways=llc.ways,
        dca_ways=llc.dca_ways,
        inclusive_ways=llc.inclusive_ways,
        **(llc_overrides or {}),
    )
    cfg = HierarchyConfig(
        cores=2, platform=spec, llc=llc, mlc_sets=4, mlc_ways=2,
        **cfg_overrides,
    )
    return CacheHierarchy(cfg, cat, memory, bank), bank, cat


def llc_state(hierarchy):
    return sorted(
        (
            line.addr,
            line.stream,
            line.way,
            line.dirty,
            line.io,
            line.consumed,
            line.lru,
            tuple(sorted(line.holders)),
        )
        for line in hierarchy.llc.resident()
    )


def mlc_state(hierarchy):
    return [
        sorted(
            (line.addr, line.stream, line.dirty, line.io, line.lru)
            for line in mlc.resident()
        )
        for mlc in hierarchy.mlcs
    ]


def sf_state(hierarchy):
    entries = []
    for bucket in hierarchy.sf._sets:
        for entry in bucket.values():
            entries.append(
                (entry.addr, tuple(sorted(entry.holders)), entry.inclusive,
                 entry.lru)
            )
    return sorted(entries)


def memory_state(memory):
    return (
        memory.total_reads,
        memory.total_writes,
        memory._window_start,
        memory._window_lines,
        memory._utilization,
    )


def full_state(hierarchy, bank):
    return {
        "llc": llc_state(hierarchy),
        "mlc": mlc_state(hierarchy),
        "sf": sf_state(hierarchy),
        "memory": memory_state(hierarchy.memory),
        "counters": {
            name: counters.snapshot()
            for name, counters in bank.streams.items()
        },
        "stream_order": list(bank.streams),
        "back_invalidations": hierarchy.sf.back_invalidations,
    }


def check_invariants(hierarchy):
    """Structural invariants that must hold between any two operations.

    Every LLC line sits in the slot its ``way`` names and is indexed under
    its own address; every MLC and snoop-filter record is keyed by its own
    address; each MLC set iterates in recency order; and no record (or
    holder set) is reachable from two places — the failure mode of reusing
    an evicted record that is still referenced.
    """
    seen = set()

    def once(obj, where):
        assert id(obj) not in seen, f"{where}: record reachable twice"
        seen.add(id(obj))

    for wayset in hierarchy.llc._sets:
        slots, index = wayset.slots, wayset.index
        assert len(index) == sum(line is not None for line in slots)
        for way, line in enumerate(slots):
            if line is None:
                continue
            assert line.way == way
            assert index[line.addr] is slots[line.way]
            once(line, f"llc {line.addr:#x}")
            once(line.holders, f"llc {line.addr:#x} holders")
    for mlc in hierarchy.mlcs:
        for bucket in mlc._sets:
            for addr, line in bucket.items():
                assert addr == line.addr
                once(line, f"mlc{mlc.core_id} {addr:#x}")
            # Sets are kept in recency order (the first key is the victim).
            lrus = [line.lru for line in bucket.values()]
            assert lrus == sorted(lrus)
    for bucket in hierarchy.sf._sets:
        for addr, entry in bucket.items():
            assert addr == entry.addr
            assert entry.holders, f"sf {addr:#x} has no holders"
            once(entry, f"sf {addr:#x}")
            once(entry.holders, f"sf {addr:#x} holders")
    spare = hierarchy._spare_line
    if spare is not None:
        # The record a victim-cache hit parked for reuse is dead: in no
        # slot (``once`` has seen every slot) and no index, and clean.
        once(spare, "spare llc line")
        once(spare.holders, "spare llc line holders")
        for wayset in hierarchy.llc._sets:
            assert all(line is not spare for line in wayset.index.values())
        assert not spare.holders and not spare.meta


def nvme_spans(rng):
    """One NVMe service quantum: many one-line spans at one timestamp,
    mostly from one stream (several commands of the same FIO job)."""
    return [
        (rng.randrange(256), 1, "fio" if rng.random() < 0.8 else "dev1")
        for _ in range(rng.randrange(8, 23))
    ]


def make_ops(rng, nops=400):
    """A randomized interleaved DMA/CPU stream with reconfig boundaries."""
    ops = []
    for _ in range(nops):
        roll = rng.random()
        core = rng.randrange(2)
        addr = rng.randrange(256)
        if roll < 0.20:
            ops.append(("burst", addr, rng.randrange(1, 40), True))
        elif roll < 0.28:
            ops.append(("burst", addr, rng.randrange(1, 40), False))
        elif roll < 0.34:
            spans = [
                (rng.randrange(256), rng.randrange(1, 24), f"dev{d}")
                for d in range(rng.randrange(1, 4))
            ]
            ops.append(("multi", spans, rng.random() < 0.8))
        elif roll < 0.40:
            # NVMe-shaped quantum: mostly the non-allocating memory flow.
            ops.append(("multi", nvme_spans(rng), rng.random() < 0.2))
        elif roll < 0.55:
            run = [rng.randrange(256) for _ in range(rng.randrange(1, 48))]
            ops.append(("run", core, run, rng.random() < 0.3))
        elif roll < 0.75:
            ops.append(("read", core, addr, rng.random() < 0.3))
        elif roll < 0.85:
            ops.append(("write", core, addr))
        elif roll < 0.92:
            ops.append(("dma_read", addr))
        elif roll < 0.96:
            first = rng.randrange(3)
            ops.append(("dca_ways", tuple(range(first, first + 2))))
        else:
            first = rng.randrange(4)
            ops.append(("mask", rng.randrange(2), first, first + 3))
    return ops


def apply_ops(hierarchy, cat, ops):
    """Replay an op stream; returns summed CPU latencies (scalar order)."""
    now = 0.0
    total = 0.0
    for op in ops:
        now += 7.0
        kind = op[0]
        if kind == "burst":
            _, addr, lines, allocating = op
            hierarchy.dma_write_burst(now, addr, lines, "nic", allocating)
        elif kind == "multi":
            _, spans, allocating = op
            hierarchy.dma_write_multi(now, spans, allocating)
        elif kind == "run":
            _, core, run, io_read = op
            total += hierarchy.cpu_access_run(
                now, core, run, "cpu", io_read=io_read
            )
        elif kind == "read":
            _, core, addr, io_read = op
            total += hierarchy.cpu_access(
                now, core, addr, "cpu", io_read=io_read
            )
        elif kind == "write":
            _, core, addr = op
            total += hierarchy.cpu_access(now, core, addr, "cpu", write=True)
        elif kind == "dma_read":
            hierarchy.dma_read(now, op[1], "nic")
        elif kind == "dca_ways":
            hierarchy.llc.set_dca_ways(op[1])
        elif kind == "mask":
            _, clos, first, last = op
            cat.set_mask(clos, range(first, last + 1))
            cat.associate(0, clos)
        check_invariants(hierarchy)
    return total


def run_once(spec, ops, batching, llc_overrides=None, **cfg_overrides):
    hierarchy, bank, cat = build_hierarchy(spec, llc_overrides, **cfg_overrides)
    hierarchy.set_batching(batching)
    total = apply_ops(hierarchy, cat, ops)
    return full_state(hierarchy, bank), total


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batch_scalar_parity(platform, seed):
    spec = PLATFORMS[platform]
    salt = sorted(PLATFORMS).index(platform)
    ops = make_ops(random.Random((seed << 8) ^ salt))
    scalar_state, scalar_total = run_once(spec, ops, batching=False)
    batched_state, batched_total = run_once(spec, ops, batching=True)
    assert batched_state == scalar_state
    # Total latency: bulk multiply vs repeated add may differ in the last
    # float bit for non-integral latencies; parity is semantic, not ULP.
    assert batched_total == pytest.approx(scalar_total, rel=0, abs=1e-6)


@pytest.mark.parametrize("seed", [11, 12])
def test_parity_under_write_update_ablation(seed):
    """The ablation disables the batched allocating flow (scalar fallback);
    the end state must still match a batching-off run exactly."""
    ops = make_ops(random.Random(seed), nops=250)
    scalar_state, _ = run_once(
        SKYLAKE_SP, ops, batching=False, ddio_write_update=False
    )
    batched_state, _ = run_once(
        SKYLAKE_SP, ops, batching=True, ddio_write_update=False
    )
    assert batched_state == scalar_state


@pytest.mark.parametrize("seed", [31, 32])
def test_parity_without_inclusive_migration(seed):
    """Without migration, CPU-read I/O lines keep holders inside the DCA
    ways, so batched DMA allocations meet inclusive victims."""
    ops = make_ops(random.Random(seed), nops=250)
    no_migration = {"inclusive_migration": False}
    scalar_state, _ = run_once(SKYLAKE_SP, ops, False, no_migration)
    batched_state, _ = run_once(SKYLAKE_SP, ops, True, no_migration)
    assert batched_state == scalar_state


@pytest.mark.parametrize("seed", [21, 22])
def test_parity_with_self_invalidation(seed):
    ops = make_ops(random.Random(seed), nops=250)
    scalar_state, _ = run_once(
        SKYLAKE_SP, ops, batching=False, self_invalidate_consumed=True
    )
    batched_state, _ = run_once(
        SKYLAKE_SP, ops, batching=True, self_invalidate_consumed=True
    )
    assert batched_state == scalar_state


def test_parity_trace_events():
    """With the observability layer on, both modes emit the same events."""
    ops = make_ops(random.Random(99), nops=200)

    def traced(batching):
        obsv.enable()
        try:
            state, _ = run_once(SKYLAKE_SP, ops, batching=batching)
            events = [
                (e.ts, e.epoch, e.kind, e.name, e.data)
                for e in obsv.TRACER.events
            ]
        finally:
            obsv.disable()
        return state, events

    scalar_state, scalar_events = traced(False)
    batched_state, batched_events = traced(True)
    assert batched_state == scalar_state
    assert batched_events == scalar_events


def test_parity_non_lru_policy_falls_back():
    """RRIP hierarchies never take the batched allocating flow; results
    with batching on must equal batching off regardless."""
    ops = make_ops(random.Random(7), nops=250)

    def run_rrip(batching):
        bank = CounterBank()
        cat = CacheAllocation()
        memory = MemoryController(bank)
        cfg = HierarchyConfig(
            cores=2,
            llc=LlcConfig(sets=16, replacement="srrip"),
            mlc_sets=4,
            mlc_ways=2,
        )
        hierarchy = CacheHierarchy(cfg, cat, memory, bank)
        hierarchy.set_batching(batching)
        apply_ops(hierarchy, cat, ops)
        return full_state(hierarchy, bank)

    # RRIP lines have no meaningful ``lru`` tick; states still compare
    # because both runs use the same policy.
    assert run_rrip(True) == run_rrip(False)


def test_parity_full_server_with_faults(monkeypatch):
    """End-to-end: the canonical mixed server with fault injection on is
    bit-identical with batching globally enabled vs disabled."""
    from repro.experiments.harness import Server
    from repro.faults import ENV_FAULT_INTENSITY
    from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW
    from repro.workloads.dpdk import DpdkWorkload
    from repro.workloads.fio import FioWorkload

    monkeypatch.setenv(ENV_FAULT_INTENSITY, "1.0")

    def run_server(batching):
        previous = batch.set_enabled(batching)
        try:
            server = Server(cores=6, seed=0xA4)
            server.add_workload(
                DpdkWorkload(
                    name="dpdk", touch=True, cores=2, packet_bytes=1024,
                    priority=PRIORITY_HIGH,
                )
            )
            server.add_workload(
                FioWorkload(
                    name="fio", block_bytes=256 * 1024, cores=2, io_depth=8,
                    priority=PRIORITY_LOW,
                )
            )
            run = server.run(epochs=3, warmup=1)
            totals = {
                name: counters.snapshot()
                for name, counters in server.counters.streams.items()
            }
            return totals, server.sim.events_executed, len(run.samples)
        finally:
            batch.set_enabled(previous)

    scalar = run_server(False)
    batched = run_server(True)
    assert batched == scalar


_NO_NUMPY_PROBE = """
import sys
import repro.experiments.__main__
from repro.experiments.scenarios import build_server, microbenchmark_workloads
from repro.experiments.tenants import build_tenant_server
from repro.experiments.parallel import run_tasks
build_server(microbenchmark_workloads(1024), scheme="a4")
build_tenant_server(6)
assert run_tasks(abs, [1, -2]) == [1, 2]
for name in ("numpy", "concurrent.futures", "multiprocessing"):
    if name in sys.modules:
        sys.exit(f"a serial run imported {name}")
"""


def test_simulator_does_not_import_numpy():
    """The batched paths compute set indices inline, so no process that
    builds a figure's server should pay numpy's import cost; nor should a
    serial batch pay for the process pool's.  A fresh interpreter is
    needed because the test runner may import either itself."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
