"""The cache hierarchy: per-core MLCs + shared LLC + directory + memory.

This module wires the structural models together and implements the data
movement rules the paper's contentions emerge from:

* **Non-inclusive fill** — a CPU miss in both MLC and LLC fills the MLC
  only; the LLC is a victim cache.
* **Victim-cache eviction (DMA bloat)** — MLC evictions allocate into the
  LLC inside the evicting core's CAT mask.  Consumed I/O lines taking this
  path are counted as *DMA bloat*.
* **Inclusive-way migration (directory contention, O1)** — when a CPU read
  hits an LLC line, the line also enters the reader's MLC and thus becomes
  LLC-inclusive; such lines may only live in the two inclusive ways, so the
  LLC copy migrates there, evicting whatever occupied them — regardless of
  any CAT mask.
* **DDIO flows** — inbound DMA writes either *write-update* a resident LLC
  line in place, *write-allocate* into the DCA ways, or (non-allocating
  flow, DCA disabled for the port) go straight to memory.
* **DMA leak** — an unconsumed DMA-written line evicted from the LLC is
  counted as a leak against its stream; the eventual CPU read then misses
  to memory (raising the stream's *DCA miss rate*).
* **Egress read-allocate** — device reads of MLC-only lines copy them into
  the inclusive ways; uncached lines are read from memory without
  allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence, Tuple

from repro.cache.directory import DirectoryEntry, SnoopFilter
from repro.cache.line import LlcLine, MlcLine
from repro.cache.llc import LastLevelCache, LlcConfig
from repro.cache.mlc import MidLevelCache
from repro.platform import DEFAULT_PLATFORM, PlatformSpec
from repro.rdt.cat import CacheAllocation
from repro.sim import batch
from repro.telemetry.counters import CounterBank
from repro.uncore.memory import MemoryController


@dataclass
class HierarchyConfig:
    """Geometry and latency knobs for one simulated socket.

    Geometry/timing fields default to ``None`` and are resolved against
    ``platform`` (or :data:`~repro.platform.DEFAULT_PLATFORM`) in
    ``__post_init__`` — at *construction* time, not at import time — so a
    config built for a non-default platform can never silently inherit
    skylake-sp geometry through a stale class-level default.
    """

    cores: int = 18
    platform: Optional[PlatformSpec] = None
    """The spec unresolved fields are derived from (default skylake-sp)."""
    llc: Optional[LlcConfig] = None
    mlc_sets: Optional[int] = None
    mlc_ways: Optional[int] = None
    ext_dir_ways: Optional[int] = None
    mlc_hit_cycles: Optional[float] = None
    llc_hit_cycles: Optional[float] = None
    snoop_hit_cycles: Optional[float] = None
    """Cache-to-cache transfer from a peer MLC via the extended directory
    (defaults to ``llc_hit_cycles + 16``)."""
    ddio_write_update: bool = True
    """Real DDIO write-updates LLC-resident lines in place wherever they
    live.  Set False (ablation) to force every inbound write to re-allocate
    into the DCA ways — Fig. 7's Overlap advantage then disappears because
    I/O lines can no longer be refreshed inside the inclusive ways."""
    next_line_prefetch: bool = False
    """Optional L2 next-line prefetcher: a demand miss also pulls the
    following line into the MLC (uncharged, like a timely hardware
    prefetch).  Off by default — the paper's contentions are orthogonal to
    prefetching, but the knob lets users study their interaction."""
    self_invalidate_consumed: bool = False
    """Related-work baseline (§8: IDIO / Sweeper): consumed I/O lines are
    self-invalidated — the LLC copy is dropped on consumption instead of
    migrating to the inclusive ways, and MLC evictions of consumed I/O
    lines are discarded instead of bloating the LLC.  Eliminates both the
    directory contention and DMA bloat at the cost of hardware changes the
    paper's software-only approach avoids."""

    def __post_init__(self) -> None:
        spec = self.platform if self.platform is not None else DEFAULT_PLATFORM
        if self.llc is None:
            self.llc = LlcConfig.for_platform(spec)
        if self.mlc_sets is None:
            self.mlc_sets = spec.mlc_sets
        if self.mlc_ways is None:
            self.mlc_ways = spec.mlc_ways
        if self.ext_dir_ways is None:
            self.ext_dir_ways = spec.extended_dir_ways
        if self.mlc_hit_cycles is None:
            self.mlc_hit_cycles = spec.mlc_hit_cycles
        if self.llc_hit_cycles is None:
            self.llc_hit_cycles = spec.llc_hit_cycles
        if self.snoop_hit_cycles is None:
            self.snoop_hit_cycles = self.llc_hit_cycles + 16

    @classmethod
    def for_platform(
        cls, platform: PlatformSpec, cores: int = 18, **overrides
    ) -> "HierarchyConfig":
        """Hierarchy geometry/timing of ``platform`` (switches overridable)."""
        return cls(cores=cores, platform=platform, **overrides)


class CacheHierarchy:
    """One socket's cache hierarchy plus its memory interface.

    The constructor snapshots every spec-derived scalar the per-event paths
    need (hit latencies, behavioural switches, set counts, the set arrays
    themselves) into ``__slots__`` locals: the hot paths never chase
    ``self.cfg.<field>`` through two levels of dataclass indirection per
    event.  All snapshot sources are frozen or construction-stable; the
    runtime-mutable state (CAT masks, the DDIO way mask, replacement
    policy ticks) is still read through its owning object every time.
    """

    __slots__ = (
        "cfg",
        "cat",
        "memory",
        "counters",
        "mba",
        "llc",
        "sf",
        "mlcs",
        "_scounters",
        "_inclusive_migration",
        "_inclusive_ways",
        "_llc_lru_tick",
        "_mlc_hit_cycles",
        "_llc_hit_cycles",
        "_snoop_hit_cycles",
        "_ddio_write_update",
        "_next_line_prefetch",
        "_self_invalidate_consumed",
        "_llc_sets",
        "_llc_nsets",
        "_sf_sets",
        "_sf_nsets",
        "_batching",
        "_spare_entry",
        "_spare_line",
    )

    def __init__(
        self,
        cfg: HierarchyConfig,
        cat: CacheAllocation,
        memory: MemoryController,
        counters: CounterBank,
        mba=None,
    ):
        self.cfg = cfg
        self.cat = cat
        self.memory = memory
        self.counters = counters
        self.mba = mba
        # ^ Optional repro.rdt.mba.MemoryBandwidthAllocation: throttles
        # memory latency per the accessing core's CLOS.
        self.llc = LastLevelCache(cfg.llc)
        self.sf = SnoopFilter(
            sets=cfg.llc.sets,
            ways=cfg.ext_dir_ways,
            min_inclusive=len(cfg.llc.inclusive_ways),
        )
        self.mlcs = [
            MidLevelCache(core, cfg.mlc_sets, cfg.mlc_ways)
            for core in range(cfg.cores)
        ]
        self._scounters: dict[str, "StreamCounters"] = {}
        # Per-stream handle cache; dodges a CounterBank.stream call on
        # every access (the bank itself is stable for the hierarchy's life).
        self._inclusive_migration = cfg.llc.inclusive_migration
        self._inclusive_ways = cfg.llc.inclusive_ways
        self._llc_lru_tick = self.llc._lru_tick
        # Mirror of the LLC's LRU fast-path tick (None for RRIP/NRU).
        # Spec-derived scalar snapshots (constants for this instance).
        self._mlc_hit_cycles = cfg.mlc_hit_cycles
        self._llc_hit_cycles = cfg.llc_hit_cycles
        self._snoop_hit_cycles = cfg.snoop_hit_cycles
        self._ddio_write_update = cfg.ddio_write_update
        self._next_line_prefetch = cfg.next_line_prefetch
        self._self_invalidate_consumed = cfg.self_invalidate_consumed
        # Structure bindings: the set arrays never change identity.
        self._llc_sets = self.llc._sets
        self._llc_nsets = self.llc._nsets
        self._sf_sets = self.sf._sets
        self._sf_nsets = self.sf.sets
        self._batching = batch.enabled()
        self._spare_entry: Optional[DirectoryEntry] = None
        # A directory entry the last MLC eviction freed, reused by the
        # next fill that needs a new one (see _fill_mlc).
        self._spare_line: Optional[LlcLine] = None
        # Likewise the LLC record a victim-cache hit removed (LRU fast
        # path only: its policy metadata is empty, its holders cleared).

    def set_batching(self, enabled: bool) -> None:
        """Toggle batched dispatch for this hierarchy (parity tests and the
        on/off bit-identity gate use this; figures inherit the module
        default from :mod:`repro.sim.batch`)."""
        self._batching = bool(enabled)

    def _stream(self, name: str):
        counters = self._scounters.get(name)
        if counters is None:
            counters = self._scounters[name] = self.counters.stream(name)
        return counters

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------

    def cpu_access(
        self,
        now: float,
        core: int,
        addr: int,
        stream: str,
        write: bool = False,
        io_read: bool = False,
    ) -> float:
        """One CPU load/store; returns its load-to-use latency in cycles.

        ``io_read`` marks reads of device-DMA-written data (ring descriptors,
        packet payloads, storage blocks); misses on such reads are the
        realised cost of DMA leaks and feed the stream's DCA miss rate.
        """
        counters = self._scounters.get(stream)
        if counters is None:
            counters = self._scounters[stream] = self.counters.stream(stream)
        if io_read:
            counters.io_reads += 1

        llc = self.llc
        mlc = self.mlcs[core]
        bucket = mlc._sets[addr % mlc.sets]
        mlc_line = bucket.get(addr)
        if mlc_line is not None:
            mlc_line.lru = next(mlc._tick)
            del bucket[addr]
            bucket[addr] = mlc_line
            counters.mlc_hits += 1
            if write:
                mlc_line.dirty = True
                # A store hit in an MLC invalidates any (now stale) LLC copy.
                llc_line = self._llc_sets[addr % self._llc_nsets].index.get(addr)
                if llc_line is not None:
                    self._detach_llc_line(llc_line)
                    llc.remove(llc_line)
            return self._mlc_hit_cycles

        counters.mlc_misses += 1
        wayset = self._llc_sets[addr % self._llc_nsets]
        llc_line = wayset.index.get(addr)
        if llc_line is not None:
            lru_tick = self._llc_lru_tick
            if lru_tick is not None:
                llc_line.lru = next(lru_tick)
            else:
                llc.policy.on_hit(llc_line)
            counters.llc_hits += 1
            if llc_line.io and not llc_line.consumed:
                # First CPU touch of a DMA-written line: mark consumed and
                # perform the modified-to-shared write-back (Wang et al.).
                llc_line.consumed = True
                if llc_line.dirty:
                    self.memory.write(now, 1, llc_line.stream)
                    llc_line.dirty = False
            if write:
                # RFO: the MLC takes exclusive ownership; the LLC copy dies.
                dirty = True
                io_flag = llc_line.io
                self._detach_llc_line(llc_line)
                llc.remove(llc_line)
                self._fill_mlc(now, core, addr, stream, dirty=dirty, io=io_flag)
            elif llc_line.io and self._self_invalidate_consumed:
                # IDIO/Sweeper baseline: the consumed copy self-invalidates.
                self._detach_llc_line(llc_line)
                llc.remove(llc_line)
                self._fill_mlc(now, core, addr, stream, dirty=False, io=True)
            elif llc_line.io:
                # A DMA-written line transitions modified -> shared on its
                # first CPU read (Wang et al.): the LLC keeps a copy, which
                # as an LLC-inclusive line must migrate into the inclusive
                # ways (Yan et al.) — the paper's directory contention —
                # unless disabled for ablation.
                migrate = (
                    self._inclusive_migration
                    and llc_line.way not in self._inclusive_ways
                )
                if migrate and lru_tick is None:
                    self._make_inclusive(now, llc_line)
                elif migrate:
                    # Inlined LastLevelCache.migrate_to_inclusive (LRU fast
                    # path): the line keeps its index entry, only its slot
                    # and way change.
                    slots = wayset.slots
                    way = -1
                    best_lru = None
                    for cand in self._inclusive_ways:
                        resident = slots[cand]
                        if resident is None:
                            way = cand
                            break
                        if best_lru is None or resident.lru < best_lru:
                            way, best_lru = cand, resident.lru
                    if way < 0:
                        raise ValueError("no candidate ways for victim selection")
                    victim = slots[way]
                    if victim is not None:
                        del wayset.index[victim.addr]
                    slots[llc_line.way] = None
                    llc_line.lru = next(lru_tick)
                    llc_line.way = way
                    slots[way] = llc_line
                    lstream = llc_line.stream
                    lcounters = self._scounters.get(lstream)
                    if lcounters is None:
                        lcounters = self._scounters[lstream] = (
                            self.counters.stream(lstream)
                        )
                    lcounters.migrations += 1
                    if victim is not None:
                        self._dispose_victim(now, victim)
                self._fill_mlc(
                    now, core, addr, stream, dirty=False, io=True,
                    llc_line=llc_line,
                )
            else:
                # Regular non-inclusive victim-cache hit: the line transfers
                # to the reader's MLC and the LLC copy is invalidated.
                # Inlined LastLevelCache.remove; on the LRU fast path the
                # now unreferenced record waits for _fill_mlc to reuse it.
                if llc_line.holders:
                    self._detach_llc_line(llc_line)
                slots = wayset.slots
                if slots[llc_line.way] is not llc_line:
                    raise ValueError("line is not resident where it claims to be")
                slots[llc_line.way] = None
                del wayset.index[addr]
                if lru_tick is not None:
                    self._spare_line = llc_line
                self._fill_mlc(now, core, addr, stream, llc_line.dirty, False)
            return self._llc_hit_cycles

        entry = self._sf_sets[addr % self._sf_nsets].get(addr)
        if entry is not None and entry.holders:
            # MLC-only line held by a peer core: serve via a snoop.
            counters.llc_hits += 1
            if write:
                self._invalidate_peers(now, addr, keep_core=None)
                self._fill_mlc(now, core, addr, stream, dirty=True, io=False)
            else:
                self._fill_mlc(now, core, addr, stream, dirty=False, io=False)
            return self._snoop_hit_cycles

        # Full miss: fill the MLC straight from memory (non-inclusive).
        counters.llc_misses += 1
        if io_read:
            counters.io_read_misses += 1
        self.memory.read(now, 1, stream)
        latency = self.memory.access_latency()
        if self.mba is not None:
            latency *= self.mba.latency_factor(self.cat.clos_of(core))
        self._fill_mlc(now, core, addr, stream, dirty=write, io=io_read)
        if self._next_line_prefetch and not io_read:
            self._prefetch(now, core, addr + 1, stream)
        return latency

    def _prefetch(self, now: float, core: int, addr: int, stream: str) -> None:
        """Timely next-line prefetch into the MLC (no latency charged)."""
        if self.mlcs[core].peek(addr) is not None:
            return
        if self.llc.lookup(addr, touch=False) is not None:
            return  # leave LLC-resident lines alone (no speculative moves)
        counters = self._stream(stream)
        counters.prefetch_fills += 1
        self.memory.read(now, 1, stream)
        self._fill_mlc(now, core, addr, stream, dirty=False, io=False)

    def cpu_access_run(
        self,
        now: float,
        core: int,
        addrs: Sequence[int],
        stream: str,
        write: bool = False,
        io_read: bool = False,
    ) -> float:
        """Sum of :meth:`cpu_access` latencies for ``addrs``, in order.

        Semantically identical to calling :meth:`cpu_access` once per
        address.  With batching on, maximal streaks of MLC *read* hits —
        which mutate nothing but recency and counters — are classified
        before any mutation and then processed in bulk (one counter update,
        recency ticks pre-drawn in order); every other access (writes,
        misses, LLC/snoop transitions, prefetch triggers) delegates to the
        scalar path at its original position in the run, so any state it
        changes is visible to the classification of the remaining suffix.

        The returned total is exact for the default integral hit latencies;
        with non-integral latency configs it may differ from the scalar sum
        in the last float bit (bulk multiply vs. repeated add).
        """
        if not self._batching or write:
            cpu_access = self.cpu_access
            total = 0.0
            for addr in addrs:
                total += cpu_access(now, core, addr, stream, write, io_read)
            return total
        counters = self._scounters.get(stream)
        if counters is None:
            counters = self._scounters[stream] = self.counters.stream(stream)
        mlc = self.mlcs[core]
        msets = mlc._sets
        nmsets = mlc.sets
        mtick = mlc._tick
        mlc_hit_cycles = self._mlc_hit_cycles
        cpu_access = self.cpu_access
        n = len(addrs)
        total = 0.0
        i = 0
        while i < n:
            addr = addrs[i]
            bucket = msets[addr % nmsets]
            line = bucket.get(addr)
            if line is None:
                total += cpu_access(now, core, addr, stream, False, io_read)
                i += 1
                continue
            # MLC-read-hit streak: a hit mutates only the line's recency,
            # which cannot change any later access's hit/miss outcome, so
            # ticks are drawn inline in exact scalar order; the first
            # non-hit ends the streak and re-enters scalar dispatch.
            count = 0
            while True:
                line.lru = next(mtick)
                del bucket[addr]
                bucket[addr] = line
                count += 1
                i += 1
                if i >= n:
                    break
                addr = addrs[i]
                bucket = msets[addr % nmsets]
                line = bucket.get(addr)
                if line is None:
                    break
            counters.mlc_hits += count
            if io_read:
                counters.io_reads += count
            total += mlc_hit_cycles * count
        return total

    # ------------------------------------------------------------------
    # DMA side
    # ------------------------------------------------------------------

    def dma_write(self, now: float, addr: int, stream: str, allocating: bool) -> None:
        """Inbound device write of one line.

        ``allocating`` selects the DDIO allocating flow (write-update /
        write-allocate into DCA ways) vs. the memory flow (DCA disabled).
        """
        self.dma_write_burst(now, addr, 1, stream, allocating)

    def dma_write_burst(
        self, now: float, base_addr: int, lines: int, stream: str, allocating: bool
    ) -> None:
        """Inbound device write of ``lines`` consecutive lines.

        Semantically identical to ``lines`` calls to :meth:`dma_write`; the
        burst form hoists the per-stream counter fetch and structure
        bindings out of the per-line loop (NIC packets and NVMe transfers
        always write multi-line bursts).
        """
        batched = self._batching and lines >= batch.MIN_BURST
        if batched and not allocating:
            self._memory_flow_batched(now, ((base_addr, lines, stream),))
            return
        counters = self._scounters.get(stream)
        if counters is None:
            counters = self._scounters[stream] = self.counters.stream(stream)
        counters.dma_writes += lines
        if batched and self._llc_lru_tick is not None and self._ddio_write_update:
            # Batched dispatch covers the two uniform flows; the ablation
            # (write-update off) and non-LRU policies keep scalar dispatch.
            self._dma_write_burst_batched(now, base_addr, lines, stream, counters)
            return

        sf_sets = self._sf_sets
        sf_nsets = self._sf_nsets
        llc = self.llc
        llc_sets = self._llc_sets
        llc_nsets = self._llc_nsets
        write_update = self._ddio_write_update
        lru_tick = self._llc_lru_tick
        memory_write = self.memory.write
        scounters = self._scounters
        for addr in range(base_addr, base_addr + lines):
            # The device takes ownership: cached CPU copies become stale.
            # (Untracked addresses — the common case for fresh buffers —
            # skip the full peer walk; LLC holder sets are empty whenever
            # no snoop filter entry exists, so nothing needs pruning.)
            if sf_sets[addr % sf_nsets].get(addr) is not None:
                self._invalidate_peers(now, addr, keep_core=None, silent=True)
            wayset = llc_sets[addr % llc_nsets]
            llc_line = wayset.index.get(addr)
            if llc_line is not None:
                llc_line.holders.clear()

            if allocating:
                if llc_line is not None and not write_update:
                    # Ablation: no in-place updates; drop the stale copy and
                    # fall through to a fresh DCA-way allocation.
                    self._detach_llc_line(llc_line)
                    llc.remove(llc_line)
                    llc_line = None
                if llc_line is not None:
                    counters.ddio_updates += 1
                    llc_line.dirty = True
                    llc_line.io = True
                    llc_line.consumed = False
                    llc_line.stream = stream
                    if lru_tick is not None:
                        llc_line.lru = next(lru_tick)
                    else:
                        llc.policy.on_hit(llc_line)
                elif lru_tick is not None:
                    # Inlined LastLevelCache.allocate (LRU fast path); the
                    # lookup above proved ``addr`` is not resident, and
                    # ``wayset`` is reused from it.
                    counters.ddio_allocates += 1
                    slots = wayset.slots
                    way = -1
                    best_lru = None
                    for cand in llc.dca_ways:
                        resident = slots[cand]
                        if resident is None:
                            way = cand
                            break
                        if best_lru is None or resident.lru < best_lru:
                            way, best_lru = cand, resident.lru
                    if way < 0:
                        raise ValueError("no candidate ways for victim selection")
                    victim = slots[way]
                    index = wayset.index
                    if victim is not None:
                        del index[victim.addr]
                    line = LlcLine(addr, stream, way, True, True, False)
                    line.lru = next(lru_tick)
                    slots[way] = line
                    index[addr] = line
                    if victim is not None:
                        if victim.holders:
                            self._dispose_victim(now, victim)
                        else:
                            # Inlined _dispose_victim, no-holders case (DCA
                            # victims are never inclusive).
                            vstream = victim.stream
                            vcounters = scounters.get(vstream)
                            if vcounters is None:
                                vcounters = scounters[vstream] = (
                                    self.counters.stream(vstream)
                                )
                            vcounters.llc_evictions_suffered += 1
                            if victim.io and not victim.consumed:
                                vcounters.dma_leaks += 1
                            if victim.dirty:
                                memory_write(now, 1, vstream)
                else:
                    counters.ddio_allocates += 1
                    _, victim = llc.allocate(
                        addr,
                        stream,
                        llc.dca_ways,
                        dirty=True,
                        io=True,
                        consumed=False,
                    )
                    if victim is not None:
                        self._dispose_victim(now, victim)
            else:
                memory_write(now, 1, stream)
                if llc_line is not None:
                    # Stale copy invalidated without write-back.
                    llc.remove(llc_line)

    def _dma_write_burst_batched(
        self,
        now: float,
        base_addr: int,
        lines: int,
        stream: str,
        counters,
    ) -> None:
        """Batch twin of the scalar allocating burst loop (bit-identical by
        design).

        Parity rests on three invariants, each checked by the randomized
        property tests:

        * at a fixed ``now`` the memory controller's utilisation window
          rolls at most once (on the first access), so per-line write-backs
          and one aggregated ``memory.write`` per stream account
          identically;
        * in the allocating LRU flow every line consumes exactly one LLC
          recency tick (write-update or allocate), so the ticks can be
          pre-drawn in line order;
        * deferred per-victim-stream counter flushes run in first-encounter
          order, matching the order the scalar loop would lazily create
          stream counters in.

        Anything that breaks uniformity — a snoop-filter hit, an inclusive
        victim — drops to the scalar helpers mid-batch for that line only.
        """
        sf_sets = self._sf_sets
        sf_nsets = self._sf_nsets
        llc_sets = self._llc_sets
        llc_nsets = self._llc_nsets
        end = base_addr + lines
        dca_ways = self.llc.dca_ways
        lru_tick = self._llc_lru_tick
        ticks = list(islice(lru_tick, lines))
        n_updates = 0
        n_allocates = 0
        # victim stream -> [evictions, leaks, write-back lines]
        evictions: dict[str, list] = {}
        for offset, addr in enumerate(range(base_addr, end)):
            if sf_sets[addr % sf_nsets].get(addr) is not None:
                self._invalidate_peers(now, addr, keep_core=None, silent=True)
            wayset = llc_sets[addr % llc_nsets]
            index = wayset.index
            llc_line = index.get(addr)
            if llc_line is not None:
                # DDIO write-update in place.
                llc_line.holders.clear()
                n_updates += 1
                llc_line.dirty = True
                llc_line.io = True
                llc_line.consumed = False
                llc_line.stream = stream
                llc_line.lru = ticks[offset]
                continue
            # DDIO write-allocate into the DCA ways (inlined LRU allocate).
            n_allocates += 1
            slots = wayset.slots
            way = -1
            best_lru = None
            for cand in dca_ways:
                resident = slots[cand]
                if resident is None:
                    way = cand
                    break
                if best_lru is None or resident.lru < best_lru:
                    way, best_lru = cand, resident.lru
            if way < 0:
                raise ValueError("no candidate ways for victim selection")
            victim = slots[way]
            if victim is not None:
                del index[victim.addr]
                if not victim.holders:
                    # A victim no MLC holds is referenced nowhere else:
                    # account for it, then reuse its record as the new line.
                    acc = evictions.get(victim.stream)
                    if acc is None:
                        acc = evictions[victim.stream] = [0, 0, 0]
                    acc[0] += 1
                    if victim.io and not victim.consumed:
                        acc[1] += 1
                    if victim.dirty:
                        acc[2] += 1
                    victim.addr = addr
                    victim.stream = stream
                    victim.dirty = True
                    victim.io = True
                    victim.consumed = False
                    victim.lru = ticks[offset]
                    index[addr] = victim
                    continue
            line = LlcLine(addr, stream, way, True, True, False)
            line.lru = ticks[offset]
            slots[way] = line
            index[addr] = line
            if victim is not None:
                self._dispose_victim(now, victim)
        counters.ddio_updates += n_updates
        counters.ddio_allocates += n_allocates
        scounters = self._scounters
        memory_write = self.memory.write
        for vstream, (evicted, leaked, written) in evictions.items():
            vcounters = scounters.get(vstream)
            if vcounters is None:
                vcounters = scounters[vstream] = self.counters.stream(vstream)
            vcounters.llc_evictions_suffered += evicted
            vcounters.dma_leaks += leaked
            if written:
                memory_write(now, written, vstream)

    def dma_write_multi(
        self,
        now: float,
        spans: Sequence[Tuple[int, int, str]],
        allocating: bool,
    ) -> None:
        """Inbound writes of several ``(base_addr, lines, stream)`` spans
        issued at the same timestamp; equivalent to one
        :meth:`dma_write_burst` per span, in order.  Devices that fan one
        service quantum across many buffers (the NVMe transfer engine) use
        this to keep each span on the batched path.

        With batching on, a non-allocating quantum goes through the memory
        flow in one pass, whatever its span lengths (the ``MIN_BURST``
        floor applies per call, and one call covers every span here)."""
        if self._batching and not allocating:
            self._memory_flow_batched(now, spans)
            return
        for base_addr, lines, stream in spans:
            self.dma_write_burst(now, base_addr, lines, stream, allocating)

    def _memory_flow_batched(
        self, now: float, spans: Sequence[Tuple[int, int, str]]
    ) -> None:
        """Non-allocating (DCA-off) writes of ``spans`` in one pass: every
        written line invalidates its cached copies without write-back, then
        one ``memory.write`` per stream, in first-encounter order, carries
        the summed lines.  Exact because at a fixed ``now`` the memory
        controller's utilisation window rolls at most once, on the first
        write."""
        sf_sets = self._sf_sets
        sf_nsets = self._sf_nsets
        llc_sets = self._llc_sets
        llc_nsets = self._llc_nsets
        llc = self.llc
        scounters = self._scounters
        written: dict[str, int] = {}
        for base_addr, lines, stream in spans:
            counters = scounters.get(stream)
            if counters is None:
                counters = scounters[stream] = self.counters.stream(stream)
            counters.dma_writes += lines
            if lines > 0:
                written[stream] = written.get(stream, 0) + lines
            for addr in range(base_addr, base_addr + lines):
                if sf_sets[addr % sf_nsets].get(addr) is not None:
                    self._invalidate_peers(now, addr, keep_core=None, silent=True)
                llc_line = llc_sets[addr % llc_nsets].index.get(addr)
                if llc_line is not None:
                    # Stale copy invalidated without write-back.
                    llc_line.holders.clear()
                    llc.remove(llc_line)
        memory_write = self.memory.write
        for stream, lines in written.items():
            memory_write(now, lines, stream)

    def dma_read(self, now: float, addr: int, stream: str) -> None:
        """Outbound device read of one line (egress path)."""
        counters = self._stream(stream)
        counters.dma_reads += 1

        llc_line = self.llc.lookup(addr)
        if llc_line is not None:
            return  # served directly from the LLC

        entry = self.sf.entry(addr)
        if entry is not None and entry.holders:
            # MLC-only data: read-allocate a copy into the inclusive ways.
            holder = next(iter(entry.holders))
            mlc_line = self.mlcs[holder].peek(addr)
            dirty = bool(mlc_line and mlc_line.dirty)
            owner_stream = mlc_line.stream if mlc_line else stream
            new_line, victim = self.llc.allocate(
                addr,
                owner_stream,
                self.cfg.llc.inclusive_ways,
                dirty=dirty,
                io=False,
            )
            new_line.holders = set(entry.holders)
            self.sf.set_inclusive(addr, True)
            if mlc_line is not None:
                mlc_line.dirty = False
            if victim is not None:
                self._dispose_victim(now, victim)
            return

        # Uncached: DMA-read from memory, no LLC allocation (NetCAT finding).
        self.memory.read(now, 1, stream)

    # ------------------------------------------------------------------
    # Internal mechanics
    # ------------------------------------------------------------------

    def _make_inclusive(self, now: float, llc_line: LlcLine) -> None:
        """Migrate ``llc_line`` into the inclusive ways through the
        replacement-policy object (non-LRU policies; :meth:`cpu_access`
        inlines the LRU case and decides whether a migration is due)."""
        victim = self.llc.migrate_to_inclusive(llc_line)
        self._stream(llc_line.stream).migrations += 1
        if victim is not None:
            self._dispose_victim(now, victim)

    def _fill_mlc(
        self,
        now: float,
        core: int,
        addr: int,
        stream: str,
        dirty: bool,
        io: bool,
        llc_line: Optional[LlcLine] = None,
    ) -> None:
        """Install ``addr`` into ``core``'s MLC, track it in the extended
        directory, and push the MLC's victim (if any) down into the LLC.

        ``llc_line`` is the line's current LLC copy — callers always know
        it (most paths just removed it or verified a miss), so passing it
        here saves a redundant LLC lookup per fill.

        Victim-cache behaviour: an evicted MLC line allocates into the LLC
        within the evicting core's CAT mask (unless already resident).
        Nearly every CPU access of an I/O-heavy mix lands here, so dead
        records are recycled rather than rebuilt: the MLC victim's record
        becomes the new MLC line once its fields are read, a directory
        entry freed by the eviction is kept in one spare slot for the next
        fill, and on the LRU fast path an LLC victim with no holders (hence
        unreferenced, with empty policy metadata) becomes the new LLC line;
        failing that, so does the record a victim-cache hit left in
        ``_spare_line``.
        """
        mlc = self.mlcs[core]
        bucket = mlc._sets[addr % mlc.sets]
        if addr in bucket:
            raise ValueError(f"addr {addr:#x} already resident")
        if len(bucket) >= mlc.ways:
            # MLC sets are kept in recency order: the first key is LRU.
            victim_addr = next(iter(bucket))
            line = bucket.pop(victim_addr)
            vstream = line.stream
            vdirty = line.dirty
            vio = line.io
            line.addr = addr
            line.stream = stream
            line.dirty = dirty
            line.io = io
        else:
            victim_addr = None
            line = MlcLine(addr, stream, dirty, io)
        line.lru = next(mlc._tick)
        bucket[addr] = line
        # Inlined SnoopFilter.track: a fresh MLC holder is the common case
        # (buffers are per-core), so build the entry here; an existing
        # entry just gains a holder.
        sf = self.sf
        sf_sets = self._sf_sets
        sf_nsets = self._sf_nsets
        sf_bucket = sf_sets[addr % sf_nsets]
        entry = sf_bucket.get(addr)
        if entry is None:
            evicted_entry = None
            if len(sf_bucket) >= sf.ways:
                evicted_entry = sf._choose_victim(sf_bucket)
                del sf_bucket[evicted_entry.addr]
                sf.back_invalidations += 1
            entry = self._spare_entry
            if entry is None:
                entry = DirectoryEntry(
                    addr, {core}, llc_line is not None, next(sf._tick)
                )
            else:
                self._spare_entry = None
                entry.addr = addr
                entry.holders.add(core)
                entry.inclusive = llc_line is not None
                entry.lru = next(sf._tick)
            sf_bucket[addr] = entry
            if evicted_entry is not None:
                self._back_invalidate(now, evicted_entry)
        else:
            entry.holders.add(core)
            if llc_line is not None:
                entry.inclusive = True
            entry.lru = next(sf._tick)
        if llc_line is not None:
            llc_line.holders.add(core)
        if victim_addr is None:
            return

        # The MLC victim leaves (``addr`` names it from here on): inlined
        # SnoopFilter.drop_holder, keeping ``entry`` for the peer-holder
        # check below.
        addr = victim_addr
        sf_bucket = sf_sets[addr % sf_nsets]
        entry = sf_bucket.get(addr)
        if entry is not None:
            entry.holders.discard(core)
            if not entry.holders:
                del sf_bucket[addr]
                self._spare_entry = entry
                entry = None
        wayset = self._llc_sets[addr % self._llc_nsets]
        index = wayset.index
        llc_line = index.get(addr)
        if llc_line is not None:
            llc_line.holders.discard(core)
            if not llc_line.holders and entry is not None:
                entry.inclusive = False
            # Was inclusive: the LLC copy absorbs the eviction.
            llc_line.dirty = llc_line.dirty or vdirty
            return

        if entry is not None and entry.holders:
            # A peer MLC still holds the line: silent drop of this copy.
            if vdirty:
                peer = next(iter(entry.holders))
                peer_line = self.mlcs[peer].peek(addr)
                if peer_line is not None:
                    peer_line.dirty = True
            return

        if vio and self._self_invalidate_consumed:
            # IDIO/Sweeper baseline: consumed I/O lines never bloat the LLC.
            if vdirty:
                self.memory.write(now, 1, vstream)
            return

        scounters = self._scounters
        counters = scounters.get(vstream)
        if counters is None:
            counters = scounters[vstream] = self.counters.stream(vstream)
        counters.llc_fills += 1
        if vio:
            counters.dma_bloats += 1
        cat = self.cat
        allowed = cat._masks[cat._core_clos.get(core, 0)]
        lru_tick = self._llc_lru_tick
        if lru_tick is None:
            # An I/O line that reached an MLC counts as consumed.
            _, victim = self.llc.allocate(
                addr, vstream, allowed, dirty=vdirty, io=vio, consumed=vio
            )
            if victim is not None:
                self._dispose_victim(now, victim)
            return
        # Inlined LastLevelCache.allocate (LRU fast path); the lookup above
        # proved ``addr`` is not resident, and ``wayset`` is reused from it.
        slots = wayset.slots
        way = -1
        best_lru = None
        for cand in allowed:
            resident = slots[cand]
            if resident is None:
                way = cand
                break
            if best_lru is None or resident.lru < best_lru:
                way, best_lru = cand, resident.lru
        if way < 0:
            raise ValueError("no candidate ways for victim selection")
        victim = slots[way]
        if victim is not None:
            del index[victim.addr]
            if not victim.holders:
                # Inlined _dispose_victim, no-holders case (the common one
                # for standard-way victims); the dead record then becomes
                # the new line.
                estream = victim.stream
                ecounters = scounters.get(estream)
                if ecounters is None:
                    ecounters = scounters[estream] = self.counters.stream(estream)
                ecounters.llc_evictions_suffered += 1
                if victim.io and not victim.consumed:
                    ecounters.dma_leaks += 1
                if victim.dirty:
                    self.memory.write(now, 1, estream)
                victim.addr = addr
                victim.stream = vstream
                victim.dirty = vdirty
                victim.io = vio
                victim.consumed = vio
                victim.lru = next(lru_tick)
                index[addr] = victim
                return
        line = self._spare_line
        if line is None:
            line = LlcLine(addr, vstream, way, vdirty, vio, vio)
        else:
            self._spare_line = None
            line.addr = addr
            line.stream = vstream
            line.way = way
            line.dirty = vdirty
            line.io = vio
            line.consumed = vio
        line.lru = next(lru_tick)
        slots[way] = line
        index[addr] = line
        if victim is not None:
            self._dispose_victim(now, victim)

    def _dispose_victim(self, now: float, victim: LlcLine) -> None:
        """Account for an LLC line displaced by a fill or migration."""
        stream = victim.stream
        counters = self._scounters.get(stream)
        if counters is None:
            counters = self._scounters[stream] = self.counters.stream(stream)
        counters.llc_evictions_suffered += 1
        if victim.holders:
            # Inclusive line losing only its LLC data copy: the MLC copies
            # live on, tracked by extended directory entries instead.
            counters.inclusive_downgrades += 1
            addr = victim.addr
            if victim.dirty:
                holder = next(iter(victim.holders))
                holder_line = self.mlcs[holder].peek(addr)
                if holder_line is not None:
                    holder_line.dirty = True
            sf = self.sf
            entry = sf._sets[addr % sf.sets].get(addr)
            if entry is not None:
                entry.inclusive = False
            return
        if victim.io and not victim.consumed:
            counters.dma_leaks += 1
        if victim.dirty:
            self.memory.write(now, 1, victim.stream)

    def _detach_llc_line(self, llc_line: LlcLine) -> None:
        """Prepare an LLC line for removal: release directory coupling."""
        if llc_line.holders:
            sf = self.sf
            addr = llc_line.addr
            entry = sf._sets[addr % sf.sets].get(addr)
            if entry is not None:
                entry.inclusive = False
            llc_line.holders.clear()

    def _invalidate_peers(
        self,
        now: float,
        addr: int,
        keep_core: Optional[int],
        silent: bool = False,
    ) -> bool:
        """Invalidate MLC copies of ``addr`` (except ``keep_core``'s).

        Returns True when a dirty copy was dropped.  ``silent`` suppresses
        the write-back (used for DMA writes that overwrite the data anyway).
        """
        sf = self.sf
        entry = sf._sets[addr % sf.sets].get(addr)
        if entry is None:
            return False
        dirty_dropped = False
        for core in list(entry.holders):
            if core == keep_core:
                continue
            dropped = self.mlcs[core].invalidate(addr)
            sf.drop_holder(addr, core)
            if dropped is not None and dropped.dirty:
                dirty_dropped = True
                if not silent:
                    self.memory.write(now, 1, dropped.stream)
        llc = self.llc
        llc_line = llc._sets[addr % llc._nsets].index.get(addr)
        if llc_line is not None:
            llc_line.holders = {
                c for c in llc_line.holders if c == keep_core
            }
            if not llc_line.holders:
                self.sf.set_inclusive(addr, False)
        return dirty_dropped

    def _back_invalidate(self, now: float, entry) -> None:
        """An extended-directory eviction forces MLC copies out."""
        for core in list(entry.holders):
            dropped = self.mlcs[core].invalidate(entry.addr)
            if dropped is not None:
                self._stream(dropped.stream).back_invalidations += 1
                if dropped.dirty:
                    self.memory.write(now, 1, dropped.stream)
