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

Who holds a line is recorded once: the extended directory maps each
MLC-resident address to its holder mask.  An LLC line's holders are that
mask, and a directory entry is pinned exactly when its address is
LLC-resident; both are read off the two structures, never stored, so no
transition has copies to keep in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from repro.cache.directory import SnoopFilter
from repro.cache.line import LlcLine, MlcLine, holder_cores
from repro.cache.llc import LastLevelCache, LlcConfig
from repro.cache.mlc import MidLevelCache
from repro.cache.replacement import LruPolicy
from repro.platform import DEFAULT_PLATFORM, PlatformSpec
from repro.rdt.cat import CacheAllocation
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
    runtime-mutable state (CAT masks, the DDIO way mask) is still read
    through its owning object every time.
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
        "_llc_lru",
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
        "_sf_ways",
        "_mlc_ways",
        "_spare_lines",
        "_writebacks",
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
        self._llc_lru = type(self.llc.policy) is LruPolicy
        # LRU fast path: under plain LRU (the default) a hit is a move to
        # the end of its LLC set's index, and the hot paths inline
        # LruPolicy.victim_way instead of dispatching through the policy;
        # and a dead record (its policy metadata empty) can be reused.
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
        # The directory shares the LLC's set index: an LLC set's lines and
        # their holder masks live in the same-numbered sets.
        self._sf_ways = self.sf.ways
        self._mlc_ways = cfg.mlc_ways
        self._spare_lines: list[LlcLine] = []
        # The LLC records that left the cache (LRU fast path only), reused
        # by the next DMA allocates or MLC-victim fills that need a record.
        # Each one left a hole that such a fill refills, so the list stays
        # as small as the cache's holes.
        self._writebacks: dict[str, int] = {}
        # Memory write lines per stream that the current DMA call owes;
        # empty between calls (see dma_write_burst).

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

        mlc = self.mlcs[core]
        bucket = mlc._sets[addr % mlc.sets]
        mlc_line = bucket.get(addr)
        if mlc_line is not None:
            del bucket[addr]
            bucket[addr] = mlc_line
            counters.mlc_hits += 1
            if write:
                mlc_line.dirty = True
                # A store hit in an MLC invalidates any (now stale) LLC copy.
                wayset = self._llc_sets[addr % self._llc_nsets]
                llc_line = wayset.index.get(addr)
                if llc_line is not None:
                    wayset.remove(llc_line)
                    if self._llc_lru:
                        self._spare_lines.append(llc_line)
            return self._mlc_hit_cycles

        counters.mlc_misses += 1
        wayset = self._llc_sets[addr % self._llc_nsets]
        llc_line = wayset.index.get(addr)
        if llc_line is not None:
            counters.llc_hits += 1
            io = llc_line.io
            if io and not llc_line.consumed:
                # First CPU touch of a DMA-written line: mark consumed and
                # perform the modified-to-shared write-back (Wang et al.).
                llc_line.consumed = True
                if llc_line.dirty:
                    self.memory.write(now, 1, llc_line.stream)
                    llc_line.dirty = False
            if io and not write and not self._self_invalidate_consumed:
                # A DMA-written line transitions modified -> shared on its
                # first CPU read (Wang et al.): the LLC keeps a copy, which
                # as an LLC-inclusive line must migrate into the inclusive
                # ways (Yan et al.) — the paper's directory contention —
                # unless disabled for ablation.
                lru = self._llc_lru
                index = wayset.index
                if lru:
                    del index[addr]
                    index[addr] = llc_line
                else:
                    self.llc.policy.on_hit(wayset, llc_line)
                migrate = (
                    self._inclusive_migration
                    and llc_line.way not in self._inclusive_ways
                )
                if migrate and not lru:
                    self._make_inclusive(now, llc_line)
                elif migrate:
                    # Inlined LastLevelCache.migrate_to_inclusive and
                    # LruPolicy.victim_way (LRU fast path): the line keeps
                    # its index entry, only its slot and way change.
                    slots = wayset.slots
                    ways = self._inclusive_ways
                    way = -1
                    if len(index) < len(slots):
                        for cand in ways:
                            if slots[cand] is None:
                                way = cand
                                break
                    if way < 0:
                        for resident in index.values():
                            if resident.way in ways:
                                way = resident.way
                                break
                        else:
                            raise ValueError("no candidate ways for victim selection")
                    victim = slots[way]
                    if victim is not None:
                        del index[victim.addr]
                    slots[llc_line.way] = None
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
                        # Inlined _dispose_victim.  Once accounted for, the
                        # displaced record is dead (nothing outside the LLC
                        # points at it): it becomes the next DMA allocate's
                        # or fill's new record.
                        vstream = victim.stream
                        vcounters = self._scounters.get(vstream)
                        if vcounters is None:
                            vcounters = self._scounters[vstream] = (
                                self.counters.stream(vstream)
                            )
                        vcounters.llc_evictions_suffered += 1
                        vaddr = victim.addr
                        vholders = self._sf_sets[vaddr % self._sf_nsets].get(vaddr)
                        if vholders:
                            vcounters.inclusive_downgrades += 1
                            if victim.dirty:
                                self._mark_holder_dirty(vaddr, vholders)
                        else:
                            if victim.io and not victim.consumed:
                                vcounters.dma_leaks += 1
                            if victim.dirty:
                                self.memory.write(now, 1, vstream)
                        self._spare_lines.append(victim)
                self._fill_mlc(now, core, addr, stream, False, True, bucket)
                return self._llc_hit_cycles
            # Every other hit moves the line into the reader's MLC and the
            # LLC copy dies: a store (RFO: the MLC takes exclusive
            # ownership), a consumed I/O line under the IDIO/Sweeper
            # baseline (it self-invalidates), or a regular non-inclusive
            # victim-cache hit.  On the LRU fast path the dead record waits
            # in ``_spare_lines`` for a fill to reuse it.  (Inlined
            # WaySet.remove.)
            slots = wayset.slots
            if slots[llc_line.way] is not llc_line:
                raise ValueError("line is not resident where it claims to be")
            slots[llc_line.way] = None
            del wayset.index[addr]
            if self._llc_lru:
                self._spare_lines.append(llc_line)
            dirty = write or (not io and llc_line.dirty)
            self._fill_mlc(now, core, addr, stream, dirty, io, bucket)
            return self._llc_hit_cycles

        if addr in self._sf_sets[addr % self._sf_nsets]:
            # MLC-only line held by a peer core: serve via a snoop.
            counters.llc_hits += 1
            if write:
                self._invalidate_peers(now, addr)
                self._fill_mlc(now, core, addr, stream, True, False, bucket)
            else:
                self._fill_mlc(now, core, addr, stream, False, False, bucket)
            return self._snoop_hit_cycles

        # Full miss: fill the MLC straight from memory (non-inclusive).
        counters.llc_misses += 1
        if io_read:
            counters.io_read_misses += 1
        latency = self.memory.read(now, 1, stream)
        mba = self.mba
        if mba is not None and mba.factors:
            # Only while some CLOS is throttled: unthrottled is a ×1.0.
            latency *= mba.latency_factor(self.cat.clos_of(core))
        self._fill_mlc(now, core, addr, stream, write, io_read, bucket)
        if self._next_line_prefetch and not io_read:
            self._prefetch(now, core, addr + 1, stream)
        return latency

    def _prefetch(self, now: float, core: int, addr: int, stream: str) -> None:
        """Timely next-line prefetch into the MLC (no latency charged)."""
        mlc = self.mlcs[core]
        bucket = mlc._sets[addr % mlc.sets]
        if addr in bucket:
            return
        if self.llc.lookup(addr, touch=False) is not None:
            return  # leave LLC-resident lines alone (no speculative moves)
        counters = self._stream(stream)
        counters.prefetch_fills += 1
        self.memory.read(now, 1, stream)
        self._fill_mlc(now, core, addr, stream, False, False, bucket)

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

        An MLC read hit changes only its line's recency and two counters,
        so it is served inline; every other access is a :meth:`cpu_access`
        call.  Either way each address costs exactly what a
        :meth:`cpu_access` call would charge, added in the same order."""
        cpu_access = self.cpu_access
        total = 0.0
        if write:
            for addr in addrs:
                total += cpu_access(now, core, addr, stream, write, io_read)
            return total
        counters = self._scounters.get(stream)
        if counters is None:
            counters = self._scounters[stream] = self.counters.stream(stream)
        mlc = self.mlcs[core]
        msets = mlc._sets
        nmsets = mlc.sets
        hit_cycles = self._mlc_hit_cycles
        for addr in addrs:
            bucket = msets[addr % nmsets]
            line = bucket.get(addr)
            if line is None:
                total += cpu_access(now, core, addr, stream, False, io_read)
                continue
            del bucket[addr]
            bucket[addr] = line
            counters.mlc_hits += 1
            if io_read:
                counters.io_reads += 1
            total += hit_cycles
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

        Semantically identical to ``lines`` calls to :meth:`dma_write`:
        :meth:`_write_lines` does the work, then the memory writes it
        summed are issued, one per stream.
        """
        self._write_lines(now, base_addr, lines, stream, allocating)
        if self._writebacks:
            self._flush_writebacks(now)

    def _write_lines(
        self,
        now: float,
        base_addr: int,
        lines: int,
        stream: str,
        allocating: bool,
        more: Optional[Iterator[Tuple[int, int, str]]] = None,
    ) -> None:
        """The one DMA write loop: both flows, the write-update ablation
        and every replacement policy run through it.  ``more``, an
        iterator of further ``(base_addr, lines, stream)`` spans written
        at the same ``now``, carries the loop on through them
        (:meth:`dma_write_multi`).  Two savings keep it
        cheap, both exact:

        * a dead LLC record is never thrown away — an allocation's victim
          with no MLC holders becomes the new line, and a displaced
          inclusive victim or a stale copy waits in ``_spare_lines`` for
          an allocation that finds an empty way (LRU fast path);
        * memory writes (write-backs of dirty victims, and the memory
          flow's lines) are not issued here but summed per stream in
          ``_writebacks``, for the caller to issue once per stream: at a
          fixed ``now`` the memory controller's utilisation window rolls
          at most once, on the first write, so one summed write accounts
          exactly like per-line ones.
        """
        scounters = self._scounters
        writebacks = self._writebacks
        sf_sets = self._sf_sets
        sf_nsets = self._sf_nsets
        llc = self.llc
        llc_sets = self._llc_sets
        llc_nsets = self._llc_nsets
        write_update = self._ddio_write_update
        lru = self._llc_lru
        dca_ways = llc.dca_ways
        spares = self._spare_lines
        while True:
            counters = scounters.get(stream)
            if counters is None:
                counters = scounters[stream] = self.counters.stream(stream)
            counters.dma_writes += lines
            if not allocating and lines > 0:
                writebacks[stream] = writebacks.get(stream, 0) + lines
            updates = allocates = 0
            for addr in range(base_addr, base_addr + lines):
                # The device takes ownership: cached CPU copies become stale.
                # (Untracked addresses — the common case for fresh buffers —
                # skip the peer walk.)  ``sf_bucket`` also holds the holder
                # masks of every line of ``addr``'s LLC set.
                sf_bucket = sf_sets[addr % sf_nsets]
                if addr in sf_bucket:
                    self._invalidate_peers(now, addr, True)
                wayset = llc_sets[addr % llc_nsets]
                llc_line = wayset.index.get(addr)
                if llc_line is not None:
                    if allocating and write_update:
                        # DDIO write-update in place.
                        updates += 1
                        llc_line.dirty = True
                        llc_line.io = True
                        llc_line.consumed = False
                        llc_line.stream = stream
                        if lru:
                            index = wayset.index
                            del index[addr]
                            index[addr] = llc_line
                        else:
                            llc.policy.on_hit(wayset, llc_line)
                        continue
                    # The stale copy dies without write-back: the memory flow
                    # invalidates it, the write-update ablation re-allocates
                    # the line into the DCA ways below.
                    wayset.remove(llc_line)
                    if lru:
                        spares.append(llc_line)
                if not allocating:
                    continue
                # DDIO write-allocate into the DCA ways.
                allocates += 1
                index = wayset.index
                if not lru:
                    _, victim = llc.allocate(addr, stream, dca_ways, True, True, False)
                    if victim is None:
                        continue
                    held = victim.addr in sf_bucket
                else:
                    # Inlined LastLevelCache.allocate and LruPolicy.victim_way
                    # (LRU fast path); the lookup above proved ``addr`` is
                    # not resident.
                    slots = wayset.slots
                    way = -1
                    if len(index) < len(slots):
                        for cand in dca_ways:
                            if slots[cand] is None:
                                way = cand
                                break
                    if way < 0:
                        for resident in index.values():
                            if resident.way in dca_ways:
                                way = resident.way
                                break
                        else:
                            raise ValueError("no candidate ways for victim selection")
                    victim = slots[way]
                    if victim is None:
                        held = False
                    else:
                        del index[victim.addr]
                        held = victim.addr in sf_bucket
                    if victim is None or held:
                        if not spares:
                            line = LlcLine(addr, stream, way, True, True, False)
                        else:
                            line = spares.pop()
                            line.addr = addr
                            line.stream = stream
                            line.way = way
                            line.dirty = True
                            line.io = True
                            line.consumed = False
                        slots[way] = line
                        index[addr] = line
                        if victim is None:
                            continue
                if held:
                    # An inclusive victim only loses its LLC data copy.
                    self._dispose_victim(now, victim)
                    if lru:
                        spares.append(victim)
                    continue
                # Inlined _dispose_victim, no-holders case, its write-back
                # summed into ``writebacks``.
                vstream = victim.stream
                vcounters = scounters.get(vstream)
                if vcounters is None:
                    vcounters = scounters[vstream] = self.counters.stream(vstream)
                vcounters.llc_evictions_suffered += 1
                if victim.io and not victim.consumed:
                    vcounters.dma_leaks += 1
                if victim.dirty:
                    writebacks[vstream] = writebacks.get(vstream, 0) + 1
                if lru:
                    # Nothing else references the victim: it becomes the line.
                    victim.addr = addr
                    victim.stream = stream
                    victim.dirty = True
                    victim.io = True
                    victim.consumed = False
                    index[addr] = victim
            if updates:
                counters.ddio_updates += updates
            if allocates:
                counters.ddio_allocates += allocates
            if more is None:
                return
            try:
                base_addr, lines, stream = next(more)
            except StopIteration:
                return

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
        this.  Either flow runs the loop over every span and then issues
        one memory write per stream for the whole call."""
        if spans:
            more = iter(spans)
            base_addr, lines, stream = next(more)
            self._write_lines(now, base_addr, lines, stream, allocating, more)
            if self._writebacks:
                self._flush_writebacks(now)

    def _flush_writebacks(self, now: float) -> None:
        """Issue the memory writes the DMA loop summed, one per stream."""
        writebacks = self._writebacks
        memory_write = self.memory.write
        for stream, lines in writebacks.items():
            memory_write(now, lines, stream)
        writebacks.clear()

    def dma_read(self, now: float, addr: int, stream: str) -> None:
        """Outbound device read of one line (egress path)."""
        counters = self._stream(stream)
        counters.dma_reads += 1

        llc_line = self.llc.lookup(addr)
        if llc_line is not None:
            return  # served directly from the LLC

        holders = self.sf.holders(addr)
        if holders:
            # MLC-only data: read-allocate a copy into the inclusive ways,
            # which pins the line's directory entry.
            mlc_line = self.mlcs[(holders & -holders).bit_length() - 1].peek(addr)
            dirty = bool(mlc_line and mlc_line.dirty)
            owner_stream = mlc_line.stream if mlc_line else stream
            _, victim = self.llc.allocate(
                addr,
                owner_stream,
                self.cfg.llc.inclusive_ways,
                dirty=dirty,
                io=False,
            )
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
        bucket: dict,
    ) -> None:
        """Install ``addr`` into ``core``'s MLC, add ``core`` to its holder
        mask in the extended directory, and push the MLC's victim (if any)
        down into the LLC.

        ``bucket`` is the MLC set ``addr`` maps to, which must not hold it
        — callers always know it (they just looked ``addr`` up), so
        passing it here saves the lookup.  A directory set that overflows
        evicts its least recent address that is not pinned (not
        LLC-resident) and back-invalidates its holders.

        Victim-cache behaviour: an evicted MLC line allocates into the LLC
        within the evicting core's CAT mask (unless already resident).
        Nearly every CPU access of an I/O-heavy mix lands here, so dead
        records are recycled rather than rebuilt: the MLC victim's record
        becomes the new MLC line once its fields are read, and on the LRU
        fast path an LLC victim with no holders (hence unreferenced, with
        empty policy metadata) becomes the new LLC line; failing that, so
        does a dead record waiting in ``_spare_lines``.  Callers pass every
        argument positionally (this runs once per MLC miss).
        """
        if len(bucket) >= self._mlc_ways:
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
        bucket[addr] = line
        # Track the new holder in the extended directory.  Directory sets
        # are kept in recency order, like MLC sets: an address that gains
        # a holder moves to the end.
        sf_sets = self._sf_sets
        sf_nsets = self._sf_nsets
        bit = 1 << core
        sf_bucket = sf_sets[addr % sf_nsets]
        holders = sf_bucket.pop(addr, 0)
        if holders:
            sf_bucket[addr] = holders | bit
        elif len(sf_bucket) < self._sf_ways:
            sf_bucket[addr] = bit
        else:
            # Overflow: evict the least recent address that is not pinned
            # (not LLC-resident).  One exists unless the geometry is
            # misused.
            resident = self._llc_sets[addr % self._llc_nsets].index
            for evicted in sf_bucket:
                if evicted not in resident:
                    break
            else:
                raise RuntimeError("snoop filter set has no evictable entry")
            evicted_holders = sf_bucket.pop(evicted)
            self.sf.back_invalidations += 1
            sf_bucket[addr] = bit
            self._back_invalidate(now, evicted, evicted_holders)
        if victim_addr is None:
            return

        # The MLC victim leaves (``addr`` names it from here on): ``core``
        # drops out of its holder mask.  (Its address may be untracked
        # already, if the overflow above evicted it.)
        addr = victim_addr
        sf_bucket = sf_sets[addr % sf_nsets]
        holders = sf_bucket.get(addr, 0) & ~bit
        if holders:
            sf_bucket[addr] = holders
        else:
            sf_bucket.pop(addr, None)
        wayset = self._llc_sets[addr % self._llc_nsets]
        index = wayset.index
        llc_line = index.get(addr)
        if llc_line is not None:
            # Was inclusive: the LLC copy absorbs the eviction.
            llc_line.dirty = llc_line.dirty or vdirty
            return

        if holders:
            # A peer MLC still holds the line: silent drop of this copy.
            if vdirty:
                self._mark_holder_dirty(addr, holders)
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
        if not self._llc_lru:
            # An I/O line that reached an MLC counts as consumed.
            _, victim = self.llc.allocate(
                addr, vstream, allowed, dirty=vdirty, io=vio, consumed=vio
            )
            if victim is not None:
                self._dispose_victim(now, victim)
            return
        # Inlined LastLevelCache.allocate and LruPolicy.victim_way (LRU
        # fast path); the lookup above proved ``addr`` is not resident, and
        # ``wayset`` is reused from it.
        slots = wayset.slots
        way = -1
        if len(index) < len(slots):
            for cand in allowed:
                if slots[cand] is None:
                    way = cand
                    break
        if way < 0:
            for resident in index.values():
                if resident.way in allowed:
                    way = resident.way
                    break
            else:
                raise ValueError("no candidate ways for victim selection")
        victim = slots[way]
        if victim is not None:
            del index[victim.addr]
            if victim.addr not in sf_bucket:
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
                index[addr] = victim
                return
        spares = self._spare_lines
        if not spares:
            line = LlcLine(addr, vstream, way, vdirty, vio, vio)
        else:
            line = spares.pop()
            line.addr = addr
            line.stream = vstream
            line.way = way
            line.dirty = vdirty
            line.io = vio
            line.consumed = vio
        slots[way] = line
        index[addr] = line
        if victim is not None:
            # An inclusive victim: accounted for, then parked for reuse.
            self._dispose_victim(now, victim)
            spares.append(victim)

    def _dispose_victim(self, now: float, victim: LlcLine) -> None:
        """Account for an LLC line displaced by a fill or migration."""
        stream = victim.stream
        counters = self._scounters.get(stream)
        if counters is None:
            counters = self._scounters[stream] = self.counters.stream(stream)
        counters.llc_evictions_suffered += 1
        addr = victim.addr
        holders = self._sf_sets[addr % self._sf_nsets].get(addr)
        if holders:
            # Inclusive line losing only its LLC data copy: the MLC copies
            # live on, their directory entry no longer pinned.
            counters.inclusive_downgrades += 1
            if victim.dirty:
                self._mark_holder_dirty(addr, holders)
            return
        if victim.io and not victim.consumed:
            counters.dma_leaks += 1
        if victim.dirty:
            self.memory.write(now, 1, victim.stream)

    def _mark_holder_dirty(self, addr: int, holders: int) -> None:
        """Dirty data leaving one copy of ``addr`` lands in a remaining
        holder's MLC copy: that of the lowest core id in ``holders``."""
        line = self.mlcs[(holders & -holders).bit_length() - 1].peek(addr)
        if line is not None:
            line.dirty = True

    def _invalidate_peers(self, now: float, addr: int, silent: bool = False) -> None:
        """Invalidate every MLC copy of ``addr`` and stop tracking it.

        ``silent`` suppresses the write-back of dirty copies (used for DMA
        writes that overwrite the data anyway).
        """
        holders = self._sf_sets[addr % self._sf_nsets].pop(addr, 0)
        for core in holder_cores(holders):
            dropped = self.mlcs[core].invalidate(addr)
            if dropped is not None and dropped.dirty and not silent:
                self.memory.write(now, 1, dropped.stream)

    def _back_invalidate(self, now: float, addr: int, holders: int) -> None:
        """An extended-directory eviction forces MLC copies out."""
        for core in holder_cores(holders):
            dropped = self.mlcs[core].invalidate(addr)
            if dropped is not None:
                self._stream(dropped.stream).back_invalidations += 1
                if dropped.dirty:
                    self.memory.write(now, 1, dropped.stream)
