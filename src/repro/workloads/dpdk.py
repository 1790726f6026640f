"""DPDK-style kernel-bypass network workloads (paper §3.1).

Two flavours:

* **DPDK-T** (``touch=True``) — polls its Rx ring, reads every payload line
  (deep-packet-inspection style), then drops the packet.  Consuming payload
  lines is what triggers migration into the inclusive ways (O1) and, via MLC
  evictions, DMA bloat.
* **DPDK-NT** (``touch=False``) — reads only the descriptor line and drops
  the packet (classification/ACL style), so payloads never enter MLCs and
  neither migration nor bloat occurs — the paper's control experiment.

Each consumer core owns one ring.  The NIC itself is created here and
attached to a dedicated PCIe port, so per-device DCA control applies.
Packet latency is decomposed (Fig. 14a) into ring queueing, descriptor
(pointer) access, and payload processing.
"""

from __future__ import annotations

from typing import List, Optional

from repro.devices.nic import Nic, NicConfig
from repro.devices.packetgen import PacketGenConfig, PacketGenerator
from repro.devices.ring import RxRing
from repro.telemetry.pcm import KIND_NETWORK, PRIORITY_HIGH
from repro.workloads.base import METRIC_LATENCY, Workload

POLL_GAP_CYCLES = 30.0
"""Idle-poll back-off of the run-to-completion loop."""


class _ConsumerState:
    """Loop-carried state of one consumer core (checkpointable).

    ``pc`` is the dispatch arm the loop is in: 0 = poll/descriptor,
    1 = payload scan, 2 = header rewrite, 3 = egress + retire.  The entry
    under service is not stored — it is always ``ring.peek()`` until the
    retire arm pops it."""

    __slots__ = ("pc", "queueing", "access", "processing", "offset")

    def __init__(self) -> None:
        self.pc = 0
        self.queueing = 0.0
        self.access = 0.0
        self.processing = 0.0
        self.offset = 0


class DpdkWorkload(Workload):
    """A DPDK application: one NIC, one Rx ring + consumer loop per core."""

    kind = KIND_NETWORK
    performance_metric = METRIC_LATENCY

    def __init__(
        self,
        name: str = "dpdk-t",
        touch: bool = True,
        forward: bool = False,
        cores: int = 4,
        packet_bytes: int = 1024,
        ring_entries: int = 16,
        line_rate: Optional[float] = None,
        processing_cycles_per_line: float = 4.0,
        instructions_per_line: int = 10,
        payload_parallelism: float = 3.0,
        size_mix=None,
        priority: str = PRIORITY_HIGH,
        nic_cfg: Optional[NicConfig] = None,
        tenant=None,
    ):
        super().__init__(name, priority, cores, tenant=tenant)
        self.touch = touch
        if forward and not touch:
            raise ValueError("forwarding implies touching the packet")
        self.forward = forward
        """L2/L3-forwarding mode: after processing, the header is rewritten
        and the NIC DMA-reads the packet back out (the egress path of
        Fig. 2).  MLC-held lines get read-allocated into the inclusive ways
        by the egress read."""
        self.packet_bytes = packet_bytes
        self.size_mix = size_mix
        """Optional (bytes, weight) mixture, e.g.
        :data:`repro.devices.packetgen.IMIX_SIMPLE`."""
        self.ring_entries = ring_entries
        self.line_rate = line_rate
        """Ingress rate in lines/cycle; ``None`` defers to the server
        platform's NIC rate at :meth:`setup` time."""
        self.processing_cycles_per_line = processing_cycles_per_line
        self.instructions_per_line = instructions_per_line
        if payload_parallelism < 1.0:
            raise ValueError("payload_parallelism must be >= 1")
        self.payload_parallelism = payload_parallelism
        """Outstanding loads the payload scan overlaps (the descriptor read
        stays serial).  Keeps the consumer comfortably ahead of line rate
        when packets hit in the DCA ways, and right at the saturation edge
        when they leak to memory — the paper's latency sensitivity."""
        self.nic_cfg = nic_cfg or NicConfig(ring_entries=ring_entries)
        self.nic: Optional[Nic] = None
        self.rings: List[RxRing] = []

    def setup(self, server) -> None:
        self.cores = server.alloc_cores(self.num_cores)
        port = server.add_port(f"{self.name}-nic")
        self.port_id = port.port_id

        self.rings = []
        for _ in self.cores:
            base = server.alloc_region(self.ring_entries * self.nic_cfg.slot_lines)
            self.rings.append(
                RxRing(base, self.ring_entries, self.nic_cfg.slot_lines)
            )

        platform = server.platform
        line_rate = (
            self.line_rate
            if self.line_rate is not None
            else platform.nic_line_rate_lines_per_cycle
        )
        generator = PacketGenerator(
            PacketGenConfig(
                packet_bytes=self.packet_bytes,
                line_rate_lines_per_cycle=line_rate,
                line_bytes=platform.line_bytes,
                size_mix=self.size_mix,
            ),
            server.rng.stream(f"{self.name}-pktgen"),
        )
        self.nic = Nic(
            name=f"{self.name}-nic",
            stream=self.name,
            port=port,
            iio=server.iio,
            generator=generator,
            rings=self.rings,
            counters=server.counters,
        )
        self.nic.start(server.sim)

        for core, ring in zip(self.cores, self.rings):
            server.sim.spawn_restartable(
                f"{self.name}@{core}",
                self,
                "_consumer_body",
                server,
                core,
                ring,
                _ConsumerState(),
            )

    def time_shift(self, delta: float) -> None:
        # Queued packets carry absolute arrival times (the queueing-delay
        # component of Fig. 14a); shift them with the clock.
        for ring in self.rings:
            for entry in ring.entries:
                if entry.filled:
                    entry.arrival_time += delta

    def _consumer_body(self, server, core: int, ring: RxRing, st):
        # Restartable body: the straight-line packet pipeline is a ``pc``
        # machine — poll/descriptor (0), payload scan (1), header rewrite
        # (2), egress + retire (3) — whose state lives in ``st``, written
        # before every yield, so a rebuilt generator resumes mid-packet
        # exactly where the original left off.  Inside an arm the loop
        # runs on locals: it dispatches on ``pc`` only when (re)started,
        # keeps the entry under service (``ring.peek()`` until the retire
        # pops it) and the line position in locals, and falls through to
        # the next arm without yielding where the pipeline has no yield
        # (retire runs at the same ``now`` as the last payload line, then
        # polling continues immediately).
        sim = server.sim
        counters = server.counters.stream(self.name)
        record = server.pcm.tracker(self.name).record
        cpu_access = server.hierarchy.cpu_access
        outbound_read = server.iio.outbound_read
        port = self.nic.port
        peek = ring.peek
        pop = ring.pop
        name = self.name
        touch = self.touch
        forward = self.forward
        line_bytes = server.platform.line_bytes
        instructions_per_line = self.instructions_per_line
        processing_per_line = self.processing_cycles_per_line
        parallelism = self.payload_parallelism
        while True:
            pc = st.pc
            entry = peek()
            if pc == 0:
                if entry is None:
                    yield POLL_GAP_CYCLES
                    continue
                now = sim.now
                st.queueing = max(0.0, now - entry.arrival_time)
                # Descriptor / packet-pointer access.
                access = cpu_access(now, core, entry.buffer_addr, name, False, True)
                counters.instructions += instructions_per_line
                st.access = access
                st.processing = 0.0
                st.offset = 1
                st.pc = pc = 1
                yield access
            base = entry.buffer_addr
            lines = entry.packet_lines
            if pc == 1:
                offset = st.offset
                if touch and offset < lines:
                    access = st.access
                    processing = st.processing
                    while offset < lines:
                        line_latency = (
                            cpu_access(sim.now, core, base + offset, name, False, True)
                            / parallelism
                        )
                        access += line_latency
                        processing += processing_per_line
                        counters.instructions += instructions_per_line
                        offset += 1
                        st.access = access
                        st.processing = processing
                        st.offset = offset
                        yield line_latency + processing_per_line
                if forward:
                    # Rewrite the header (MAC/TTL), then the NIC pulls the
                    # packet back out through the egress path.
                    header_latency = cpu_access(sim.now, core, base, name, True)
                    counters.instructions += instructions_per_line
                    st.processing += header_latency
                    st.pc = 3
                    yield header_latency
            # pc == 3: egress (forwarding only) and retire.
            if forward:
                now = sim.now
                for addr in range(base, base + lines):
                    outbound_read(now, port, addr, name)
            pop()
            counters.io_bytes_completed += lines * line_bytes
            counters.io_requests_completed += 1
            queueing = st.queueing
            access = st.access
            processing = st.processing
            record(
                queueing + access + processing,
                components={
                    "queueing": queueing,
                    "access": access,
                    "processing": processing,
                },
            )
            st.pc = 0
