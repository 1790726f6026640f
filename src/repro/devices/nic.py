"""NIC model: DMA-writes arriving packets into per-core Rx rings.

The NIC runs as one simulation process.  Arriving packets are sprayed
round-robin (RSS-style) across its rings; each packet is a burst of
DMA writes through the IIO agent, so whether the lines land in the DCA
ways or memory is decided by the NIC's PCIe port register — exactly the
knob A4 manipulates.  A full ring drops the packet.
"""

from __future__ import annotations

from typing import List

from repro.devices.packetgen import PacketGenerator
from repro.devices.ring import RxRing
from repro.sim.engine import Simulator
from repro.telemetry.counters import CounterBank
from repro.uncore.iio import IIOAgent
from repro.uncore.pcie import PciePort


class NicConfig:
    """Geometry of one NIC's receive side."""

    def __init__(self, ring_entries: int = 16, slot_lines: int = 24):
        if ring_entries <= 0 or slot_lines <= 0:
            raise ValueError("NIC geometry must be positive")
        self.ring_entries = ring_entries
        self.slot_lines = slot_lines
        """Buffer lines reserved per descriptor (max packet = 1514 B = 24)."""


class Nic:
    """A receive-side NIC with one ring per consumer core."""

    __slots__ = (
        "name",
        "stream",
        "port",
        "iio",
        "generator",
        "rings",
        "counters",
        "_next_ring",
        "packets_delivered",
        "packets_dropped",
    )

    def __init__(
        self,
        name: str,
        stream: str,
        port: PciePort,
        iio: IIOAgent,
        generator: PacketGenerator,
        rings: List[RxRing],
        counters: CounterBank,
    ):
        self.name = name
        self.stream = stream
        self.port = port
        self.iio = iio
        self.generator = generator
        self.rings = rings
        self.counters = counters
        self._next_ring = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    def start(self, sim: Simulator) -> None:
        sim.spawn_restartable(f"{self.name}-rx", self, "_rx_body", sim)

    def _rx_body(self, sim: Simulator):
        # Restartable as written: the single yield ends the loop body and
        # all state lives on ``self`` / the generator's RNG; the inputs are
        # bound once per generator start.
        counters = self.counters.stream(self.stream)
        next_packet_lines = self.generator.next_packet_lines
        next_gap = self.generator.next_gap
        inbound_write_burst = self.iio.inbound_write_burst
        port = self.port
        stream = self.stream
        rings = self.rings
        nrings = len(rings)
        while True:
            lines = next_packet_lines()
            index = self._next_ring
            ring = rings[index]
            index += 1
            self._next_ring = index if index < nrings else 0
            entry = ring.push(lines, sim.now)
            if entry is None:
                self.packets_dropped += 1
                counters.packets_dropped += 1
            else:
                self.packets_delivered += 1
                inbound_write_burst(
                    sim.now, port, entry.buffer_addr, lines, stream
                )
            yield next_gap()
