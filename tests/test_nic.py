"""Tests for the NIC device model."""

from repro.devices.nic import Nic, NicConfig
from repro.devices.packetgen import PacketGenConfig, PacketGenerator
from repro.devices.ring import RxRing
from repro.platform import SKYLAKE_SP
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.telemetry.counters import CounterBank
from repro.uncore.iio import IIOAgent
from repro.uncore.pcie import PcieComplex


def make_nic(hierarchy, bank, rings=2, entries=4, rate=0.1, jitter=0.0):
    iio = IIOAgent(hierarchy)
    port = PcieComplex(bank).add_port(0, "nic")
    generator = PacketGenerator(
        PacketGenConfig(packet_bytes=256, line_rate_lines_per_cycle=rate, jitter=jitter),
        DeterministicRng(3).stream("pkt"),
    )
    ring_list = [
        RxRing(base_addr=10_000 + i * 1000, entries=entries, slot_lines=8)
        for i in range(rings)
    ]
    nic = Nic("nic0", "nic", port, iio, generator, ring_list, bank)
    return nic, port, ring_list


def test_nic_sprays_round_robin(hierarchy, bank):
    sim = Simulator()
    nic, port, rings = make_nic(hierarchy, bank)
    nic.start(sim)
    sim.run_until(200.0)
    assert len(rings[0]) > 0 and len(rings[1]) > 0
    assert abs(len(rings[0]) - len(rings[1])) <= 1


def test_nic_dma_writes_into_dca(hierarchy, bank):
    sim = Simulator()
    nic, port, rings = make_nic(hierarchy, bank, rings=1)
    nic.start(sim)
    sim.run_until(100.0)
    entry = rings[0].peek()
    assert entry is not None
    line = hierarchy.llc.lookup(entry.buffer_addr, touch=False)
    assert line is not None and line.way in SKYLAKE_SP.dca_ways


def test_full_rings_drop_packets(hierarchy, bank):
    sim = Simulator()
    nic, port, rings = make_nic(hierarchy, bank, rings=1, entries=2)
    nic.start(sim)
    sim.run_until(2000.0)  # nobody consumes
    assert rings[0].full
    assert nic.packets_dropped > 0
    assert bank.stream("nic").packets_dropped == nic.packets_dropped


def test_port_accounting(hierarchy, bank):
    sim = Simulator()
    nic, port, rings = make_nic(hierarchy, bank, rings=1, entries=8)
    nic.start(sim)
    sim.run_until(500.0)
    delivered_lines = nic.packets_delivered * 4  # 256B packets = 4 lines
    assert port.inbound_write_lines == delivered_lines


def test_nic_config_validation():
    try:
        NicConfig(ring_entries=0)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")
