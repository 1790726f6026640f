"""Tests for the IIO LLC WAYS register and runtime DDIO-way control."""

import pytest

from repro.experiments.harness import Server
from repro.platform import SKYLAKE_SP
from repro.uncore.msr import IIO_LLC_WAYS, MsrFile, mask_to_ways, ways_to_mask
from repro.workloads.xmem import xmem


def test_mask_conversions():
    assert ways_to_mask((0, 1)) == 0b11
    assert ways_to_mask((2, 5)) == 0b100100
    assert mask_to_ways(0b1010) == (1, 3)


def test_default_register_value():
    server = Server(cores=2)
    assert server.msr.rdmsr(IIO_LLC_WAYS) == ways_to_mask(SKYLAKE_SP.dca_ways)


def test_wrmsr_reprograms_ddio_ways():
    server = Server(cores=2)
    server.msr.wrmsr(IIO_LLC_WAYS, 0b1111)
    assert server.hierarchy.llc.dca_ways == (0, 1, 2, 3)
    assert server.msr.rdmsr(IIO_LLC_WAYS) == 0b1111


def test_dma_allocations_follow_new_mask():
    server = Server(cores=2)
    server.msr.wrmsr(IIO_LLC_WAYS, 0b111100)  # ways 2-5
    for addr in range(16):
        server.hierarchy.dma_write(0.0, 5000 + addr, "nic", allocating=True)
    ways = {
        line.way
        for line in server.hierarchy.llc.resident()
        if line.stream == "nic"
    }
    assert ways <= {2, 3, 4, 5}


def test_invalid_writes_rejected():
    server = Server(cores=2)
    with pytest.raises(ValueError):
        server.msr.wrmsr(IIO_LLC_WAYS, 0)  # empty mask
    with pytest.raises(ValueError):
        server.msr.wrmsr(IIO_LLC_WAYS, 1 << 11)  # outside the 11 ways
    with pytest.raises(ValueError):
        server.msr.wrmsr(0x123, 1)
    with pytest.raises(ValueError):
        server.msr.rdmsr(0x123)


def test_wider_ddio_reduces_latent_contention_pressure():
    """Widening DDIO at a fixed ring footprint spreads I/O lines over more
    ways, so a bystander pinned to the old DCA ways suffers less."""

    def run(mask):
        server = Server(cores=8)
        from repro.workloads.dpdk import DpdkWorkload

        server.add_workload(
            DpdkWorkload(name="net", touch=False, cores=4, packet_bytes=1024)
        )
        server.add_workload(xmem("bystander", 4.0, cores=2))
        server.msr.wrmsr(IIO_LLC_WAYS, mask)
        server.cat.set_mask(server.clos_of("bystander"), range(0, 2))
        result = server.run(epochs=5, warmup=1)
        return result.aggregate("bystander").llc_miss_rate

    narrow = run(0b11)         # ways 0-1 only
    wide = run(0b111111)       # ways 0-5
    assert wide < narrow


def test_msrfile_direct():
    server = Server(cores=2)
    msr = MsrFile(server.hierarchy.llc)
    msr.wrmsr(IIO_LLC_WAYS, 0b11)
    assert msr.rdmsr(IIO_LLC_WAYS) == 0b11
