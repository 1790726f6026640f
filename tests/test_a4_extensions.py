"""Tests for the §1 extension: network DMA-bloat trash-way treatment."""

from repro.core.a4 import A4Manager
from repro.core.policy import A4Policy
from repro.experiments.harness import Server
from repro.workloads.dpdk import DpdkWorkload
from repro.workloads.xmem import xmem


def make_server(policy):
    server = Server(cores=8)
    server.add_workload(
        DpdkWorkload(
            name="net", touch=True, cores=4, packet_bytes=1024, priority="HPW"
        )
    )
    server.add_workload(xmem("hp", 1.0, cores=1, priority="HPW"))
    manager = A4Manager(policy)
    server.set_manager(manager)
    return server, manager


def test_extension_off_by_default():
    server, manager = make_server(A4Policy())
    server.run(epochs=8, warmup=2)
    assert manager.bloat_treated == set()


def test_extension_detects_bloating_network_workload():
    server, manager = make_server(A4Policy(network_bloat_bypass=True))
    server.run(epochs=10, warmup=2)
    # DPDK-T with a ring larger than the inclusive ways bloats steadily.
    assert "net" in manager.bloat_treated
    mask = manager.ways_of("net")
    assert mask == (manager.policy.trash_way,)
    (treat,) = [d for d in manager.decisions if d.action == "bloat_treat"]
    assert treat.inputs["workload"] == "net"
    assert treat.inputs["bloat_rate"] > treat.inputs["net_bloat_thr"]


def test_treated_workload_keeps_consuming_from_dca():
    """The CAT mask redirects only MLC evictions; packets still arrive in
    the DCA ways and latency stays low."""
    server, manager = make_server(A4Policy(network_bloat_bypass=True))
    result = server.run(epochs=12, warmup=4)
    net = result.aggregate("net")
    assert "net" in manager.bloat_treated
    assert net.dca_miss_rate < 0.2
    # Far below the tens-of-thousands-of-cycles saturation regime.
    assert net.avg_latency < 5000


def test_bloat_lines_confined_to_trash_way():
    server, manager = make_server(A4Policy(network_bloat_bypass=True))
    server.run(epochs=12, warmup=4)
    trash = manager.policy.trash_way
    inclusive = set(server.hierarchy.llc.cfg.inclusive_ways)
    dca = set(server.hierarchy.llc.cfg.dca_ways)
    for line in server.hierarchy.llc.resident():
        if line.stream == "net" and line.consumed:
            # consumed (bloated or migrated) lines: trash way or inclusive
            assert line.way == trash or line.way in inclusive
        elif line.stream == "net":
            assert line.way in dca | inclusive | {trash}
