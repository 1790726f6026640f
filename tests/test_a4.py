"""Tests for the A4 controller's state machine and treatments."""

import pytest

from repro.core.a4 import (
    A4Manager,
    PHASE_BASELINE,
    PHASE_EXPANDING,
    PHASE_REVERTING,
    PHASE_STABLE,
)
from repro.core.policy import A4Policy
from repro.experiments.harness import Server
from repro.workloads.dpdk import DpdkWorkload
from repro.workloads.fio import FioWorkload
from repro.workloads.spec import spec_workload
from repro.workloads.xmem import xmem

MB = 1024 * 1024


def make_server(workloads, policy=None):
    server = Server(cores=sum(w.num_cores for w in workloads) + 2)
    for w in workloads:
        server.add_workload(w)
    manager = A4Manager(policy or A4Policy())
    server.set_manager(manager)
    return server, manager


def test_attach_applies_initial_partitions_with_io_hpw():
    server, manager = make_server(
        [
            DpdkWorkload(name="net", cores=2, priority="HPW"),
            xmem("cpuhp", 2.0, cores=1, priority="HPW"),
            xmem("lp", 2.0, cores=1, priority="LPW"),
        ]
    )
    assert manager.phase == PHASE_BASELINE
    assert manager.ways_of("net") == tuple(range(0, 11))
    assert manager.ways_of("cpuhp") == tuple(range(2, 11))  # no DCA zone
    assert manager.ways_of("lp") == (7, 8)  # initial LP, shunning inclusive


def test_attach_without_io_uses_full_range():
    server, manager = make_server(
        [
            xmem("hp", 2.0, cores=1, priority="HPW"),
            xmem("lp", 2.0, cores=1, priority="LPW"),
        ]
    )
    assert manager.ways_of("hp") == tuple(range(0, 11))
    assert manager.ways_of("lp") == (9, 10)


def test_lp_zone_expands_when_hpws_unharmed():
    server, manager = make_server(
        [
            xmem("hp", 1.0, cores=1, priority="HPW"),
            xmem("lp", 4.0, cores=1, priority="LPW"),
        ]
    )
    server.run(epochs=14, warmup=2)
    assert manager.phase in (PHASE_STABLE, PHASE_EXPANDING, PHASE_REVERTING)
    # The tiny HPW never degrades, so LP Zone expands fully leftward.
    assert manager.layout.lp_span()[0] <= 3


def test_storage_antagonist_gets_dca_disabled_and_demoted():
    server, manager = make_server(
        [
            DpdkWorkload(name="net", cores=2, priority="HPW"),
            FioWorkload(name="fio", block_bytes=2 * MB, cores=2, priority="HPW"),
        ]
    )
    server.run(epochs=10, warmup=2)
    assert "fio" in manager.antagonists
    assert manager.antagonists["fio"].kind == "storage"
    fio = server.workload("fio")
    assert not server.pcie.port(fio.port_id).dca_enabled
    assert "fio" in manager.demoted  # HPW -> treated as LPW (§5.4)


def test_cpu_antagonist_squeezed_to_trash_way():
    server, manager = make_server(
        [
            xmem("hp", 1.0, cores=1, priority="HPW"),
            spec_workload("bwaves", "LPW"),
        ]
    )
    server.run(epochs=16, warmup=2)
    assert "bwaves" in manager.antagonists
    state = manager.antagonists["bwaves"]
    assert state.kind == "cpu"
    span = manager.ways_of("bwaves")
    assert span[-1] == manager.policy.trash_way
    assert len(span) <= 3  # squeezed well below the LP zone


def test_selective_dca_disable_flag_off_leaves_storage_alone():
    policy = A4Policy(selective_dca_disable=False, pseudo_llc_bypass=False)
    server, manager = make_server(
        [
            DpdkWorkload(name="net", cores=2, priority="HPW"),
            FioWorkload(name="fio", block_bytes=2 * MB, cores=2, priority="LPW"),
        ],
        policy=policy,
    )
    server.run(epochs=10, warmup=2)
    assert manager.antagonists == {}
    fio = server.workload("fio")
    assert server.pcie.port(fio.port_id).dca_enabled


def test_pseudo_bypass_flag_off_keeps_antagonist_in_lp_zone():
    policy = A4Policy(pseudo_llc_bypass=False)
    server, manager = make_server(
        [
            DpdkWorkload(name="net", cores=2, priority="HPW"),
            FioWorkload(name="fio", block_bytes=2 * MB, cores=2, priority="LPW"),
        ],
        policy=policy,
    )
    server.run(epochs=12, warmup=2)
    if "fio" in manager.antagonists:  # detection is on in A4-c
        assert manager.ways_of("fio") == tuple(
            range(manager.layout.lp_span()[0], manager.layout.lp_span()[1] + 1)
        )


def test_periodic_revert_happens_in_stable_state():
    server, manager = make_server(
        [
            xmem("hp", 1.0, cores=1, priority="HPW"),
            xmem("lp", 1.0, cores=1, priority="LPW"),
        ],
        policy=A4Policy(stable_interval=3),
    )
    server.run(epochs=20, warmup=2)
    assert manager.reverts >= 1
    # After reverting it returns to the stable span rather than sticking
    # at the initial partitions.
    assert manager.phase in (PHASE_STABLE, PHASE_REVERTING, PHASE_EXPANDING)


def test_oracle_policy_never_reverts():
    server, manager = make_server(
        [
            xmem("hp", 1.0, cores=1, priority="HPW"),
            xmem("lp", 1.0, cores=1, priority="LPW"),
        ],
        policy=A4Policy(stable_interval=10**9),
    )
    server.run(epochs=16, warmup=2)
    assert manager.reverts == 0


def test_events_log_is_populated():
    server, manager = make_server(
        [
            DpdkWorkload(name="net", cores=2, priority="HPW"),
            FioWorkload(name="fio", block_bytes=2 * MB, cores=2, priority="LPW"),
        ]
    )
    server.run(epochs=8, warmup=2)
    assert any(d.action == "reallocate" for d in manager.decisions)


def test_policy_flags_reachable_via_variants():
    from repro.core.variants import a4_variant

    assert not a4_variant("a").policy.safeguard_io_buffers
    assert a4_variant("b").policy.safeguard_io_buffers
    assert not a4_variant("b").policy.selective_dca_disable
    assert a4_variant("c").policy.selective_dca_disable
    assert not a4_variant("c").policy.pseudo_llc_bypass
    assert a4_variant("d").policy.pseudo_llc_bypass
    with pytest.raises(ValueError):
        a4_variant("e")
