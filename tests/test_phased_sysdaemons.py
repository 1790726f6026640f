"""Tests for phased workloads and the KSM/zswap daemons, including A4's
phase-change restoration reacting to them."""

import pytest

from repro.core.a4 import A4Manager
from repro.core.policy import A4Policy
from repro.experiments.harness import Server
from repro.platform import SKYLAKE_SP
from repro.workloads.phased import PhasedWorkload
from repro.workloads.synthetic import AccessProfile
from repro.workloads.sysdaemons import ksm, zswap
from repro.workloads.xmem import xmem


def test_phase_validation():
    profile = AccessProfile(working_set_lines=100)
    with pytest.raises(ValueError):
        PhasedWorkload("p", profile, "LPW", active_cycles=0, idle_cycles=10)


@pytest.mark.parametrize(
    "profile",
    [
        AccessProfile(working_set_lines=100, pattern="stride"),
        AccessProfile(working_set_lines=100, repeats=4),
    ],
    ids=["stride", "repeats"],
)
def test_profile_the_phase_loop_cannot_run_is_refused(profile):
    """The phase loop has no stride walk and no per-line reuse, so a
    profile asking for either must fail loudly rather than run as
    something else."""
    with pytest.raises(ValueError, match="phased workloads"):
        PhasedWorkload("p", profile, "LPW", active_cycles=10, idle_cycles=10)


def test_phased_workload_is_idle_between_bursts():
    server = Server(cores=2)
    profile = AccessProfile(working_set_lines=1000)
    workload = PhasedWorkload(
        "burst", profile, "LPW",
        active_cycles=SKYLAKE_SP.epoch_cycles,
        idle_cycles=2 * SKYLAKE_SP.epoch_cycles,
    )
    server.add_workload(workload)
    result = server.run(epochs=6, warmup=0)
    activity = [
        s.streams["burst"].counters.mlc_hits
        + s.streams["burst"].counters.mlc_misses
        for s in result.samples
    ]
    assert max(activity) > 0
    assert min(activity) == 0  # at least one fully idle epoch


def test_ksm_and_zswap_have_antagonist_signatures():
    server = Server(cores=3)
    server.add_workload(ksm())
    server.add_workload(zswap())
    result = server.run(epochs=4, warmup=1)
    for name in ("ksm", "zswap"):
        agg = result.aggregate(name)
        assert agg.mlc_miss_rate > 0.9
        assert agg.llc_miss_rate > 0.9


def test_phased_factories():
    phased = ksm(phased=True)
    assert isinstance(phased, PhasedWorkload)
    steady = zswap(phased=False)
    assert not isinstance(steady, PhasedWorkload)


def test_a4_detects_and_restores_phased_antagonist():
    server = Server(cores=4)
    server.add_workload(xmem("hp", 1.0, cores=1, priority="HPW"))
    daemon = ksm(
        phased=True,
        active_cycles=6 * SKYLAKE_SP.epoch_cycles,
        idle_cycles=30 * SKYLAKE_SP.epoch_cycles,
    )
    server.add_workload(daemon)
    manager = A4Manager(A4Policy())
    server.set_manager(manager)
    server.run(epochs=20, warmup=2)
    ksm_actions = [
        d.action
        for d in manager.decisions
        if d.inputs.get("workload") == "ksm"
    ]
    # Detected during the scan burst, then restored once the burst ended
    # (idle phase).
    assert ksm_actions[:2] == ["detect_cpu", "restore"]
    assert "ksm" not in manager.antagonists
