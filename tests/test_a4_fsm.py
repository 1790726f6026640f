"""Direct unit tests of the A4 state machine, driven by hand-crafted
epoch samples against a fake server (no simulation)."""

from dataclasses import dataclass, field
from typing import Optional

from repro.core.a4 import (
    A4Manager,
    PHASE_BASELINE,
    PHASE_EXPANDING,
    PHASE_REVERTING,
    PHASE_STABLE,
)
from repro.core.policy import A4Policy
from repro.rdt.cat import CacheAllocation
from repro.telemetry.counters import StreamCounters
from repro.telemetry.latency import LatencyStats
from repro.telemetry.pcm import EpochSample, StreamInfo, StreamSample
from repro.uncore.pcie import PcieComplex
from repro.telemetry.counters import CounterBank


@dataclass
class FakeWorkload:
    name: str
    kind: str = "non-io"
    priority: str = "HPW"
    port_id: Optional[int] = None
    num_cores: int = 1
    cores: tuple = (0,)


class FakeServer:
    def __init__(self, workloads):
        self.workloads = workloads
        self.cat = CacheAllocation()
        self.pcie = PcieComplex(CounterBank())
        self._clos = {}
        for i, w in enumerate(workloads):
            self._clos[w.name] = i + 1
            if w.port_id is not None:
                self.pcie.add_port(w.port_id, w.name)

    def clos_of(self, name):
        return self._clos[name]

    def workload(self, name):
        for w in self.workloads:
            if w.name == name:
                return w
        raise KeyError(name)


def make_sample(index, hits, extra_counters=None, kinds=None):
    """Build an EpochSample with given per-stream LLC hit rates."""
    streams = {}
    for name, hit_rate in hits.items():
        counters = StreamCounters(
            llc_hits=round(hit_rate * 1000),
            llc_misses=round((1 - hit_rate) * 1000),
        )
        if extra_counters and name in extra_counters:
            for key, value in extra_counters[name].items():
                setattr(counters, key, value)
        streams[name] = StreamSample(
            name=name,
            info=StreamInfo(name, kind=(kinds or {}).get(name, "non-io")),
            counters=counters,
            latency=LatencyStats(),
            epoch_cycles=1000.0,
        )
    return EpochSample(
        index=index,
        time=float(index) * 1000,
        epoch_cycles=1000.0,
        streams=streams,
        mem_read_lines=100,
        mem_write_lines=100,
    )


def attach(workloads, policy=None):
    manager = A4Manager(policy or A4Policy())
    manager.attach(FakeServer(workloads))
    return manager


def test_baseline_records_and_moves_to_expanding():
    manager = attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    assert manager.phase == PHASE_BASELINE
    manager.on_epoch(make_sample(0, {"hp": 0.9, "lp": 0.5}))
    assert manager.phase == PHASE_EXPANDING
    assert manager.baseline_hits["hp"] == 0.9
    assert "lp" not in manager.baseline_hits


def test_expansion_every_other_epoch_until_leftmost():
    manager = attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    manager.on_epoch(make_sample(0, {"hp": 0.9, "lp": 0.5}))  # baseline
    initial_left = manager.layout.lp_left
    for i in range(1, 20):
        manager.on_epoch(make_sample(i, {"hp": 0.9, "lp": 0.5}))
        if manager.phase != PHASE_EXPANDING:
            break
    assert manager.layout.lp_left == manager.layout.min_lp_left < initial_left
    assert manager.phase == PHASE_STABLE
    # One decision per expansion, then the settling and why it happened.
    expansions = initial_left - manager.layout.min_lp_left
    actions = [d.action for d in manager.decisions]
    assert actions == ["reallocate"] + ["expand"] * expansions + ["stable"]
    stable = manager.decisions[-1]
    assert stable.reason.startswith("leftmost LP extent reached")
    assert stable.inputs == {"lp_span": list(manager.layout.lp_span())}


def test_expansion_rolls_back_on_t1_violation():
    manager = attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    manager.on_epoch(make_sample(0, {"hp": 0.9, "lp": 0.5}))
    manager.on_epoch(make_sample(1, {"hp": 0.9, "lp": 0.5}))
    manager.on_epoch(make_sample(2, {"hp": 0.9, "lp": 0.5}))  # expands
    expanded_left = manager.layout.lp_left
    # The expansion hurt the HPW: hit rate collapses beyond T1.
    manager.on_epoch(make_sample(3, {"hp": 0.5, "lp": 0.5}))
    manager.on_epoch(make_sample(4, {"hp": 0.5, "lp": 0.5}))
    assert manager.phase == PHASE_STABLE
    assert manager.layout.lp_left == expanded_left + 1  # rolled back one
    # The expansion and the settling are decisions; the settling carries
    # the T1 evidence that stopped expansion.
    _, expand, stable = manager.decisions
    assert (expand.epoch, expand.action) == (2, "expand")
    first, last = expand.inputs["lp_span"]
    assert first == expanded_left and f"way[{first}:{last}]" in expand.reason
    assert (stable.epoch, stable.action) == (4, "stable")
    assert "T1" in stable.reason
    assert stable.inputs == {
        "lp_span": [expanded_left + 1, last],
        "crossed": {"hp": {"baseline_hit_rate": 0.9, "hit_rate": 0.5}},
        "hpw_llc_hit_thr": manager.policy.hpw_llc_hit_thr,
    }


def test_revert_cycle_and_return_to_stable():
    policy = A4Policy(stable_interval=3)
    manager = attach(
        [FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")], policy
    )
    i = 0
    manager.on_epoch(make_sample(i, {"hp": 0.9, "lp": 0.5}))
    while manager.phase == PHASE_EXPANDING:
        i += 1
        manager.on_epoch(make_sample(i, {"hp": 0.9, "lp": 0.5}))
    stable_left = manager.layout.lp_left
    while manager.phase == PHASE_STABLE:
        i += 1
        manager.on_epoch(make_sample(i, {"hp": 0.9, "lp": 0.5}))
    assert manager.phase == PHASE_REVERTING
    assert manager.layout.lp_left == manager.layout.initial_lp_left
    # The revert epoch shows nothing better: back to the stable span.
    i += 1
    manager.on_epoch(make_sample(i, {"hp": 0.9, "lp": 0.5}))
    assert manager.phase == PHASE_STABLE
    assert manager.layout.lp_left == stable_left
    assert manager.reverts == 1


def test_revert_finds_uncapturable_phase_change():
    policy = A4Policy(stable_interval=2)
    manager = attach(
        [FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")], policy
    )
    i = 0
    manager.on_epoch(make_sample(i, {"hp": 0.5, "lp": 0.5}))
    while manager.phase == PHASE_EXPANDING:
        i += 1
        manager.on_epoch(make_sample(i, {"hp": 0.5, "lp": 0.5}))
    while manager.phase == PHASE_STABLE:
        i += 1
        manager.on_epoch(make_sample(i, {"hp": 0.5, "lp": 0.5}))
    assert manager.phase == PHASE_REVERTING
    reallocs = manager.reallocations
    # Under the initial partitions the HPW could do far better.
    i += 1
    manager.on_epoch(make_sample(i, {"hp": 0.9, "lp": 0.5}))
    assert manager.reallocations == reallocs + 1
    assert manager.phase == PHASE_BASELINE


def test_storage_detection_flips_port_and_demotes():
    storage = FakeWorkload("ssd", kind="storage-io", priority="HPW", port_id=0)
    manager = attach([FakeWorkload("hp"), storage])
    manager.on_epoch(make_sample(0, {"hp": 0.9, "ssd": 0.1}))  # baseline
    leaky = {
        "ssd": dict(
            io_reads=1000, io_read_misses=900, dma_writes=1000,
            io_bytes_completed=64000,
        )
    }
    manager.on_epoch(
        make_sample(
            1, {"hp": 0.9, "ssd": 0.1}, leaky, kinds={"ssd": "storage-io"}
        )
    )
    assert "ssd" in manager.antagonists
    assert not manager.server.pcie.port(0).dca_enabled
    assert "ssd" in manager.demoted
    assert manager.phase == PHASE_BASELINE  # reallocation restarted


def test_bypass_squeeze_progresses_per_epoch():
    policy = A4Policy()
    antagonist = FakeWorkload("bw", priority="LPW")
    manager = attach([FakeWorkload("hp"), antagonist], policy)
    bad = {"bw": dict(mlc_hits=5, mlc_misses=995)}

    def sample(i):
        return make_sample(i, {"hp": 0.9, "bw": 0.02}, bad)

    manager.on_epoch(sample(0))  # baseline
    manager.on_epoch(sample(1))  # detection -> reallocation
    assert "bw" in manager.antagonists
    manager.on_epoch(sample(2))  # baseline again
    left_before = manager.antagonists["bw"].span_left
    manager.on_epoch(sample(3))
    manager.on_epoch(sample(4))
    state = manager.antagonists["bw"]
    assert state.span_left >= left_before
    assert state.span_left <= policy.trash_way


# -- adversarial samples at the FSM's edges ---------------------------------


def test_zero_cycle_epoch_is_skipped_without_state_change():
    manager = attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    sample = make_sample(0, {"hp": 0.9, "lp": 0.5})
    object.__setattr__(sample, "epoch_cycles", 0.0)
    manager.on_epoch(sample)
    assert manager.phase == PHASE_BASELINE
    assert manager.baseline_hits == {}
    assert manager.sanitizer.skipped_epochs == 1
    # The next clean epoch proceeds as if the glitch never happened.
    manager.on_epoch(make_sample(1, {"hp": 0.9, "lp": 0.5}))
    assert manager.phase == PHASE_EXPANDING
    assert manager.baseline_hits["hp"] == 0.9


def test_all_streams_idle_records_no_baseline():
    manager = attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    idle = {
        "hp": dict(llc_hits=0, llc_misses=0),
        "lp": dict(llc_hits=0, llc_misses=0),
    }
    for i in range(12):
        manager.on_epoch(make_sample(i, {"hp": 0.0, "lp": 0.0}, idle))
    # An idle reading is *valid* (not a fault): the sanitizer passes it
    # through untouched and the FSM sees a flat 0.0 hit rate — no
    # divide-by-zero, no spurious degradation, no reallocation churn.
    assert manager.sanitizer.stats() == {
        "held_over": 0, "zeroed": 0, "skipped_epochs": 0,
    }
    assert manager.baseline_hits.get("hp") == 0.0
    # The expand/revert cycle may complete once, but a flat signal must
    # not produce churn or trip the watchdog.
    assert manager.reallocations <= 1
    assert not manager.watchdog.degraded


def test_missing_stream_held_over_from_last_good_reading():
    manager = attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    manager.on_epoch(make_sample(0, {"hp": 0.9, "lp": 0.5}))
    phase = manager.phase
    manager.on_epoch(make_sample(1, {"lp": 0.5}))  # "hp" vanished
    assert manager.sanitizer.held_over >= 1
    assert manager.phase in (phase, PHASE_EXPANDING, PHASE_STABLE)
    assert manager.baseline_hits["hp"] == 0.9  # baseline survives the gap


def test_corrupted_stream_does_not_perturb_baseline():
    manager = attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    manager.on_epoch(make_sample(0, {"hp": 0.9, "lp": 0.5}))
    baseline = dict(manager.baseline_hits)
    garbage = {"hp": dict(llc_hits=-500, llc_misses=-1)}
    for i in range(1, 5):
        manager.on_epoch(make_sample(i, {"hp": 0.9, "lp": 0.5}, garbage))
    assert manager.baseline_hits["hp"] == baseline["hp"]
    assert manager.sanitizer.held_over >= 4


def test_missing_stream_with_no_history_is_tolerated():
    manager = attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    # First-ever epoch is already missing a stream: nothing to hold over,
    # the FSM must simply proceed on what it has.
    manager.on_epoch(make_sample(0, {"lp": 0.5}))
    assert manager.sanitizer.held_over == 1
    assert "hp" not in manager.baseline_hits
