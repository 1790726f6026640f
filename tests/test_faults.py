"""Tests for the fault-injection subsystem and the controller hardening
it exercises: plans, the injector, wrapped control surfaces, sample
sanitization, apply retries, the oscillation watchdog, and a quick chaos
run end to end."""

from __future__ import annotations

import pytest

from repro.core.a4 import A4Manager, PHASE_DEGRADED
from repro.core.guard import (
    OscillationWatchdog,
    SampleSanitizer,
    stream_reading_valid,
)
from repro.core.policy import A4Policy
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultyCacheAllocation,
    check_masks,
)
from repro.rdt.cat import CacheAllocation, ClosConfigError, TransientClosError
from repro.sim.rng import DeterministicRng
from repro.uncore.pcie import TransientPortError

from tests.test_a4_fsm import FakeServer, FakeWorkload, make_sample


# -- plans ------------------------------------------------------------------


def test_plan_defaults_are_inert():
    plan = FaultPlan()
    assert not plan.enabled
    assert not plan.telemetry_faults
    assert not plan.device_faults
    assert plan.describe() == "inert"


def test_scaled_plan_multiplies_rates_and_clamps():
    plan = FaultPlan.scaled(0.5)
    assert plan.sample_corrupt_rate == pytest.approx(0.125)
    assert plan.enabled
    assert FaultPlan.scaled(0.0).enabled is False
    clamped = FaultPlan.scaled(100.0)
    assert clamped.cat_fail_rate == 1.0


def test_plan_validation_rejects_bad_rates():
    with pytest.raises(ValueError):
        FaultPlan(cat_fail_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan.scaled(-1)
    with pytest.raises(ValueError):
        FaultPlan(nic_storm_factor=0.5)


def test_from_env(monkeypatch):
    from repro.faults.plan import ENV_FAULT_INTENSITY

    monkeypatch.delenv(ENV_FAULT_INTENSITY, raising=False)
    assert FaultPlan.from_env() is None
    monkeypatch.setenv(ENV_FAULT_INTENSITY, "0")
    assert FaultPlan.from_env() is None
    monkeypatch.setenv(ENV_FAULT_INTENSITY, "0.5")
    plan = FaultPlan.from_env()
    assert plan is not None and plan.enabled


# -- telemetry injection ----------------------------------------------------


def _injector(**rates) -> FaultInjector:
    return FaultInjector(FaultPlan(**rates), DeterministicRng(7))


def test_filter_sample_clean_plan_returns_same_object():
    injector = _injector()
    sample = make_sample(0, {"a": 0.9})
    assert injector.filter_sample(sample) is sample


def test_filter_sample_drop_removes_stream_but_not_truth():
    injector = _injector(sample_drop_rate=1.0)
    sample = make_sample(0, {"a": 0.9, "b": 0.5})
    view = injector.filter_sample(sample)
    assert view.streams == {}
    assert set(sample.streams) == {"a", "b"}  # the true sample is untouched
    assert injector.counters.samples_dropped == 2


def test_filter_sample_stale_redelivers_previous_reading():
    injector = _injector(sample_stale_rate=1.0)
    first = make_sample(0, {"a": 0.9})
    injector.filter_sample(first)  # primes the held readings
    second = make_sample(1, {"a": 0.2})
    view = injector.filter_sample(second)
    assert view.streams["a"] is first.streams["a"]
    assert injector.counters.samples_stale == 1


def test_filter_sample_corruption_garbles_view_only():
    injector = _injector(sample_corrupt_rate=1.0)
    sample = make_sample(0, {"a": 0.9})
    view = injector.filter_sample(sample)
    assert view is not sample
    assert view.streams["a"].counters is not sample.streams["a"].counters
    assert injector.counters.samples_corrupted == 1


def test_zero_cycle_epoch_fault():
    injector = _injector(zero_cycle_rate=1.0)
    sample = make_sample(0, {"a": 0.9})
    view = injector.filter_sample(sample)
    assert view.epoch_cycles == 0.0
    assert sample.epoch_cycles > 0


def test_injection_is_deterministic_per_seed():
    plans = FaultPlan.scaled(1.0)
    a = FaultInjector(plans, DeterministicRng(11))
    b = FaultInjector(plans, DeterministicRng(11))
    for i in range(20):
        sample = make_sample(i, {"x": 0.9, "y": 0.4})
        va = a.filter_sample(sample)
        vb = b.filter_sample(sample)
        assert set(va.streams) == set(vb.streams)
    assert a.counters == b.counters


# -- CAT / DCA wrappers -----------------------------------------------------


def test_faulty_cat_transient_failure_keeps_committed_mask():
    cat = CacheAllocation()
    injector = _injector(cat_fail_rate=1.0)
    faulty = FaultyCacheAllocation(cat, injector)
    before = cat.mask(1)
    with pytest.raises(TransientClosError):
        faulty.set_mask(1, range(0, 4))
    assert cat.mask(1) == before
    assert check_masks(faulty) is None


def test_faulty_cat_invalid_mask_raises_plain_error():
    faulty = FaultyCacheAllocation(CacheAllocation(), _injector(cat_fail_rate=1.0))
    # A caller bug must surface as ClosConfigError (not the transient
    # subtype) and must never count as an injected fault.
    with pytest.raises(ClosConfigError) as excinfo:
        faulty.set_mask(1, [])
    assert not isinstance(excinfo.value, TransientClosError)
    assert faulty.injector.counters.cat_failures == 0


def test_faulty_cat_delayed_commit_matures_after_n_epochs():
    cat = CacheAllocation()
    injector = _injector(cat_delay_rate=1.0)
    faulty = FaultyCacheAllocation(cat, injector)
    before = cat.mask(1)
    faulty.set_mask(1, range(0, 4))
    assert cat.mask(1) == before  # accepted but not yet committed
    injector.advance_epoch()
    assert cat.mask(1) == before
    injector.advance_epoch()  # cat_delay_epochs = 2
    assert cat.mask(1) == tuple(range(0, 4))
    assert injector.counters.cat_delays == 1


def test_newer_write_supersedes_older_delayed_write():
    cat = CacheAllocation()
    injector = _injector(cat_delay_rate=1.0)
    faulty = FaultyCacheAllocation(cat, injector)
    faulty.set_mask(1, range(0, 4))
    faulty.set_mask(1, range(2, 6))  # supersedes the in-flight write
    injector.advance_epoch()
    injector.advance_epoch()
    assert cat.mask(1) == tuple(range(2, 6))


def test_dca_apply_failure_is_transient():
    from repro.telemetry.counters import CounterBank
    from repro.uncore.pcie import PcieComplex

    pcie = PcieComplex(CounterBank())
    pcie.add_port(0, "nic")
    injector = _injector(dca_fail_rate=1.0)
    from repro.faults import FaultyPcieView

    view = FaultyPcieView(pcie, injector)
    with pytest.raises(TransientPortError):
        view.port(0).disable_dca()
    assert pcie.port(0).dca_enabled  # committed state unchanged


def test_check_masks_flags_hand_broken_state():
    cat = CacheAllocation()
    assert check_masks(cat) is None
    cat._masks[2] = (0, 3)  # non-contiguous, bypassing validation
    assert "non-contiguous" in check_masks(cat)


# -- sanitizer --------------------------------------------------------------


def test_stream_reading_valid_rejects_garbage():
    good = make_sample(0, {"a": 0.9}).streams["a"]
    assert stream_reading_valid(good)
    bad = make_sample(0, {"a": 0.9}, {"a": dict(llc_hits=-5)}).streams["a"]
    assert not stream_reading_valid(bad)


def test_sanitizer_clean_sample_same_object():
    sanitizer = SampleSanitizer()
    sample = make_sample(0, {"a": 0.9})
    assert sanitizer.sanitize(sample, ["a"]) is sample
    assert sanitizer.stats() == {"held_over": 0, "zeroed": 0, "skipped_epochs": 0}


def test_sanitizer_holds_over_last_good_reading():
    sanitizer = SampleSanitizer()
    good = make_sample(0, {"a": 0.9})
    sanitizer.sanitize(good, ["a"])
    bad = make_sample(1, {"a": 0.9}, {"a": dict(llc_hits=-1)})
    view = sanitizer.sanitize(bad, ["a"])
    assert view.streams["a"] is good.streams["a"]
    assert sanitizer.held_over == 1


def test_sanitizer_neutralizes_invalid_reading_without_history():
    sanitizer = SampleSanitizer()
    bad = make_sample(0, {"a": 0.9}, {"a": dict(llc_misses=-1)})
    view = sanitizer.sanitize(bad, ["a"])
    assert view.streams["a"].counters.llc_hits == 0
    assert view.streams["a"].counters.llc_misses == 0
    assert sanitizer.zeroed == 1


def test_sanitizer_rejects_zero_cycle_epoch():
    sanitizer = SampleSanitizer()
    sample = make_sample(0, {"a": 0.9})
    object.__setattr__(sample, "epoch_cycles", 0.0)
    assert sanitizer.sanitize(sample, ["a"]) is None
    assert sanitizer.skipped_epochs == 1


def test_sanitizer_prune_and_forget():
    sanitizer = SampleSanitizer()
    sanitizer.sanitize(make_sample(0, {"a": 0.9, "b": 0.5}), ["a", "b"])
    sanitizer.prune(["a"])
    assert set(sanitizer._last_good) == {"a"}
    sanitizer.forget("a")
    assert not sanitizer._last_good


# -- watchdog ---------------------------------------------------------------


def test_watchdog_trips_at_threshold_within_window():
    dog = OscillationWatchdog(window=10, threshold=3, cooldown=4)
    dog.note_epoch()
    assert not dog.note_reallocation()
    dog.note_epoch()
    assert not dog.note_reallocation()
    dog.note_epoch()
    assert dog.note_reallocation()  # third inside the window: trips
    assert dog.degraded
    assert dog.degraded_entries == 1


def test_watchdog_window_slides():
    dog = OscillationWatchdog(window=3, threshold=2, cooldown=2)
    dog.note_epoch()
    dog.note_reallocation()
    for _ in range(5):  # the old reallocation ages out of the window
        dog.note_epoch()
    assert not dog.note_reallocation()
    assert not dog.degraded


def test_watchdog_cooldown_expires_and_resets():
    dog = OscillationWatchdog(window=10, threshold=2, cooldown=3)
    dog.note_reallocation()
    assert dog.note_reallocation()
    assert dog.note_reallocation()  # while degraded: still reports tripped
    expired = [dog.note_epoch() for _ in range(3)]
    assert expired == [False, False, True]
    assert not dog.degraded
    assert dog.degraded_epochs == 3
    dog.note_reallocation()
    dog.reset()
    assert not dog.degraded and not dog._history


# -- manager retry contract -------------------------------------------------


class FlakyCat:
    """CacheAllocation wrapper failing the first ``fail_times`` writes."""

    def __init__(self, fail_times: int):
        self.inner = CacheAllocation()
        self.fail_times = fail_times
        self.attempts = 0

    def set_mask(self, clos, ways):
        self.attempts += 1
        if self.attempts <= self.fail_times:
            raise TransientClosError("flaky")
        self.inner.set_mask(clos, ways)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _manager_with_flaky_cat(fail_times: int, **policy_kwargs) -> A4Manager:
    manager = A4Manager(A4Policy(**policy_kwargs))
    server = FakeServer([FakeWorkload("hp")])
    server.cat = FlakyCat(fail_times)
    manager.attach(server)
    return manager


def test_set_ways_retries_transient_failures_in_place():
    manager = _manager_with_flaky_cat(fail_times=2, apply_retry_limit=3)
    manager.server.cat.attempts = 0
    manager.server.cat.fail_times = 2
    retries_before = manager.apply_retries
    assert manager.set_ways("hp", 0, 3)
    assert manager.apply_retries == retries_before + 2
    assert manager.ways_of("hp") == tuple(range(0, 4))


def test_set_ways_exhaustion_parks_and_retry_pending_recovers():
    manager = _manager_with_flaky_cat(fail_times=10**6, apply_retry_limit=1)
    cat = manager.server.cat
    cat.attempts = 0
    cat.fail_times = 10**6
    before = manager.ways_of("hp")
    assert not manager.set_ways("hp", 0, 3)
    assert manager.pending_applies == 1
    assert manager.apply_deferred >= 1
    assert manager.ways_of("hp") == before  # committed state untouched
    cat.fail_times = cat.attempts  # heal the surface
    manager.retry_pending()
    assert manager.pending_applies == 0
    assert manager.apply_recovered == 1
    assert manager.ways_of("hp") == tuple(range(0, 4))


def test_retry_pending_backs_off_exponentially():
    manager = _manager_with_flaky_cat(fail_times=10**6, apply_retry_limit=0)
    cat = manager.server.cat
    cat.fail_times = 10**6
    manager.set_ways("hp", 0, 3)
    entry = manager._pending_ways["hp"]
    assert entry[2:] == [1, 1]
    manager.retry_pending()  # fails again: interval doubles
    assert manager._pending_ways["hp"][2:] == [2, 2]
    manager.retry_pending()  # waiting, no attempt
    assert manager._pending_ways["hp"][2] == 1


# -- degraded mode end to end ----------------------------------------------


def _drive_to_degraded(max_epochs: int = 60) -> A4Manager:
    policy = A4Policy(
        stable_interval=1,
        watchdog_window=50,
        watchdog_reallocs=2,
        watchdog_cooldown=3,
    )
    manager = A4Manager(policy)
    manager.attach(
        FakeServer([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    )
    for i in range(max_epochs):
        if manager.phase == PHASE_DEGRADED:
            return manager
        # Alternate a healthy and a collapsed hit rate: every stable phase
        # immediately sees a >T1 fluctuation, the flip-flop signature.
        hit = 0.9 if manager.phase == "baseline" else 0.2
        manager.on_epoch(make_sample(i, {"hp": hit, "lp": 0.5}))
    raise AssertionError("watchdog never tripped")


def test_watchdog_pins_static_layout_and_recovers():
    manager = _drive_to_degraded()
    assert manager.watchdog.degraded
    assert manager.robustness_stats()["degraded_entries"] == 1
    assert [d.action for d in manager.decisions].count("degraded_enter") == 1
    # The pinned layout is the initial partitions.
    assert manager.layout.lp_left == manager.layout.initial_lp_left
    pinned = manager.ways_of("hp")
    reallocs = manager.reallocations
    # During cooldown nothing reacts, no matter how wild the samples are.
    i = 100
    while manager.phase == PHASE_DEGRADED:
        manager.on_epoch(make_sample(i, {"hp": 0.01, "lp": 0.99}))
        assert manager.ways_of("hp") == pinned
        i += 1
        assert i < 110
    assert manager.phase == "baseline"
    assert manager.reallocations == reallocs + 1  # the recovery realloc
    assert not manager.watchdog.degraded


def test_workload_change_clears_degraded_mode():
    manager = _drive_to_degraded()
    manager.server.workloads.append(FakeWorkload("new", priority="LPW"))
    manager.server._clos["new"] = 9
    manager.on_workload_change()
    assert not manager.watchdog.degraded
    assert manager.phase == "baseline"


# -- chaos harness ----------------------------------------------------------


def test_quick_chaos_run_holds_invariants():
    from repro.faults.chaos import run_chaos

    result = run_chaos(0.75, epochs=12, seed=3)
    assert result.ok
    assert sum(result.faults.values()) > 0
    assert result.mean_ipc > 0


def test_chaos_run_is_deterministic():
    from repro.faults.chaos import run_chaos

    a = run_chaos(0.75, epochs=8, seed=5)
    b = run_chaos(0.75, epochs=8, seed=5)
    assert a.faults == b.faults
    assert a.mean_ipc == b.mean_ipc
    assert a.robustness == b.robustness


def test_fault_free_chaos_run_builds_no_fault_layer():
    from repro.experiments.scenarios import build_server, chaos_workloads

    server = build_server(chaos_workloads(), scheme="a4", seed=1)
    assert server.faults is None
    assert isinstance(server.cat, CacheAllocation)
