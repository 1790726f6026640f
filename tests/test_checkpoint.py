"""Checkpoint/restore round-trip tests (ISSUE 7 tentpole, part A).

The contract under test: snapshot at epoch N, restore, continue M epochs
== one uninterrupted N+M run, *bit-identical* — same simulated clock,
same executed-event count, same per-stream counter state, and (with the
observability layer on) the same trace events.  The matrix covers every
platform preset and fault injection, because each snapshots different
state at construction time, and a snapshot taken while DPDK and FIO
bodies sit in the middle of their per-line arms.

Also here: the far-future ``pending()`` regression (long-sleep events
must be visible to inspection and to the snapshot protocol), the refusal
of a snapshot taken from inside an action, the :class:`CheckpointStore` durability contract
(corrupt/skewed blobs are evicted, never restored), and the
``run_setup`` resume path.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import obsv
from repro.experiments import runcache
from repro.experiments.figures.base import run_setup
from repro.experiments.scenarios import (
    build_server,
    microbenchmark_workloads,
    spec_workload,
)
from repro.faults.plan import FaultPlan
from repro.obsv import KIND_CHECKPOINT, KIND_EPOCH, KIND_PLATFORM, KIND_SPAN
from repro.platform import get_platform
from repro.sim import checkpoint
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointStore,
    SimState,
    checkpoint_key,
)
from repro.sim.engine import SnapshotError, Simulator
from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW
from repro.workloads.redis import redis_pair
from repro.workloads.sysdaemons import ksm
from repro.workloads.xmem import xmem

PLATFORMS = ("skylake-sp", "cascadelake-sp", "icelake-sp")


def _micro_server(platform="skylake-sp", seed=0xA4):
    spec = get_platform(platform)
    return build_server(
        microbenchmark_workloads(platform=spec),
        scheme="a4",
        seed=seed,
        platform=spec,
    )


def _faulted_server(seed=0xA4):
    """Mixed server with every fault wrapper engaged (the wrappers carry
    ``__getattr__`` delegation, historically the pickling trap)."""
    server, client = redis_pair()
    workloads = [
        server,
        client,
        ksm(phased=True, priority=PRIORITY_LOW),
        spec_workload("parest", PRIORITY_HIGH),
    ]
    return build_server(
        workloads,
        scheme="a4",
        cores=8,
        seed=seed,
        fault_plan=FaultPlan.scaled(0.5),
    )


def _stream_state(server):
    out = {}
    for name in sorted(server.counters.streams):
        stream = server.counters.stream(name)
        out[name] = repr(
            vars(stream) if hasattr(stream, "__dict__") else stream
        )
    return out


def _fingerprint(server):
    return (
        server.sim.now,
        server.sim.events_executed,
        server.epochs_completed,
        _stream_state(server),
    )


def _roundtrip(build, n=3, m=3, warmup=1, at_snapshot=None):
    """Run split (n, snapshot, restore, m) and continuous (n+m); both
    fingerprints must agree exactly.  ``at_snapshot(server)`` inspects the
    first server just before it is snapshotted."""
    first = build()
    first.run(epochs=n, warmup=warmup)
    if at_snapshot is not None:
        at_snapshot(first)
    state = checkpoint.snapshot(first)
    resumed = checkpoint.restore(state)
    resumed.run(epochs=m, warmup=0)
    continuous = build()
    continuous.run(epochs=n + m, warmup=warmup)
    assert _fingerprint(resumed) == _fingerprint(continuous)
    return resumed, continuous


# -- round-trip bit-identity ------------------------------------------------


@pytest.mark.parametrize("platform", PLATFORMS)
def test_roundtrip_bit_identical_per_platform(platform):
    _roundtrip(lambda: _micro_server(platform))


def _mid_arm(server):
    """DPDK consumers past the second line of their payload arm, and FIO
    threads part-way through a block scan, at this instant."""
    consumers = scans = 0
    for _, method, args in server.sim._factories.values():
        st = args[-1]
        if method == "_consumer_body" and st.pc == 1 and st.offset > 1:
            consumers += 1
        elif (
            method == "_thread_body"
            and st.pc == 2
            and 0 < st.offset < st.command.lines
        ):
            scans += 1
    return consumers, scans


def test_roundtrip_bit_identical_mid_arm():
    """Snapshot while a DPDK consumer is mid-payload and an FIO thread
    mid-scan.  Their loops keep the line position in locals and a restored
    body restarts from ``st`` alone, so the bit-identical continuation
    proves every yield wrote ``st`` first."""

    def in_the_middle(server):
        consumers, scans = _mid_arm(server)
        assert consumers > 0, "no DPDK consumer inside its payload arm"
        assert scans > 0, "no FIO thread mid-scan"

    _roundtrip(_micro_server, at_snapshot=in_the_middle)


def test_roundtrip_bit_identical_under_fault_injection():
    _roundtrip(_faulted_server)


def test_roundtrip_trace_events_identical():
    """Split and continuous runs emit the same trace stream.

    The platform header repeats per ``run()`` call and span wall-times are
    wall-clock, so those kinds are excluded; everything else — epoch
    boundaries (with event counts), controller decisions, mask writes —
    must match field-for-field including the cumulative epoch index."""

    def events():
        return [
            (e.ts, e.epoch, e.kind, e.name, sorted(e.data.items()))
            for e in obsv.TRACER.events
            if e.kind not in (KIND_PLATFORM, KIND_SPAN)
        ]

    obsv.enable()
    first = _micro_server()
    first.run(epochs=3, warmup=1)
    state = checkpoint.snapshot(first)
    resumed = checkpoint.restore(state)
    resumed.run(epochs=3, warmup=0)
    split = events()

    obsv.disable()
    obsv.enable()
    continuous = _micro_server()
    continuous.run(epochs=6, warmup=1)
    cont = events()
    obsv.disable()

    assert split == cont
    assert any(kind == KIND_EPOCH for _, _, kind, _, _ in cont)


def test_restore_is_repeatable():
    """A SimState is a value: restoring it twice yields two independent
    servers that evolve identically."""
    origin = _micro_server()
    origin.run(epochs=2, warmup=1)
    state = checkpoint.snapshot(origin)
    one = checkpoint.restore(state)
    two = checkpoint.restore(state)
    one.run(epochs=2, warmup=0)
    two.run(epochs=2, warmup=0)
    assert _fingerprint(one) == _fingerprint(two)


def test_snapshot_does_not_perturb_the_run():
    """A run that checkpoints mid-way stays bit-identical to one that
    never snapshots."""
    snapshotted = _micro_server()
    snapshotted.run(epochs=2, warmup=1)
    checkpoint.snapshot(snapshotted)
    snapshotted.run(epochs=2, warmup=0)
    plain = _micro_server()
    plain.run(epochs=4, warmup=1)
    assert _fingerprint(snapshotted) == _fingerprint(plain)


# -- SimState ---------------------------------------------------------------


def test_simstate_validate_catches_corruption():
    origin = _micro_server()
    origin.run(epochs=1, warmup=0)
    state = checkpoint.snapshot(origin)
    state.validate()  # pristine state passes

    flipped = dataclasses.replace(state, payload=state.payload + b"\0")
    with pytest.raises(CheckpointError):
        flipped.validate()

    skewed = dataclasses.replace(state, schema=CHECKPOINT_SCHEMA + 1)
    with pytest.raises(CheckpointError):
        skewed.validate()


def test_snapshot_rejects_unpicklable_graph():
    origin = _micro_server()
    origin.run(epochs=1, warmup=0)
    origin.not_picklable = lambda: None  # closures never pickle
    with pytest.raises(CheckpointError):
        checkpoint.snapshot(origin)


# -- far-future pending() and the in-action snapshot guard -----------------


def test_pending_surfaces_far_heap_events():
    """Events scheduled far in the future (4096 cycles was the horizon of
    the engine's former calendar wheel) must show in ``pending()``: the
    snapshot protocol and idle detection both rely on the full queue being
    visible."""
    sim = Simulator()
    span = 4096.0
    near = sim.schedule(10.0, lambda s: None)
    far = sim.schedule(span * 4, lambda s: None)
    assert [e.time for e in sim.pending()] == [10.0, span * 4]

    far.cancel()
    assert [e.time for e in sim.pending()] == [10.0]
    near.cancel()
    assert list(sim.pending()) == []


def test_fast_forward_carries_far_heap_events():
    fired = []
    sim = Simulator()
    span = 4096.0
    sim.schedule(span * 4, lambda s: fired.append(s.now))
    sim.fast_forward(span * 3)
    assert [e.time for e in sim.pending()] == [span * 7]
    sim.run_until(span * 8)
    assert fired == [span * 7]


class _SnapshottingPair:
    """Owner of two restartable 10-cycle processes; process ``a`` pickles
    the simulator from inside its own body at t=50."""

    def __init__(self, sim):
        self.sim = sim
        self.outcome = None

    def tick(self, name):
        while True:
            if name == "a" and self.sim.now == 50.0:
                try:
                    self.outcome = pickle.dumps(self.sim)
                except SnapshotError as exc:
                    self.outcome = exc
            yield 10.0


def test_snapshot_from_inside_an_action_is_refused():
    """The running process is mid-step while its body executes, so a
    snapshot then would drop it or replay it; it must raise instead."""
    sim = Simulator()
    pair = _SnapshottingPair(sim)
    sim.spawn_restartable("a", pair, "tick", "a")
    sim.spawn_restartable("b", pair, "tick", "b")
    sim.run_until(60.0)
    assert isinstance(pair.outcome, SnapshotError)

    # Between run_until calls the snapshot holds both processes.
    pair.outcome = None
    restored = pickle.loads(pickle.dumps(sim))
    assert [(t, name) for t, _, name in restored.__getstate__()["pending"]] == [
        (70.0, "a"),
        (70.0, "b"),
    ]
    restored.run_until(100.0)
    assert restored.now == 100.0
    assert restored.events_executed == sim.events_executed + 8


# -- CheckpointStore --------------------------------------------------------


def _stored_state(epochs=2):
    origin = _micro_server()
    origin.run(epochs=epochs, warmup=1)
    return origin, checkpoint.snapshot(origin)


def test_store_save_load_latest(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    origin, state2 = _stored_state(epochs=2)
    store.save("runA", state2)
    origin.run(epochs=2, warmup=0)
    state4 = checkpoint.snapshot(origin)
    store.save("runA", state4)

    assert store.epochs("runA") == [2, 4]
    loaded = store.load("runA", 2)
    assert loaded is not None
    assert (loaded.epoch, loaded.digest) == (2, state2.digest)
    assert store.load("runA", 99) is None

    assert store.latest("runA").epoch == 4
    assert store.latest("runA", max_epoch=3).epoch == 2
    assert store.latest("runA", max_epoch=1) is None
    assert store.latest("other-run") is None

    resumed = checkpoint.restore(store.latest("runA", max_epoch=3))
    assert resumed.epochs_completed == 2


def test_store_evicts_corrupt_blob(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    _, state = _stored_state()
    store.save("runA", state)
    path = store._blob_path(checkpoint_key("runA", state.epoch))
    path.write_bytes(b"not a pickle")
    assert store.load("runA", state.epoch) is None
    assert not path.exists()  # evicted, not just skipped


def test_store_evicts_schema_skewed_blob(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    _, state = _stored_state()
    key = checkpoint_key("runA", state.epoch)
    store.save("runA", state)
    path = store._blob_path(key)
    path.write_bytes(
        pickle.dumps({"schema": -1, "key": key, "state": state})
    )
    assert store.load("runA", state.epoch) is None
    assert not path.exists()


def test_store_evicts_digest_corrupt_state(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    _, state = _stored_state()
    key = checkpoint_key("runA", state.epoch)
    store.save("runA", state)
    bad = dataclasses.replace(state, payload=state.payload + b"\0")
    path = store._blob_path(key)
    path.write_bytes(
        pickle.dumps({"schema": CHECKPOINT_SCHEMA, "key": key, "state": bad})
    )
    assert store.load("runA", state.epoch) is None
    assert not path.exists()


def test_latest_walks_past_corrupt_newest(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    origin, state2 = _stored_state(epochs=2)
    store.save("runA", state2)
    origin.run(epochs=2, warmup=0)
    state4 = checkpoint.snapshot(origin)
    store.save("runA", state4)
    store._blob_path(checkpoint_key("runA", 4)).write_bytes(b"garbage")
    assert store.latest("runA").epoch == 2


def test_checkpoint_key_separates_runs_epochs_schema():
    assert checkpoint_key("a", 1) != checkpoint_key("b", 1)
    assert checkpoint_key("a", 1) != checkpoint_key("a", 2)
    assert checkpoint_key("a", 1) == checkpoint_key("a", 1)


def test_save_and_load_hold_the_run_key_flock(tmp_path):
    """Blob writes and index reads go through an exclusive sidecar lock,
    so two workers sharing a run key cannot interleave a save with a
    validation-eviction."""
    import fcntl

    store = CheckpointStore(tmp_path / "ckpt")
    _, state = _stored_state()
    store.save("runA", state)
    lock_path = store._lock_path("runA")
    assert lock_path.exists()
    # Hold the lock from "another process" (a separate file description:
    # flock is per-open-file, so a second handle genuinely contends).
    with lock_path.open("a") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        with store._lock_path("runA").open("a") as probe:
            with pytest.raises(BlockingIOError):
                fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    # Released: load proceeds normally.
    assert store.load("runA", state.epoch).digest == state.digest


# -- run_setup resume -------------------------------------------------------


def _setup_workloads():
    return [xmem("a", 2.0, cores=1, pattern="rand")]


def test_run_setup_resumes_from_checkpoint(tmp_path):
    """An interrupted ``run_setup`` restarted with the same configuration
    resumes from the newest checkpoint and produces the same result.

    The 'interruption' is simulated by disabling the run cache after the
    first (checkpointing) call: the rerun misses the cache, finds the
    epoch-4 checkpoint, and simulates only the final third."""
    ckpt_dir = tmp_path / "ckpt"
    obsv.enable()
    first = run_setup(
        _setup_workloads(),
        epochs=6,
        warmup=2,
        seed=9,
        checkpoint_dir=str(ckpt_dir),
        checkpoint_every=2,
    )
    saved = [e for e in obsv.TRACER.events if e.kind == KIND_CHECKPOINT]
    assert [e.data["epoch"] for e in saved] == [2, 4, 6]

    runcache.configure(enabled=False)
    obsv.disable()
    obsv.enable()
    second = run_setup(
        _setup_workloads(),
        epochs=6,
        warmup=2,
        seed=9,
        checkpoint_dir=str(ckpt_dir),
        checkpoint_every=2,
    )
    # Only the post-checkpoint epochs (4 and 5) were simulated.
    resumed_epochs = [
        e.data["index"]
        for e in obsv.TRACER.events
        if e.kind == KIND_EPOCH
    ]
    obsv.disable()
    assert resumed_epochs == [4, 5]

    assert len(second.samples) == len(first.samples) == 6
    for name in first.stream_names():
        a, b = first.aggregate(name), second.aggregate(name)
        assert (a.ipc, a.llc_hit_rate, a.throughput) == (
            b.ipc,
            b.llc_hit_rate,
            b.throughput,
        )


def test_run_setup_ignores_checkpoints_from_other_configs(tmp_path):
    """Checkpoints are keyed by the full run configuration: a different
    seed must never resume from another run's snapshot."""
    ckpt_dir = tmp_path / "ckpt"
    run_setup(
        _setup_workloads(),
        epochs=4,
        warmup=1,
        seed=9,
        checkpoint_dir=str(ckpt_dir),
        checkpoint_every=2,
    )
    obsv.enable()
    run_setup(
        _setup_workloads(),
        epochs=4,
        warmup=1,
        seed=10,
        checkpoint_dir=str(ckpt_dir),
        checkpoint_every=2,
    )
    fresh_epochs = [
        e.data["index"]
        for e in obsv.TRACER.events
        if e.kind == KIND_EPOCH
    ]
    obsv.disable()
    assert fresh_epochs == [0, 1, 2, 3]  # full run, no resume
