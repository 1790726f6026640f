"""Checkpoint/restore round-trip tests.

The contract under test: snapshot at epoch N, restore, continue M epochs
== one uninterrupted N+M run, *bit-identical* — same simulated clock,
same executed-event count, same per-stream counter state, and (with the
observability layer on) the same trace events.  The matrix covers every
platform preset and fault injection, because each snapshots different
state at construction time, and a snapshot taken while DPDK and FIO
bodies sit in the middle of their per-line arms.

Also here: the far-future ``pending()`` regression (long-sleep events
must be visible to inspection and to the snapshot protocol), the refusal
of a snapshot taken from inside an action, the durability of checkpoints
stored as run-cache entries by ``resumable_run`` (corrupt, skewed or
digest-corrupt entries are evicted and the probe walks back to the newest
intact one), and the ``run_setup`` resume path, which exact runs take and
sampled runs do not.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import obsv
from repro.experiments import runcache
from repro.experiments.figures.base import resumable_run, run_setup
from repro.experiments.harness import Server
from repro.experiments.scenarios import (
    build_server,
    microbenchmark_workloads,
    spec_workload,
)
from repro.faults.plan import FaultPlan
from repro.obsv import KIND_CHECKPOINT, KIND_EPOCH, KIND_PLATFORM, KIND_SPAN
from repro.platform import get_platform
from repro.sim import checkpoint
from repro.sim.checkpoint import CheckpointError, SimState
from repro.sim.engine import SnapshotError, Simulator
from repro.sim.sampling import SamplingPlan
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
    with pytest.raises(CheckpointError):
        checkpoint.restore(flipped)


def test_snapshot_rejects_unpicklable_graph():
    origin = _micro_server()
    origin.run(epochs=1, warmup=0)
    origin.not_picklable = lambda: None  # closures never pickle
    with pytest.raises(CheckpointError):
        checkpoint.snapshot(origin)


# -- far-future pending() and the in-action snapshot guard -----------------


class _Sleeper:
    """Owner of restartable processes that sleep once, then record the
    time they woke at and return."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []

    def sleep(self, cycles):
        yield cycles
        self.fired.append(self.sim.now)


def test_pending_surfaces_far_heap_events():
    """Resumes far in the future (4096 cycles was the horizon of the
    engine's former calendar wheel) must show in ``pending()``: the
    snapshot protocol and idle detection both rely on the full queue being
    visible."""
    sim = Simulator()
    span = 4096.0
    sleeper = _Sleeper(sim)
    sim.spawn_restartable("near", sleeper, "sleep", 10.0)
    sim.spawn_restartable("far", sleeper, "sleep", span * 4)
    sim.run_until(0.0)
    assert list(sim.pending()) == [(10.0, "near"), (span * 4, "far")]

    sim.run_until(10.0)
    assert list(sim.pending()) == [(span * 4, "far")]
    sim.run_until(span * 4)
    assert list(sim.pending()) == []
    assert sleeper.fired == [10.0, span * 4]


def test_fast_forward_carries_far_heap_events():
    sim = Simulator()
    span = 4096.0
    sleeper = _Sleeper(sim)
    sim.spawn_restartable("far", sleeper, "sleep", span * 4)
    sim.run_until(0.0)
    sim.fast_forward(span * 3)
    assert list(sim.pending()) == [(span * 7, "far")]
    sim.run_until(span * 8)
    assert sleeper.fired == [span * 7]


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


# -- checkpoints as run-cache entries ----------------------------------------


def _xmem_server():
    server = Server(cores=3, seed=9)
    server.add_workload(xmem("a", 2.0, cores=1, pattern="rand"))
    return server


def _ckpt_key(run_key, epoch):
    return runcache.fingerprint(("checkpoint", run_key, epoch))


def _checkpointed(ckpt_dir, run_key="runA", epochs=8):
    """One checkpointing ``resumable_run``; quarter-run cadence, so an
    8-epoch run stores epochs 2, 4 and 6 (never the finished run)."""
    return resumable_run(
        _xmem_server, run_key, epochs, 2, checkpoint_dir=str(ckpt_dir)
    )


def _restored_epoch(ckpt_dir, run_key="runA", epochs=8, monkeypatch=None):
    """Rerun under tracing; the epoch the run resumed from (0 = none)
    and its result.  With ``monkeypatch`` the rerun stores nothing, so
    whatever the probe deleted stays deleted."""
    if monkeypatch is not None:
        monkeypatch.setattr(runcache.RunCache, "put", lambda *args: None)
    obsv.enable()
    _, result = _checkpointed(ckpt_dir, run_key, epochs)
    restores = [
        e.data["epoch"]
        for e in obsv.TRACER.events
        if e.kind == KIND_CHECKPOINT and e.name == "restore"
    ]
    obsv.disable()
    assert len(restores) <= 1
    return (restores[0] if restores else 0), result


def _same_result(a, b):
    assert [s.streams["a"].ipc for s in a.samples] == [
        s.streams["a"].ipc for s in b.samples
    ]


def test_store_save_load_latest(tmp_path):
    ckpt_dir = tmp_path / "ckpt"
    _, first = _checkpointed(ckpt_dir)
    store = runcache.RunCache(root=ckpt_dir)
    for epoch in (2, 4, 6):
        state = store.get(_ckpt_key("runA", epoch))
        assert isinstance(state, SimState) and state.epoch == epoch
    for epoch in (1, 3, 5, 7, 8):
        assert store.get(_ckpt_key("runA", epoch)) is runcache.MISS
    assert store.get(_ckpt_key("other-run", 2)) is runcache.MISS
    resumed = checkpoint.restore(store.get(_ckpt_key("runA", 4)))
    assert resumed.epochs_completed == 4

    # The rerun restores the newest snapshot below the horizon.
    epoch, second = _restored_epoch(ckpt_dir)
    assert epoch == 6
    _same_result(first, second)


def test_store_evicts_corrupt_blob(tmp_path, monkeypatch):
    ckpt_dir = tmp_path / "ckpt"
    _checkpointed(ckpt_dir)
    path = runcache.RunCache(root=ckpt_dir)._path(_ckpt_key("runA", 6))
    path.write_bytes(b"not a pickle")
    assert _restored_epoch(ckpt_dir, monkeypatch=monkeypatch)[0] == 4
    assert not path.exists()  # evicted, not just skipped


def test_store_evicts_schema_skewed_blob(tmp_path, monkeypatch):
    ckpt_dir = tmp_path / "ckpt"
    _checkpointed(ckpt_dir)
    store = runcache.RunCache(root=ckpt_dir)
    key = _ckpt_key("runA", 6)
    path = store._path(key)
    state = store.get(key)
    path.write_bytes(pickle.dumps({"schema": -1, "key": key, "value": state}))
    assert _restored_epoch(ckpt_dir, monkeypatch=monkeypatch)[0] == 4
    assert not path.exists()


def test_store_evicts_digest_corrupt_state(tmp_path, monkeypatch):
    ckpt_dir = tmp_path / "ckpt"
    _checkpointed(ckpt_dir)
    store = runcache.RunCache(root=ckpt_dir)
    key = _ckpt_key("runA", 6)
    state = store.get(key)
    store.put(key, dataclasses.replace(state, payload=state.payload + b"\0"))
    assert _restored_epoch(ckpt_dir, monkeypatch=monkeypatch)[0] == 4
    assert not store._path(key).exists()


def test_latest_walks_past_corrupt_newest(tmp_path):
    ckpt_dir = tmp_path / "ckpt"
    _, first = _checkpointed(ckpt_dir)
    store = runcache.RunCache(root=ckpt_dir)
    for epoch in (6, 4):
        store._path(_ckpt_key("runA", epoch)).write_bytes(b"garbage")
    epoch, second = _restored_epoch(ckpt_dir)
    assert epoch == 2
    _same_result(first, second)


def test_checkpoint_key_separates_runs_epochs_schema(tmp_path, monkeypatch):
    assert _ckpt_key("a", 1) != _ckpt_key("b", 1)
    assert _ckpt_key("a", 1) != _ckpt_key("a", 2)
    assert _ckpt_key("a", 1) == _ckpt_key("a", 1)
    before = _ckpt_key("a", 1)
    with monkeypatch.context() as patch:
        patch.setattr(runcache, "SCHEMA_VERSION", runcache.SCHEMA_VERSION + 1)
        assert _ckpt_key("a", 1) != before

    # A run under another key resumes from none of runA's snapshots.
    ckpt_dir = tmp_path / "ckpt"
    _checkpointed(ckpt_dir)
    assert _restored_epoch(ckpt_dir, run_key="runB")[0] == 0


def _shared_run_ipcs(ckpt_dir):
    """Worker body: two checkpointing runs under one shared run key."""
    out = []
    for _ in range(2):
        _, result = _checkpointed(ckpt_dir, run_key="shared")
        out.append([s.streams["a"].ipc for s in result.samples])
    return out


def test_workers_sharing_a_run_key_need_no_lock(tmp_path):
    """Snapshots land by atomic rename and are digest-checked on restore,
    so workers saving, restoring and evicting one run key at once each
    still finish with the uninterrupted run's samples."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _, plain = resumable_run(_xmem_server, "plain", 8, 2)
    expected = [s.streams["a"].ipc for s in plain.samples]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(3, mp_context=ctx) as pool:
        futures = [
            pool.submit(_shared_run_ipcs, str(tmp_path / "ckpt"))
            for _ in range(3)
        ]
        runs = [run for f in futures for run in f.result(timeout=120)]
    assert len(runs) == 6 and all(run == expected for run in runs)


# -- run_setup resume -------------------------------------------------------


def _setup_workloads():
    return [xmem("a", 2.0, cores=1, pattern="rand")]


def test_run_setup_resumes_from_checkpoint(tmp_path):
    """An interrupted ``run_setup`` restarted with the same configuration
    resumes from the newest checkpoint and produces the same result.

    The 'interruption' is simulated by disabling the run cache after the
    first (checkpointing) call: the rerun misses the cache, finds the
    epoch-6 checkpoint, and simulates only the final quarter."""
    ckpt_dir = tmp_path / "ckpt"
    obsv.enable()
    first = run_setup(
        _setup_workloads(),
        epochs=8,
        warmup=2,
        seed=9,
        checkpoint_dir=str(ckpt_dir),
    )
    saved = [e for e in obsv.TRACER.events if e.kind == KIND_CHECKPOINT]
    assert [e.data["epoch"] for e in saved] == [2, 4, 6]

    runcache.configure(enabled=False)
    obsv.disable()
    obsv.enable()
    second = run_setup(
        _setup_workloads(),
        epochs=8,
        warmup=2,
        seed=9,
        checkpoint_dir=str(ckpt_dir),
    )
    # Only the post-checkpoint epochs (6 and 7) were simulated.
    resumed_epochs = [
        e.data["index"]
        for e in obsv.TRACER.events
        if e.kind == KIND_EPOCH
    ]
    obsv.disable()
    assert resumed_epochs == [6, 7]

    assert len(second.samples) == len(first.samples) == 8
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
    )
    obsv.enable()
    run_setup(
        _setup_workloads(),
        epochs=4,
        warmup=1,
        seed=10,
        checkpoint_dir=str(ckpt_dir),
    )
    fresh_epochs = [
        e.data["index"]
        for e in obsv.TRACER.events
        if e.kind == KIND_EPOCH
    ]
    obsv.disable()
    assert fresh_epochs == [0, 1, 2, 3]  # full run, no resume


def test_sampled_run_setup_runs_straight_through(tmp_path):
    """A sampled run neither writes nor restores checkpoints: the
    sampler's clusters are not part of the server snapshot, so a resumed
    segment would re-cluster from scratch and drift from the
    uninterrupted run.  Two calls into one checkpoint directory, run cache
    off, must agree exactly and each must report the whole horizon."""
    ckpt_dir = tmp_path / "ckpt"
    runcache.configure(enabled=False)

    def sampled():
        return run_setup(
            [
                xmem("a", 2.0, cores=1, pattern="rand"),
                xmem("b", 4.0, cores=1, pattern="seq"),
            ],
            epochs=24,
            warmup=2,
            seed=9,
            sampling=SamplingPlan(stability_window=2, max_skip=4),
            checkpoint_dir=str(ckpt_dir),
        )

    first = sampled()
    second = sampled()
    assert first.sampling.total_epochs == second.sampling.total_epochs == 24
    for name in ("a", "b"):
        a, b = first.aggregate(name), second.aggregate(name)
        assert (a.ipc, a.llc_hit_rate) == (b.ipc, b.llc_hit_rate)
    assert not any(ckpt_dir.rglob("*.pkl"))
