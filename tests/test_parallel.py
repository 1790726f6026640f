"""Tests for the process-pool sweep runner and the bench harness smoke.

The equivalence tests force ``parallel=True`` with an explicit
``max_workers`` so the pool path is exercised even on single-CPU hosts
(where callers would normally fall back to serial).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.harness import Server
from repro.experiments.parallel import (
    METRIC_FIELDS,
    FigureTask,
    ParallelExecutionError,
    SeedTask,
    resolve_workers,
    run_tasks,
    seed_metrics,
)
from repro.experiments.sweep import average_figure, run_repeated
from repro.workloads.xmem import xmem

REPO_ROOT = Path(__file__).resolve().parent.parent


def build(seed):
    """Module-level so SeedTask pickles into pool workers."""
    server = Server(cores=3, seed=seed)
    server.add_workload(xmem("a", 2.0, cores=1, pattern="rand"))
    return server


def _fail_on_negative(value):
    if value < 0:
        raise ValueError(f"negative input {value}")
    return value * 2


# -- run_tasks engine ------------------------------------------------------


def test_run_tasks_preserves_order_serial_and_parallel():
    tasks = list(range(6))
    serial = run_tasks(_fail_on_negative, tasks, parallel=False)
    pooled = run_tasks(_fail_on_negative, tasks, parallel=True, max_workers=2)
    assert serial == pooled == [0, 2, 4, 6, 8, 10]


def test_run_tasks_empty():
    assert run_tasks(_fail_on_negative, []) == []


@pytest.mark.parametrize("parallel", [False, True])
def test_run_tasks_captures_every_failure(parallel):
    with pytest.raises(ParallelExecutionError) as excinfo:
        run_tasks(
            _fail_on_negative,
            [1, -1, 2, -2],
            parallel=parallel,
            max_workers=2,
        )
    failures = excinfo.value.failures
    assert [f.index for f in failures] == [1, 3]
    assert "negative input -1" in failures[0].error
    assert "Traceback" in failures[0].traceback
    assert "ValueError" in str(excinfo.value)


def test_warm_pool_reused_across_batches():
    """Consecutive same-width batches share one executor (warm pool)."""
    from repro.experiments import parallel as par

    run_tasks(_fail_on_negative, [1, 2, 3, 4], parallel=True, max_workers=2)
    first_pool = par._pool
    assert first_pool is not None
    run_tasks(_fail_on_negative, [5, 6, 7, 8], parallel=True, max_workers=2)
    assert par._pool is first_pool
    # A different width tears down and replaces the executor.
    run_tasks(_fail_on_negative, [1, 2, 3], parallel=True, max_workers=3)
    assert par._pool is not first_pool
    par.shutdown_pool()
    assert par._pool is None


def test_failures_carry_category():
    from repro.experiments.errors import WorkloadConfigError

    def boom(task):
        if task == "config":
            raise WorkloadConfigError("bad workload")
        raise OSError("disk on fire")

    with pytest.raises(ParallelExecutionError) as excinfo:
        run_tasks(boom, ["config", "other"], parallel=False)
    categories = {f.task: f.category for f in excinfo.value.failures}
    assert categories == {"config": "config", "other": "runtime"}
    assert excinfo.value.categories() == {"config": 1, "runtime": 1}
    assert "[config]" in str(excinfo.value)


def test_resolve_workers():
    assert resolve_workers(10, max_workers=4) == 4
    assert resolve_workers(2, max_workers=8) == 2
    assert resolve_workers(5, max_workers=0) == 1
    assert resolve_workers(0, max_workers=None) == 1


# -- equivalence: serial vs parallel ---------------------------------------


@pytest.mark.parametrize("cached", [False, True])
def test_run_repeated_parallel_matches_serial(cached, monkeypatch):
    if not cached:
        # Force real simulation on both paths (no cache replay).
        from repro.experiments import runcache

        monkeypatch.setenv(runcache.ENV_CACHE_DISABLE, "1")
        runcache.set_cache(None)
    seeds = (1, 2, 3)
    serial = run_repeated(build, epochs=3, warmup=1, seeds=seeds)
    pooled = run_repeated(
        build, epochs=3, warmup=1, seeds=seeds, parallel=True, max_workers=2
    )
    assert serial == pooled  # bit-identical MultiSeedResult
    assert pooled.seeds == seeds
    assert pooled.total_events > 0
    for stream, metrics in serial.streams.items():
        assert set(metrics) == set(METRIC_FIELDS)
        for name in METRIC_FIELDS:
            assert pooled.metric(stream, name).values == metrics[name].values


def test_average_figure_parallel_matches_serial():
    from repro.experiments.figures import fig8

    serial = average_figure(fig8.run_fig8b, seeds=(1, 2), epochs=4)
    pooled = average_figure(
        fig8.run_fig8b, seeds=(1, 2), parallel=True, max_workers=2, epochs=4
    )
    assert pooled.rows == serial.rows
    assert pooled.title == serial.title
    assert pooled.columns == serial.columns
    assert pooled.notes == serial.notes


def test_seed_metrics_summary_shape():
    mem_total_bw, streams, events = seed_metrics(SeedTask(build, 3, 1, 7))
    assert mem_total_bw >= 0
    assert set(streams) == {"a"}
    assert set(streams["a"]) == set(METRIC_FIELDS)
    assert events > 0  # simulated-event count for bench accounting


def test_seed_metrics_memoized():
    """A repeated identical seed is served from the run cache."""
    from repro.experiments import runcache

    cache = runcache.get_cache()
    task = SeedTask(build, 3, 1, 11)
    first = seed_metrics(task)
    hits_before = cache.stats.hits
    second = seed_metrics(task)
    assert second == first
    assert cache.stats.hits == hits_before + 1


def test_task_descriptors_pickle():
    import pickle

    seed_task = SeedTask(build, epochs=3, warmup=1, seed=7)
    fig_task = FigureTask(build, seed=7, kwargs=(("epochs", 4),))
    assert pickle.loads(pickle.dumps(seed_task)) == seed_task
    assert pickle.loads(pickle.dumps(fig_task)) == fig_task


# -- bench harness smoke ---------------------------------------------------


def test_bench_quick_emits_valid_record(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "bench.py"),
            "--quick",
            "--no-compare",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["schema"] == 1
    assert record["quick"] is True
    assert record["results"], "no benchmarks ran"
    for name, entry in record["results"].items():
        assert entry["wall_s"] > 0, name
        assert entry["events_per_s"] > 0, name


# -- dispatch hardening ----------------------------------------------------


def _sleep_in_worker(task):
    """Sleeps only inside a pool worker, so the in-parent retry is instant."""
    import multiprocessing
    import time

    if multiprocessing.parent_process() is not None:
        time.sleep(30)
    return task * 10


def test_timed_out_chunk_is_retried_serially_in_parent():
    from repro.experiments import parallel as par

    par.dispatch_stats.reset()
    results = run_tasks(
        _sleep_in_worker,
        [1, 2],
        parallel=True,
        max_workers=2,
        task_timeout=1.0,
    )
    assert results == [10, 20]  # every stranded task recovered, in order
    assert par.dispatch_stats.timeouts >= 1
    assert par.dispatch_stats.retried_tasks == 2
    assert par._pool is None  # the wedged pool was abandoned
    assert "retried" in par.dispatch_stats.summary()


def test_zero_timeout_disables_dispatch_deadline(monkeypatch):
    from repro.experiments import parallel as par

    monkeypatch.setenv(par.ENV_TASK_TIMEOUT, "0")
    assert par._resolve_timeout(None) is None
    monkeypatch.setenv(par.ENV_TASK_TIMEOUT, "2.5")
    assert par._resolve_timeout(None) == 2.5
    assert par._resolve_timeout(7.0) == 7.0  # explicit arg wins
    monkeypatch.delenv(par.ENV_TASK_TIMEOUT)
    assert par._resolve_timeout(None) == par.DEFAULT_TASK_TIMEOUT


def test_failures_carry_config_digest():
    from repro.experiments.parallel import task_digest

    with pytest.raises(ParallelExecutionError) as excinfo:
        run_tasks(_fail_on_negative, [3, -7], parallel=False)
    failure = excinfo.value.failures[0]
    assert failure.digest == task_digest(-7)
    assert len(failure.digest) == 12
    assert f"(config {failure.digest})" in str(excinfo.value)


def test_task_digest_matches_runcache_fingerprint():
    from repro.experiments.parallel import task_digest
    from repro.experiments.runcache import fingerprint

    task = SeedTask(build=build, seed=7, epochs=4, warmup=1)
    assert task_digest(task) == fingerprint(task)[:12]

    class Undigestable:
        __slots__ = ()

        def __repr__(self):
            raise RuntimeError("no canonical form")

    # Unfingerprintable payloads degrade to a marker instead of raising.
    assert task_digest(Undigestable()) == "unfingerprintable"


# -- broken-pool recycling / dispatch backoff -------------------------------


def _die_if_pooled(parent_pid):
    """SIGKILL the process when run in a pool worker; harmless in-parent.

    Lets one batch both break the executor (worker side) and complete
    (parent-side serial fallback)."""
    import os
    import signal

    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return parent_pid * 2


def test_broken_pool_is_recycled_and_batch_recovers(monkeypatch):
    import os

    from repro.experiments import parallel as par

    monkeypatch.setattr(par, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(par, "BACKOFF_CAP_S", 0.01)
    par.dispatch_stats.reset()
    parent = os.getpid()
    # Two tasks so the effective worker count stays > 1 (a one-task batch
    # would short-circuit to the serial path and never touch the pool).
    results = run_tasks(
        _die_if_pooled, [parent, parent], parallel=True, max_workers=2
    )
    assert results == [parent * 2] * 2  # serial fallback completed the batch
    assert par.dispatch_stats.broken_pools == 1
    assert par.dispatch_stats.pool_recycles == 1
    assert par.dispatch_stats.backoff_seconds > 0  # backoff was applied
    assert par._pool is not None  # a warm replacement pool is up
    assert not par._pool._broken
    assert "1 pool recycles" in par.dispatch_stats.summary()
    # The recycled pool is immediately usable.
    assert run_tasks(
        _fail_on_negative, [3, 4], parallel=True, max_workers=2
    ) == [6, 8]


def test_recycle_if_broken_is_a_noop_on_healthy_pools():
    from repro.experiments import parallel as par

    par.dispatch_stats.reset()
    par.shutdown_pool()
    assert par.recycle_if_broken() is False  # no pool at all
    pool = par.get_pool(2)
    assert par.recycle_if_broken() is False  # healthy pool untouched
    assert par._pool is pool
    assert par.dispatch_stats.pool_recycles == 0


def test_dispatch_backoff_is_deterministic_and_counted():
    from repro.experiments import parallel as par

    delay = par.backoff_delay(1, "batch")
    assert delay == par.backoff_delay(1, "batch")
    assert 0.15 <= delay <= 0.25  # base 0.2s within the 25% jitter band
    before = par.dispatch_stats.backoff_seconds
    par._backoff(0, token="x")  # zero failures: no delay, nothing logged
    assert par.dispatch_stats.backoff_seconds == before


def test_backoff_delay_schedule_is_pinned():
    """Base 0.2 s doubling per attempt, capped at 5 s before a +/-25%
    jitter hashed from (token, attempt): exact values, so a change to the
    schedule cannot slip through."""
    from repro.experiments.parallel import backoff_delay

    assert backoff_delay(1, "batch") == 0.21755326280105108
    assert backoff_delay(3, "x") == 0.8830161696021279
    assert backoff_delay(7, "cap") == 6.014378726721663  # capped, then +20%
    assert backoff_delay(0, "x") == 0.0
