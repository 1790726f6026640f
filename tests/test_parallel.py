"""Tests for the process-pool sweep runner and the bench harness smoke.

The equivalence tests pass ``jobs=2`` so the pool path is exercised even
on single-CPU hosts, and compare it with the default serial ``jobs=1``.
"""

import json
import os
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
    serial = run_tasks(_fail_on_negative, tasks)
    pooled = run_tasks(_fail_on_negative, tasks, jobs=2)
    assert serial == pooled == [0, 2, 4, 6, 8, 10]


def test_run_tasks_empty():
    assert run_tasks(_fail_on_negative, []) == []


@pytest.mark.parametrize("pooled", [False, True])
def test_run_tasks_captures_every_failure(pooled):
    with pytest.raises(ParallelExecutionError) as excinfo:
        run_tasks(_fail_on_negative, [1, -1, 2, -2], jobs=2 if pooled else 1)
    failures = excinfo.value.failures
    assert [f.index for f in failures] == [1, 3]
    assert "negative input -1" in failures[0].error
    assert "Traceback" in failures[0].traceback
    assert "ValueError" in str(excinfo.value)


def _fault_intensity(_):
    from repro.experiments.runcache import ENV_FAULT_INTENSITY

    return os.environ.get(ENV_FAULT_INTENSITY)


def test_pool_workers_see_the_current_environment(monkeypatch):
    """Each batch's workers start from the parent's environment as it is
    when the batch runs, so a setting exported between batches (as the CLI
    does for ``--fault-intensity``) reaches the next one."""
    from repro.experiments.runcache import ENV_FAULT_INTENSITY

    monkeypatch.delenv(ENV_FAULT_INTENSITY, raising=False)
    assert run_tasks(_fault_intensity, [0, 1], jobs=2) == [None, None]
    monkeypatch.setenv(ENV_FAULT_INTENSITY, "0.3")
    assert run_tasks(_fault_intensity, [0, 1], jobs=2) == ["0.3", "0.3"]


def _die_if_pooled(parent_pid):
    """SIGKILL the process when run in a pool worker; harmless in-parent.

    Lets one batch both break the executor (worker side) and complete
    (parent-side serial fallback)."""
    import signal

    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return parent_pid * 2


def test_dead_worker_reruns_batch_serially():
    parent = os.getpid()
    results = run_tasks(_die_if_pooled, [parent, parent], jobs=2)
    assert results == [parent * 2] * 2
    # The next batch gets a fresh, working pool.
    assert run_tasks(_fail_on_negative, [3, 4], jobs=2) == [6, 8]


def test_worker_cache_lookups_reach_parent_stats():
    """Run-cache lookups made in pool workers are merged into the parent's
    stats, so the CLI's closing hit/miss report covers them."""
    from repro.experiments import runcache

    stats = runcache.get_cache().stats
    tasks = [SeedTask(build, 3, 1, seed) for seed in (21, 22)]
    run_tasks(seed_metrics, tasks, jobs=2)
    assert (stats.hits, stats.misses, stats.stores) == (0, 2, 2)
    run_tasks(seed_metrics, tasks, jobs=2)
    assert stats.hits == 2


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
    pooled = run_repeated(build, epochs=3, warmup=1, seeds=seeds, jobs=2)
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
    pooled = average_figure(fig8.run_fig8b, seeds=(1, 2), jobs=2, epochs=4)
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


def test_multi_figure_jobs_cli_matches_serial(capsys):
    """``--jobs 2`` over several figures takes the CLI's ``run_tasks``
    branch; its tables must equal the serial loop's."""
    from repro.experiments.__main__ import main

    def tables(argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if not line.startswith("[")]

    argv = ["ablation-migration", "ablation-trash-floor", "--quick", "--no-cache"]
    serial = tables(argv)
    pooled = tables(argv + ["--jobs", "2"])
    assert pooled == serial
    assert len(serial) > 10


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
