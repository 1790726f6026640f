"""Process-pool execution of multi-seed sweeps and figure batches.

Seeds of a :func:`repro.experiments.sweep.run_repeated` sweep and the
per-seed runs behind :func:`repro.experiments.sweep.average_figure` are
embarrassingly parallel: each builds its own :class:`Server`, runs it, and
reduces to a small numeric summary.  :func:`run_tasks` maps those runs over
a :class:`concurrent.futures.ProcessPoolExecutor` created for the batch.

Design constraints, in order of importance:

* **Bit-identical results.**  Workers return plain picklable summaries
  (floats keyed by stream/metric, or a :class:`FigureResult`), assembled on
  the parent in task order.  The serial path runs the *same* task functions
  in the same order, so ``jobs=1`` and ``jobs=N`` produce identical
  objects — :mod:`tests.test_parallel` locks this.
* **Picklability.**  Task descriptors are frozen dataclasses holding only
  module-level callables and primitives; the worker entry points
  (:func:`seed_metrics`, :func:`run_figure`, :func:`_run_one`) are
  module-level functions.
* **Serial by default.**  ``jobs <= 1`` (the default everywhere) or a
  single task runs a plain loop in the calling process — no pool, and
  ``concurrent.futures`` is not even imported.
* **Per-task error capture.**  A failing task does not abort its siblings;
  every task runs to completion and failures are re-raised together as a
  :class:`ParallelExecutionError` carrying per-task tracebacks.
* **One pool per batch.**  Each pooled call starts its own executor and
  shuts it down before returning.  On Linux the workers fork from the
  parent at that point, so they see its current environment and run-cache
  settings (fault intensity, checkpoint dir, cache dir).
"""

from __future__ import annotations

import functools
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import runcache
from repro.obsv.metrics import counts_of, diff_counts

METRIC_FIELDS = (
    "ipc",
    "llc_hit_rate",
    "llc_miss_rate",
    "mlc_miss_rate",
    "dca_miss_rate",
    "throughput",
    "avg_latency",
    "p99_latency",
)
"""Numeric :class:`StreamAggregate` fields collected per seed (the columns
of a :class:`repro.experiments.sweep.MultiSeedResult`)."""


# -- task descriptors (picklable) -----------------------------------------


@dataclass(frozen=True)
class SeedTask:
    """One seed of a ``run_repeated`` sweep.

    ``build`` must be a module-level callable (lambdas and closures do not
    pickle); the figure runners and benchmark scenarios already satisfy
    this.
    """

    build: Callable[[int], Any]
    epochs: int
    warmup: int
    seed: int


@dataclass(frozen=True)
class FigureTask:
    """One seed of a figure-runner invocation.

    ``kwargs`` is a tuple of ``(name, value)`` pairs rather than a dict so
    the descriptor stays hashable/frozen.
    """

    runner: Callable[..., Any]
    seed: int
    kwargs: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class TaskFailure:
    """A captured per-task error (exception text + formatted traceback)."""

    index: int
    task: Any
    error: str
    traceback: str


class ParallelExecutionError(RuntimeError):
    """One or more tasks failed; ``failures`` holds every captured error."""

    def __init__(self, failures: Sequence[TaskFailure]):
        self.failures = tuple(failures)
        lines = [f"{len(self.failures)} task(s) failed:"]
        for failure in self.failures:
            lines.append(f"  task[{failure.index}]: {failure.error}")
        super().__init__("\n".join(lines))


# -- worker entry points ---------------------------------------------------


def _seed_metrics_compute(task: SeedTask) -> Tuple[float, Dict[str, Dict[str, float]], int]:
    server = task.build(task.seed)
    result = server.run(epochs=task.epochs, warmup=task.warmup)
    streams: Dict[str, Dict[str, float]] = {}
    for name in result.stream_names():
        aggregate = result.aggregate(name)
        streams[name] = {
            metric: getattr(aggregate, metric) for metric in METRIC_FIELDS
        }
    return result.mem_total_bw, streams, server.sim.events_executed


def seed_metrics(
    task: SeedTask,
) -> Tuple[float, Dict[str, Dict[str, float]], int]:
    """Run one seed and reduce it to a picklable numeric summary.

    Returns ``(mem_total_bw, {stream: {metric: value}}, events_executed)``
    over :data:`METRIC_FIELDS`.  Both the serial and the pooled path of
    ``run_repeated`` go through this function, which is what guarantees
    identical :class:`MultiSeedResult` objects either way.  The summary is
    memoized in the content-addressed run cache, keyed on the builder's
    code identity plus ``(epochs, warmup, seed)``.
    """
    payload = (
        "seed_metrics",
        runcache.callable_token(task.build),
        task.epochs,
        task.warmup,
        task.seed,
    )
    return runcache.get_cache().memo(
        payload, functools.partial(_seed_metrics_compute, task)
    )


def run_figure(task: FigureTask) -> Any:
    """Invoke a figure runner for one seed (worker entry point).

    Registry runners are already cache-wrapped (they carry a
    ``__cache_token__``) and handle their own memoization; bare
    module-level runners are memoized here so ``average_figure`` sweeps
    hit the cache too.
    """
    runner = task.runner
    kwargs = dict(task.kwargs)
    if getattr(runner, "__cache_token__", None) is not None:
        return runner(seed=task.seed, **kwargs)
    payload = (
        "run_figure",
        runcache.callable_token(runner),
        task.seed,
        task.kwargs,
    )
    return runcache.get_cache().memo(
        payload, lambda: runner(seed=task.seed, **kwargs)
    )


Outcome = Tuple[Any, Optional[TaskFailure], runcache.CacheStats]


def _run_one(fn: Callable[[Any], Any], index: int, task: Any) -> Outcome:
    """Run one task, capturing any exception instead of raising.

    Capturing on the worker side keeps a single bad seed from poisoning
    the pool (an unpicklable exception would otherwise break the executor)
    and preserves the worker-side traceback verbatim.  Also returns the
    run-cache stats delta of this task, so the parent's hit/miss report
    can cover lookups made in pool workers.
    """
    stats = runcache.get_cache().stats
    before = counts_of(stats)
    value, failure = None, None
    try:
        value = fn(task)
    except Exception as exc:  # noqa: BLE001 - reported via TaskFailure
        failure = TaskFailure(
            index=index,
            task=task,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
    return value, failure, runcache.CacheStats(**diff_counts(stats, before))


def _run_serial(fn: Callable[[Any], Any], tasks: List[Any]) -> List[Outcome]:
    return [_run_one(fn, i, task) for i, task in enumerate(tasks)]


def run_tasks(
    fn: Callable[[Any], Any], tasks: Sequence[Any], jobs: int = 1
) -> List[Any]:
    """Run ``fn(task)`` for every task; results come back in task order.

    With ``jobs > 1`` and more than one task, the tasks are mapped over a
    fresh ``ProcessPoolExecutor(min(jobs, len(tasks)))`` and the workers'
    run-cache stats are merged into this process's; otherwise they run
    serially here.  If a worker dies and breaks the pool, the whole batch
    reruns serially in this process.  Either way every task is attempted,
    and if any failed a :class:`ParallelExecutionError` aggregating all
    failures is raised after the batch completes.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        outcomes = _run_serial(fn, tasks)
    else:
        # Imported here: a serial run never pays for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(min(jobs, len(tasks))) as pool:
                run_one = functools.partial(_run_one, fn)
                outcomes = list(pool.map(run_one, range(len(tasks)), tasks))
        except BrokenProcessPool:
            outcomes = _run_serial(fn, tasks)
        else:
            parent_stats = runcache.get_cache().stats
            for _, _, delta in outcomes:
                parent_stats.merge(delta)

    failures = [failure for _, failure, _ in outcomes if failure is not None]
    if failures:
        raise ParallelExecutionError(failures)
    return [value for value, _, _ in outcomes]
