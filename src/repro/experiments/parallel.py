"""Process-pool execution of multi-seed sweeps and figure batches.

Seeds of a :func:`repro.experiments.sweep.run_repeated` sweep and the
per-seed runs behind :func:`repro.experiments.sweep.average_figure` are
embarrassingly parallel: each builds its own :class:`Server`, runs it, and
reduces to a small numeric summary.  This module fans those runs out over a
:class:`concurrent.futures.ProcessPoolExecutor`.

Design constraints, in order of importance:

* **Bit-identical results.**  Workers return plain picklable summaries
  (floats keyed by stream/metric, or a :class:`FigureResult`), assembled on
  the parent in task order.  The serial path runs the *same* task functions
  in the same order, so ``parallel=True`` and ``parallel=False`` produce
  identical objects — :mod:`tests.test_parallel` locks this.
* **Picklability.**  Task descriptors are frozen dataclasses holding only
  module-level callables and primitives; the worker entry points
  (:func:`seed_metrics`, :func:`run_figure`, :func:`_run_one`) are
  module-level functions.
* **Graceful degradation.**  ``parallel=False`` (the default everywhere),
  ``max_workers<=1``, or a single-CPU host all fall back to a plain loop in
  the calling process — no pool, no forked interpreters.
* **Per-task error capture.**  A failing task does not abort its siblings;
  every task runs to completion and failures are re-raised together as a
  :class:`ParallelExecutionError` carrying per-task tracebacks, each
  classified through :func:`repro.experiments.errors.classify`.
* **Warm pools.**  The executor is module-level and reused across batches
  (multi-figure ``--jobs`` runs previously paid pool startup per batch).
  Workers are warmed by an initializer that imports the experiment stack
  and inherits the parent's run-cache settings; dispatch is chunked so a
  large batch costs ``O(workers)`` round-trips, not ``O(tasks)``.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import runcache
from repro.experiments.errors import classify
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
    """A captured per-task error (exception text + formatted traceback),
    classified into a coarse ``category`` (``config`` / ``resources`` /
    ``allocation`` / ``figure`` / ``runtime``) via
    :mod:`repro.experiments.errors`.  ``digest`` is the content fingerprint
    of the offending task's configuration, so a failure deep inside a
    pooled sweep names exactly which config produced it."""

    index: int
    task: Any
    error: str
    traceback: str
    category: str = "runtime"
    digest: str = ""


def task_digest(task: Any) -> str:
    """Short content digest of a task descriptor (12 hex chars), built on
    the run cache's canonical form so it is stable across processes."""
    try:
        return runcache.fingerprint(task)[:12]
    except Exception:  # noqa: BLE001 - a digest must never mask the error
        return "unfingerprintable"


class ParallelExecutionError(RuntimeError):
    """One or more tasks failed; ``failures`` holds every captured error."""

    def __init__(self, failures: Sequence[TaskFailure]):
        self.failures = tuple(failures)
        lines = [f"{len(self.failures)} task(s) failed:"]
        for failure in self.failures:
            where = f" (config {failure.digest})" if failure.digest else ""
            lines.append(
                f"  task[{failure.index}] [{failure.category}]{where}: "
                f"{failure.error}"
            )
        super().__init__("\n".join(lines))

    def categories(self) -> Dict[str, int]:
        """Failure count per category (for run reports)."""
        counts: Dict[str, int] = {}
        for failure in self.failures:
            counts[failure.category] = counts.get(failure.category, 0) + 1
        return counts


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
    over :data:`METRIC_FIELDS`.  Both the serial and the parallel path of
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


def _run_one(
    fn: Callable[[Any], Any], index: int, task: Any
) -> Tuple[int, Any, Optional[TaskFailure]]:
    """Run one task, capturing any exception instead of raising.

    Capturing on the worker side keeps a single bad seed from poisoning
    the pool (an unpicklable exception would otherwise break the executor)
    and preserves the worker-side traceback verbatim.
    """
    try:
        return index, fn(task), None
    except Exception as exc:  # noqa: BLE001 - reported via TaskFailure
        return index, None, TaskFailure(
            index=index,
            task=task,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            category=classify(exc),
            digest=task_digest(task),
        )


def _run_chunk(
    fn: Callable[[Any], Any], chunk: Sequence[Tuple[int, Any]]
) -> Tuple[List[Tuple[int, Any, Optional[TaskFailure]]], runcache.CacheStats]:
    """Worker side of chunked dispatch: run a slice of the batch.

    Also returns the worker's cache-stats delta for this chunk so the
    parent's hit/miss report covers pool-side lookups."""
    stats = runcache.get_cache().stats
    before = counts_of(stats)
    outcomes = [_run_one(fn, index, task) for index, task in chunk]
    delta = runcache.CacheStats(**diff_counts(stats, before))
    return outcomes, delta


# -- the warm pool ---------------------------------------------------------


_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0


def _worker_warmup(environ: Dict[str, str]) -> None:
    """Pool initializer: inherit cache settings and pre-import the hot
    modules so the first real task does not pay import cost."""
    os.environ.update(environ)
    # Imports only; the modules' import side effects build the generated
    # counter snapshot code and register figure runners.
    from repro.experiments import harness, scenarios  # noqa: F401

    runcache.get_cache()


def _cache_environ() -> Dict[str, str]:
    """The parent's run-cache settings, as env for worker initializers."""
    cache = runcache.get_cache()
    return {
        runcache.ENV_CACHE_DIR: str(cache.root),
        runcache.ENV_CACHE_DISABLE: "" if cache.enabled else "1",
    }


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, created on first use and reused across batches.

    A request for a different worker count (or a previously broken pool)
    tears the old executor down and starts a fresh one.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers == workers:
        return _pool
    shutdown_pool()
    _pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_warmup,
        initargs=(_cache_environ(),),
    )
    _pool_workers = workers
    return _pool


def shutdown_pool(wait: bool = True) -> None:
    """Tear down the shared executor (atexit, tests, broken-pool reset).

    ``wait=False`` abandons it instead — used after a dispatch timeout,
    when joining a hung worker would wedge the parent too.  Outstanding
    futures are cancelled; an already-hung worker process is left to the
    OS."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=wait, cancel_futures=not wait)
        _pool = None
        _pool_workers = 0


def recycle_if_broken() -> bool:
    """Replace the warm pool if a dead worker has poisoned it.

    A :class:`BrokenProcessPool` marks the executor permanently broken;
    every later submit fails instantly.  Rather than leaving the *next*
    batch to discover that, the batch dispatcher below recycles eagerly
    after a pool failure: tear the broken executor down and warm a fresh
    one with the same worker count.  Returns True when a recycle happened;
    counted in :data:`dispatch_stats` (and from there exported by
    ``obsv.collect_process``)."""
    global _pool
    if _pool is None or not getattr(_pool, "_broken", False):
        return False
    workers = _pool_workers
    shutdown_pool()
    get_pool(workers)
    dispatch_stats.pool_recycles += 1
    return True


atexit.register(shutdown_pool)


# -- dispatch robustness ----------------------------------------------------


ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT"
DEFAULT_TASK_TIMEOUT = 600.0
"""Per-chunk dispatch timeout (seconds).  Generous: a chunk is tens of
simulation runs; the timeout exists to catch a *wedged* worker (deadlocked
fork, livelocked import), not a slow one."""


@dataclass
class DispatchStats:
    """Pool-dispatch incidents, surfaced in the figures CLI run report."""

    timeouts: int = 0
    """Chunks whose worker missed the dispatch timeout."""
    retried_tasks: int = 0
    """Tasks re-run serially in-parent after a timeout."""
    broken_pools: int = 0
    """Whole-batch serial fallbacks after a dead worker."""
    pool_recycles: int = 0
    """Broken executors proactively replaced with warm ones."""
    backoff_seconds: float = 0.0
    """Total time spent backing off before dispatch retries."""

    def reset(self) -> None:
        self.timeouts = 0
        self.retried_tasks = 0
        self.broken_pools = 0
        self.pool_recycles = 0
        self.backoff_seconds = 0.0

    def summary(self) -> str:
        return (
            f"{self.timeouts} timeouts, {self.retried_tasks} tasks retried, "
            f"{self.broken_pools} pool fallbacks, "
            f"{self.pool_recycles} pool recycles"
        )


dispatch_stats = DispatchStats()
"""Process-wide dispatch accounting (reset via ``dispatch_stats.reset()``)."""


BACKOFF_BASE_S = 0.2
"""Backoff before the first dispatch retry; doubles per attempt."""

BACKOFF_CAP_S = 5.0
"""Cap on the doubled backoff, applied before jitter."""

BACKOFF_JITTER = 0.25
"""Max relative perturbation of the backoff (0.25 = +/-25%)."""


def backoff_delay(attempt: int, token: str) -> float:
    """Seconds to wait before re-running stranded or pool-broken tasks
    after ``attempt`` failures: ``BACKOFF_BASE_S * 2^(attempt-1)`` capped
    at ``BACKOFF_CAP_S``, then perturbed by up to ``+/- BACKOFF_JITTER``.

    The jitter is a pure function of ``(token, attempt)`` (a SHA-256 of
    both, never a live RNG or the clock), so a retried batch backs off on
    the same schedule every time and stays reproducible."""
    if attempt < 1:
        return 0.0
    raw = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (attempt - 1)))
    digest = hashlib.sha256(f"{token}\0{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)  # [0, 1)
    return raw * (1.0 + BACKOFF_JITTER * (2.0 * unit - 1.0))


def _backoff(attempt: int, token: str) -> None:
    """Sleep :func:`backoff_delay` before a dispatch retry (recorded in
    :data:`dispatch_stats` so run reports show time lost to backoff)."""
    delay = backoff_delay(attempt, token)
    if delay > 0:
        dispatch_stats.backoff_seconds += delay
        time.sleep(delay)


def _resolve_timeout(task_timeout: Optional[float]) -> Optional[float]:
    """Effective per-chunk timeout: explicit arg, else ``$REPRO_TASK_TIMEOUT``,
    else the default; ``0`` or negative disables the timeout entirely."""
    if task_timeout is None:
        raw = os.environ.get(ENV_TASK_TIMEOUT, "").strip()
        task_timeout = float(raw) if raw else DEFAULT_TASK_TIMEOUT
    return task_timeout if task_timeout > 0 else None


# -- the engine ------------------------------------------------------------


def resolve_workers(n_tasks: int, max_workers: Optional[int] = None) -> int:
    """Effective worker count: ``min(tasks, max_workers or cpu_count)``."""
    limit = max_workers if max_workers is not None else (os.cpu_count() or 1)
    return max(1, min(n_tasks, limit))


def _chunked(items: Sequence[Any], n_chunks: int) -> List[List[Any]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, near-even runs."""
    n_chunks = max(1, min(n_chunks, len(items)))
    size, extra = divmod(len(items), n_chunks)
    chunks: List[List[Any]] = []
    start = 0
    for c in range(n_chunks):
        end = start + size + (1 if c < extra else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    parallel: bool = True,
    max_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> List[Any]:
    """Run ``fn(task)`` for every task; results come back in task order.

    With ``parallel=True`` and more than one effective worker the tasks
    run across the shared warm :class:`ProcessPoolExecutor` (chunked: each
    worker receives one contiguous slice of the batch); otherwise they run
    serially in this process.  Either way every task is attempted, and if
    any failed a :class:`ParallelExecutionError` aggregating all failures
    is raised after the batch completes.

    A chunk whose worker exceeds ``task_timeout`` seconds (default
    :data:`DEFAULT_TASK_TIMEOUT`, override via ``$REPRO_TASK_TIMEOUT``;
    ``<= 0`` disables) is presumed wedged: the executor is abandoned
    without joining it and the stranded tasks are retried exactly once,
    serially, in the parent.  Incidents are counted in
    :data:`dispatch_stats` for the run report.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    workers = resolve_workers(len(tasks), max_workers)
    results: List[Any] = [None] * len(tasks)
    failures: List[TaskFailure] = []

    if not parallel or workers <= 1:
        outcomes = (_run_one(fn, i, task) for i, task in enumerate(tasks))
    else:
        chunks = _chunked(list(enumerate(tasks)), workers)
        timeout = _resolve_timeout(task_timeout)
        try:
            pool = get_pool(workers)
            futures = [
                pool.submit(_run_chunk, fn, chunk) for chunk in chunks
            ]
            outcomes = []
            stranded: List[Tuple[int, Any]] = []
            parent_stats = runcache.get_cache().stats
            for future, chunk in zip(futures, chunks):
                try:
                    chunk_outcomes, chunk_stats = future.result(timeout=timeout)
                except FutureTimeoutError:
                    dispatch_stats.timeouts += 1
                    stranded.extend(chunk)
                    continue
                outcomes.extend(chunk_outcomes)
                parent_stats.merge(chunk_stats)
            if stranded:
                # The worker is wedged, not slow: joining it would wedge
                # us too.  Abandon the executor (no join), back off per
                # :func:`backoff_delay` (the pool's workers may be
                # contending for whatever starved the first attempt),
                # then run the stranded tasks once, serially, where they
                # cannot hang silently.
                shutdown_pool(wait=False)
                dispatch_stats.retried_tasks += len(stranded)
                _backoff(1, task_digest(tuple(i for i, _ in stranded)))
                outcomes.extend(
                    _run_one(fn, index, task) for index, task in stranded
                )
        except BrokenProcessPool:
            # A dead worker (OOM-kill etc.) poisons the executor; recycle
            # it (warm replacement for the next batch), back off, and run
            # this batch once in-process rather than failing.
            dispatch_stats.broken_pools += 1
            if not recycle_if_broken():
                shutdown_pool()
            _backoff(1, task_digest(len(tasks)))
            outcomes = (_run_one(fn, i, task) for i, task in enumerate(tasks))

    for index, value, failure in outcomes:
        if failure is not None:
            failures.append(failure)
        else:
            results[index] = value

    if failures:
        raise ParallelExecutionError(failures)
    return results
