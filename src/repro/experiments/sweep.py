"""Multi-seed repetition and averaging.

The paper averages every result over five iterations (§6).  This module
provides the equivalent: run a server-builder or a figure runner across
seeds and average the numeric outputs, reporting spread so users can judge
simulation noise (the paper makes the same point about X-Mem's run-to-run
variance in its artifact appendix).  :func:`sweep_platforms` runs figures
across platform presets the same way.  Every sweep takes ``jobs``: with
``jobs > 1`` its runs fan out over that many worker processes through
:func:`repro.experiments.parallel.run_tasks`, with identical results.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments.errors import FigureShapeError, SweepConfigError
from repro.experiments.harness import Server
from repro.experiments.parallel import (
    FigureTask,
    SeedTask,
    run_figure,
    run_tasks,
    seed_metrics,
)
from repro.experiments.report import FigureResult
from repro.platform import get_platform

DEFAULT_SEEDS = (0xA4, 0xA5, 0xA6, 0xA7, 0xA8)
"""Five iterations, like the paper."""

DEFAULT_SWEEP_PLATFORMS = ("skylake-sp", "cascadelake-sp", "icelake-sp")
"""The preset registry, in the order the sensitivity sweep visits it."""


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


@dataclass
class MetricStats:
    mean: float
    stdev: float
    values: List[float] = field(default_factory=list)

    @property
    def rel_spread(self) -> float:
        return self.stdev / abs(self.mean) if self.mean else 0.0


@dataclass
class MultiSeedResult:
    """Per-stream metric statistics across seeds."""

    seeds: Sequence[int]
    streams: Dict[str, Dict[str, MetricStats]]
    mem_total_bw: MetricStats
    total_events: int = 0
    """Simulated events executed across all seeds, as reported by each
    seed's simulation (a memoized summary carries the count from the run
    that originally produced it)."""

    def metric(self, stream: str, name: str) -> MetricStats:
        return self.streams[stream][name]


def run_repeated(
    build: Callable[[int], Server],
    epochs: int,
    warmup: int,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int = 1,
) -> MultiSeedResult:
    """Run ``build(seed)`` for each seed and collect metric statistics.

    ``build`` must return a fully configured (workloads + manager) server.
    With ``jobs > 1`` the seeds run across that many worker processes
    (``build`` must then be a module-level callable so it pickles); results
    are identical to the serial path because both assemble the same
    per-seed summaries in seed order.
    """
    if not seeds:
        raise SweepConfigError("need at least one seed")
    tasks = [SeedTask(build, epochs, warmup, seed) for seed in seeds]
    summaries = run_tasks(seed_metrics, tasks, jobs)
    per_stream: Dict[str, Dict[str, List[float]]] = {}
    mem_values: List[float] = []
    total_events = 0
    for mem_total_bw, streams, events in summaries:
        mem_values.append(mem_total_bw)
        total_events += events
        for name, metrics in streams.items():
            bucket = per_stream.setdefault(name, {})
            for field_name, value in metrics.items():
                bucket.setdefault(field_name, []).append(value)
    return MultiSeedResult(
        seeds=tuple(seeds),
        streams={
            name: {
                metric: MetricStats(mean(vals), stdev(vals), vals)
                for metric, vals in metrics.items()
            }
            for name, metrics in per_stream.items()
        },
        mem_total_bw=MetricStats(mean(mem_values), stdev(mem_values), mem_values),
        total_events=total_events,
    )


def average_figure(
    runner: Callable[..., FigureResult],
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int = 1,
    **kwargs,
) -> FigureResult:
    """Run a figure runner once per seed and average its numeric cells.

    Rows are matched by position (every figure runner is deterministic in
    row order); non-numeric cells are taken from the first run.  With
    ``jobs > 1`` the seeds run across that many worker processes
    (``runner`` must be module-level so it pickles).
    """
    if not seeds:
        raise SweepConfigError("need at least one seed")
    tasks = [
        FigureTask(runner, seed, tuple(kwargs.items())) for seed in seeds
    ]
    results = run_tasks(run_figure, tasks, jobs)
    first = results[0]
    for other in results[1:]:
        if len(other.rows) != len(first.rows):
            raise FigureShapeError(
                "figure runners must be deterministic in shape"
            )
    averaged = FigureResult(
        figure=first.figure,
        title=f"{first.title} (mean of {len(seeds)} seeds)",
        columns=first.columns,
        notes=list(first.notes),
    )
    for index, row in enumerate(first.rows):
        out = {}
        for column, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[column] = mean(
                    [float(r.rows[index][column]) for r in results]
                )
            else:
                out[column] = value
        averaged.add_row(**out)
    return averaged


# -- platform sensitivity --------------------------------------------------


@dataclass(frozen=True)
class PlatformTask:
    """One (figure, platform) cell of a platform-sensitivity sweep.

    ``platform`` is a preset name (possibly with a ``+dcaN`` suffix) rather
    than a spec object so the descriptor stays tiny and trivially picklable;
    the worker resolves it through the preset registry."""

    figure_id: str
    platform: str
    seed: int
    kwargs: Tuple[Tuple[str, Any], ...] = ()


def run_platform_figure(task: PlatformTask) -> FigureResult:
    """Worker entry point: run one registry figure on one platform.

    Goes through the registry's cache-through wrapper, so the platform name
    lands in the run-cache key alongside the figure id and kwargs."""
    from repro.experiments.figures import REGISTRY

    runner = REGISTRY[task.figure_id]
    return runner(
        seed=task.seed, platform=task.platform, **dict(task.kwargs)
    )


def _accepts(runner, param: str) -> bool:
    """True if a registry runner's underlying function takes ``param``."""
    fn = runner._resolve() if hasattr(runner, "_resolve") else runner
    return param in inspect.signature(fn).parameters


def _accepts_platform(runner) -> bool:
    """True if a registry runner's underlying function takes ``platform``."""
    return _accepts(runner, "platform")


def sweep_platforms(
    figures: Sequence[str],
    platforms: Sequence[str] = DEFAULT_SWEEP_PLATFORMS,
    dca_ways: Sequence[int] = (),
    dca_base: str = "skylake-sp",
    seed: int = 0xA4,
    jobs: int = 1,
    **kwargs,
) -> Dict[Tuple[str, str], FigureResult]:
    """Run each figure on each platform (presets × DCA-way variants).

    ``dca_ways`` appends ``dca_base+dcaN`` variants — the paper's "what if
    DDIO had N ways" question — to the platform list.  Results come back as
    an insertion-ordered ``{(figure_id, platform_name): FigureResult}``;
    with ``jobs > 1`` the cells fan out over that many worker processes
    (identical results either way, same guarantee as ``run_repeated``).
    """
    from repro.experiments.figures import REGISTRY

    names = list(platforms) + [f"{dca_base}+dca{n}" for n in dca_ways]
    if not figures or not names:
        raise SweepConfigError("need at least one figure and one platform")
    for name in names:
        get_platform(name)  # fail fast on unknown presets / bad variants
    for figure_id in figures:
        if figure_id not in REGISTRY:
            raise SweepConfigError(f"unknown figure {figure_id!r}")
        if not _accepts_platform(REGISTRY[figure_id]):
            raise SweepConfigError(
                f"figure {figure_id!r} does not take a platform parameter"
            )
    tasks = [
        PlatformTask(figure_id, name, seed, tuple(sorted(kwargs.items())))
        for figure_id in figures
        for name in names
    ]
    results = run_tasks(run_platform_figure, tasks, jobs)
    return {
        (task.figure_id, task.platform): result
        for task, result in zip(tasks, results)
    }


def platform_sweep_summary(
    results: Dict[Tuple[str, str], FigureResult],
) -> FigureResult:
    """Condense a :func:`sweep_platforms` result into one table: the mean
    of each figure's numeric columns per platform (a coarse sensitivity
    read-out; the per-cell tables carry the detail)."""
    summary = FigureResult(
        figure="Platform sweep",
        title="per-platform mean of each figure's numeric columns",
        columns=["figure", "platform", "column", "mean"],
    )
    for (figure_id, platform_name), result in results.items():
        for column in result.columns:
            values = [
                float(row[column])
                for row in result.rows
                if isinstance(row[column], (int, float))
                and not isinstance(row[column], bool)
            ]
            if values:
                summary.add_row(
                    figure=figure_id,
                    platform=platform_name,
                    column=column,
                    mean=mean(values),
                )
    return summary
