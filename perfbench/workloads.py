"""The benchmark's workloads, driven only through the program's public API.

A workload is a list of *cells*: one server built by ``build_server``,
``build_tenant_server`` or ``build_canonical`` and advanced by
``Server.run``.  Every cell seed is derived from the run's ``--seed``, so
the same seed always simulates the same inputs.  One *rep* runs every cell
once on freshly built servers (modelled caches start empty); the host time
of a rep is the sum of its cells' ``server.run`` sections, warm-up epochs
included.  Modelled metrics are read over ``RunResult.window`` and repeat
bit for bit across reps; :func:`sample_digest` lets every run check that
through a SHA-256 digest of the canonicalized epoch samples.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from statistics import fmean
from typing import Callable, Dict, List, Optional

from repro.experiments.harness import RunResult, Server
from repro.experiments.scenarios import build_server, microbenchmark_workloads
from repro.experiments.tenants import build_tenant_server, evaluate_slos
from repro.sim.sampling import SamplingPlan
from repro.telemetry.counters import StreamCounters
from repro.telemetry.pcm import KIND_CPU, KIND_NETWORK, PRIORITY_HIGH
from perf.scenarios import build_canonical

DEFAULT_SEED = 0xA4
HELD_OUT_SEED = 0x5EED
"""Seed reserved for checking a performance claim; never tune against it."""

TENANTS = 6
RATE_FLOOR = 0.01
"""Estimates whose mean is below this are left out of the sampled-error
check: a relative error against a near-zero rate measures noise, not
extrapolation (the same floor ``benchmarks/perf`` uses)."""
TRUE_ERR_METRICS = ("ipc", "llc_hit_rate", "mlc_miss_rate", "throughput")
_COUNTER_FIELDS = tuple(f.name for f in fields(StreamCounters))


@dataclass(frozen=True)
class Cell:
    """One server to build and run for ``epochs`` (``warmup`` excluded)."""

    seed: int
    build: Callable[[], Server]
    epochs: int
    warmup: int
    sampling: Optional[SamplingPlan] = None
    tenants: int = 0
    """Tenants the SLO report must cover (0: no SLO report)."""


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    cells: Callable[[int, bool], List[Cell]]
    """``(seed, tiny) -> cells``; ``tiny`` shrinks the run for tests."""
    rep_s: float
    """Nominal host seconds of one rep on the reference host; a run makes
    ``round(--seconds / rep_s)`` reps (at least :data:`MIN_REPS`)."""
    cells_per_segment: int = 1
    """Cells timed between two runs of the host-speed reference loop, so
    that every timed segment lasts about two seconds."""


MIN_REPS = 3


def cell_seeds(seed: int, count: int) -> List[int]:
    """``count`` cell seeds: the run seed itself, then draws from it."""
    rng = random.Random(seed)
    return [seed] + [rng.getrandbits(31) for _ in range(count - 1)]


def _io_mix_cells(seed: int, tiny: bool) -> List[Cell]:
    # Fig. 11's a4 / 1024 B cell at the figure's --quick length.
    count, epochs, warmup = (1, 3, 1) if tiny else (3, 14, 4)
    return [
        Cell(
            s,
            lambda s=s: build_server(
                microbenchmark_workloads(packet_bytes=1024), scheme="a4", seed=s
            ),
            epochs,
            warmup,
        )
        for s in cell_seeds(seed, count)
    ]


def _tenants_cpu_cells(seed: int, tiny: bool) -> List[Cell]:
    count, epochs, warmup = (1, 3, 1) if tiny else (48, 3, 1)
    return [
        Cell(
            s,
            lambda s=s: build_tenant_server(TENANTS, scheme="a4", seed=s),
            epochs,
            warmup,
            tenants=TENANTS,
        )
        for s in cell_seeds(seed, count)
    ]


def _long_sampled_cells(seed: int, tiny: bool) -> List[Cell]:
    epochs, plan = (
        (30, SamplingPlan(max_skip=8, error_budget=0.02))
        if tiny
        else (200, SamplingPlan(max_skip=32, error_budget=0.02))
    )
    return [Cell(seed, lambda: build_canonical(seed), epochs, 5, plan)]


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("io_mix", _io_mix_cells, rep_s=6.5),
        WorkloadSpec("tenants_cpu", _tenants_cpu_cells, rep_s=11.0,
                     cells_per_segment=8),
        WorkloadSpec("long_sampled", _long_sampled_cells, rep_s=2.1),
    )
}


def reps_for(spec: WorkloadSpec, seconds: float) -> int:
    """Reps of a measured run: fixed by ``--seconds``, never by host speed,
    so every run of a seed does the same work."""
    return max(MIN_REPS, round(seconds / spec.rep_s))


# -- one cell's outputs --------------------------------------------------------


@dataclass
class CellSummary:
    """What one cell contributes to the modelled metrics and checks."""

    digest: str
    events: int
    hp_ipc: List[float] = field(default_factory=list)
    hp_llc_hit: List[float] = field(default_factory=list)
    lp_ipc: List[float] = field(default_factory=list)
    net_p99: List[float] = field(default_factory=list)
    net_queueing: List[float] = field(default_factory=list)
    io_lines_per_cycle: float = 0.0
    nic_dropped: int = 0
    nic_offered: int = 0
    slo_met: int = 0
    slo_total: int = 0
    window: Dict[str, int] = field(default_factory=dict)
    """Window sums of the cache counters, over every stream."""
    window_cycles: float = 0.0
    mem_lines: int = 0
    sample_err_est: float = 0.0
    detailed_epochs: int = 0
    skipped_epochs: int = 0
    aggregates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def sample_digest(samples) -> str:
    """SHA-256 of the canonicalized epoch samples (every counter, latency
    statistic and memory count, streams in name order, floats exact)."""
    canon = []
    for sample in samples:
        streams = []
        for name in sorted(sample.streams):
            stream = sample.streams[name]
            lat = stream.latency
            streams.append(
                [
                    name,
                    [getattr(stream.counters, f) for f in _COUNTER_FIELDS],
                    [lat.count, lat.mean, lat.p50, lat.p99,
                     sorted(lat.components.items())],
                ]
            )
        canon.append(
            [sample.index, sample.time, sample.epoch_cycles,
             sample.mem_read_lines, sample.mem_write_lines, streams]
        )
    text = json.dumps(canon, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _check_rate(summary: CellSummary, label: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        summary.failures.append(f"{label}={value!r} outside [0, 1]")


def summarize(cell: Cell, result: RunResult, server: Server) -> CellSummary:
    """Modelled outputs and invariant checks of one finished cell."""
    summary = CellSummary(
        digest=sample_digest(result.samples), events=server.sim.events_executed
    )
    fail = summary.failures.append
    if summary.events <= 0:
        fail("no simulated events")
    infos = server.pcm.infos
    expected = {w.name for w in server.workloads}
    window = result.window
    if len(window) != cell.epochs - cell.warmup:
        fail(f"window has {len(window)} epochs, want {cell.epochs - cell.warmup}")
    for sample in window:
        missing = expected - set(sample.streams)
        if missing:
            fail(f"epoch {sample.index} lacks streams {sorted(missing)}")
            break
    totals = dict.fromkeys(
        ("mlc_hits", "mlc_misses", "llc_hits", "llc_misses",
         "migrations", "dma_bloats", "dma_leaks"), 0
    )
    for sample in window:
        summary.window_cycles += sample.epoch_cycles
        summary.mem_lines += sample.mem_read_lines + sample.mem_write_lines
        for stream in sample.streams.values():
            for key in totals:
                totals[key] += getattr(stream.counters, key)
    summary.window = totals
    for name in sorted(expected):
        agg = result.aggregate(name)
        info = infos[name]
        for rate in ("llc_hit_rate", "llc_miss_rate", "mlc_miss_rate",
                     "dca_miss_rate"):
            _check_rate(summary, f"{name}.{rate}", getattr(agg, rate))
        summary.aggregates[name] = {
            metric: getattr(agg, metric) for metric in TRUE_ERR_METRICS
        }
        if info.kind == KIND_CPU:
            if info.priority == PRIORITY_HIGH:
                summary.hp_ipc.append(agg.ipc)
                summary.hp_llc_hit.append(agg.llc_hit_rate)
            else:
                summary.lp_ipc.append(agg.ipc)
        else:
            summary.io_lines_per_cycle += agg.throughput
        if info.kind == KIND_NETWORK:
            summary.net_p99.append(agg.p99_latency)
            summary.net_queueing.append(agg.latency_components.get("queueing", 0.0))
            nic = server.workload(name).nic
            summary.nic_dropped += nic.packets_dropped
            summary.nic_offered += nic.packets_delivered + nic.packets_dropped
    if cell.tenants:
        slos = evaluate_slos(result, server.tenants())
        if len(slos) != cell.tenants:
            fail(f"SLO report covers {len(slos)} of {cell.tenants} tenants")
        summary.slo_met = sum(1 for row in slos if row.met)
        summary.slo_total = len(slos)
    report = result.sampling
    if cell.sampling is not None:
        if report is None:
            fail("sampled cell returned no sampling report")
        else:
            summary.sample_err_est = report.max_rel_err()
            budget_err = max(
                (
                    est.rel_err
                    for per_metric in report.estimates.values()
                    for est in per_metric.values()
                    if abs(est.mean) >= RATE_FLOOR
                ),
                default=0.0,
            )
            summary.detailed_epochs = report.detailed_epochs
            summary.skipped_epochs = report.skipped_epochs
            if budget_err > report.plan.error_budget:
                fail(
                    f"sampled error {budget_err:.4f} over the "
                    f"{report.plan.error_budget} budget"
                )
    else:
        summary.detailed_epochs = len(result.samples)
    return summary


# -- one rep -------------------------------------------------------------------


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    events: int
    cells: List[CellSummary]

    @property
    def digest(self) -> str:
        joined = ",".join(cell.digest for cell in self.cells)
        return hashlib.sha256(joined.encode()).hexdigest()

    @property
    def failures(self) -> List[str]:
        return [f for cell in self.cells for f in cell.failures]


def run_cell(cell: Cell, around=nullcontext):
    """Build ``cell`` fresh and time its ``server.run``: returns
    ``(wall_s, cpu_s, result, server)``.  ``around()`` wraps the timed
    call (the traced run passes its root span)."""
    server = cell.build()
    gc.collect()
    with around():
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result = server.run(
            epochs=cell.epochs, warmup=cell.warmup, sampling=cell.sampling
        )
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
    return wall, cpu, result, server


def run_rep(cells: List[Cell], around=nullcontext) -> Rep:
    rep = Rep(0.0, 0.0, 0, [])
    for cell in cells:
        wall, cpu, result, server = run_cell(cell, around)
        rep.wall_s += wall
        rep.cpu_s += cpu
        summary = summarize(cell, result, server)
        rep.events += summary.events
        rep.cells.append(summary)
    return rep


def true_max_rel_err(cell: Cell, sampled: CellSummary) -> float:
    """Worst relative error of a sampled cell's per-stream aggregates
    against an exact run of the same horizon and seed (rates below
    :data:`RATE_FLOOR` left out)."""
    exact_cell = Cell(cell.seed, cell.build, cell.epochs, cell.warmup)
    _, _, result, _ = run_cell(exact_cell)
    worst = 0.0
    for name, metrics in sampled.aggregates.items():
        exact = result.aggregate(name)
        for metric, estimate in metrics.items():
            reference = getattr(exact, metric)
            if abs(reference) >= RATE_FLOOR:
                worst = max(worst, abs(estimate - reference) / abs(reference))
    return worst


# -- modelled metrics ----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def modelled(cells: List[CellSummary]) -> Dict[str, float]:
    """The modelled outcomes of one rep, pooled over its cells.  Metrics a
    workload has no stream for read 0."""

    def mean(attr: str) -> float:
        values = [v for cell in cells for v in getattr(cell, attr)]
        return fmean(values) if values else 0.0

    def total(key: str) -> int:
        return sum(cell.window[key] for cell in cells)

    cycles = sum(cell.window_cycles for cell in cells)
    mlc = total("mlc_hits") + total("mlc_misses")
    llc = total("llc_hits") + total("llc_misses")
    return {
        "hpw_ipc": mean("hp_ipc"),
        "hpw_llc_hit": mean("hp_llc_hit"),
        "lpw_ipc": mean("lp_ipc"),
        "net_p99_cycles": mean("net_p99"),
        "net_drop_frac": _ratio(
            sum(c.nic_dropped for c in cells), sum(c.nic_offered for c in cells)
        ),
        "io_lines_per_kcycle": 1000.0 * fmean(c.io_lines_per_cycle for c in cells),
        "slo_met_frac": _ratio(
            sum(c.slo_met for c in cells), sum(c.slo_total for c in cells)
        ),
        "sample_err_est": max(c.sample_err_est for c in cells),
        "llc_hit_rate": _ratio(total("llc_hits"), llc),
        "mlc_miss_rate": _ratio(total("mlc_misses"), mlc),
        "migrations": total("migrations"),
        "dma_bloats": total("dma_bloats"),
        "dma_leaks": total("dma_leaks"),
        "mem_bw_lines_per_kcycle": 1000.0 * _ratio(
            sum(c.mem_lines for c in cells), cycles
        ),
        "nic_queueing_cycles": mean("net_queueing"),
    }
