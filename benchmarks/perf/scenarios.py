"""Macro-benchmarks: the canonical mixed NIC+NVMe server scenario.

``build_canonical`` is the workload combination every bench number refers
to: a DPDK-T network consumer (DDIO ingress + payload consumption, i.e.
migrations and DMA bloat) sharing the socket with an FIO storage reader
(NVMe DMA bursts).  It is deliberately a module-level function so the
parallel sweep runner can pickle it into worker processes.

Registered benchmarks:

* ``canonical``             — one seed, wall time + simulated-events/s;
* ``multi_seed``            — the paper's five-iteration methodology (§6)
  through :func:`repro.experiments.sweep.run_repeated`, serial loop;
  events are the *simulated* event count summed across seeds;
* ``multi_seed_parallel``   — the same sweep forced through a process
  pool (at least two workers), so the pool path is benchmarked too;
* ``cached_figure``         — a figure runner cold (simulating, populating
  a temp cache) then warm (pure cache replay); ``wall_s`` is the warm
  replay and ``cold_s``/``speedup`` record the win;
* ``platform_sweep``        — one small figure across every platform
  preset via :func:`repro.experiments.sweep.sweep_platforms` (cache
  disabled, so it measures real per-platform simulation);
* ``long_horizon``          — the canonical server over a long stationary
  horizon, simulated exactly epoch by epoch;
* ``sampled_long_horizon``  — the same horizon under
  representative-interval sampling; records wall/structural speedup and
  the true error vs the exact run (asserted <= the 2% budget);
* ``multi_tenant``          — the seeded 6-tenant SLO scenario under the
  A4 scheme: generator + phased traffic + per-request latency recording
  + SLO evaluation, the whole tenancy path end to end;
* ``trace_overhead``        — the canonical run with observability off
  and with in-process tracing; asserts the epoch samples are identical
  both ways (tracing-off parity) and records the traced wall time.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict

from repro.experiments import runcache
from repro.experiments.harness import Server
from repro.experiments.sweep import DEFAULT_SEEDS, run_repeated
from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW
from repro.workloads.dpdk import DpdkWorkload
from repro.workloads.fio import FioWorkload

MB = 1024 * 1024


def build_canonical(seed: int) -> Server:
    """The canonical mixed NIC+NVMe server: DPDK-T (HPW) + FIO (LPW)."""
    server = Server(cores=10, seed=seed)
    server.add_workload(
        DpdkWorkload(
            name="dpdk",
            touch=True,
            cores=4,
            packet_bytes=1024,
            priority=PRIORITY_HIGH,
        )
    )
    server.add_workload(
        FioWorkload(
            name="fio",
            block_bytes=1 * MB,
            cores=4,
            io_depth=16,
            priority=PRIORITY_LOW,
        )
    )
    return server


def bench_canonical(quick: bool) -> Dict[str, float]:
    epochs = 3 if quick else 6
    started = time.perf_counter()
    server = build_canonical(0xA4)
    server.run(epochs=epochs, warmup=1)
    wall = time.perf_counter() - started
    events = getattr(server.sim, "events_executed", 0)
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall else 0.0,
        "epochs": epochs,
    }


def _multi_seed(quick: bool, parallel: bool) -> Dict[str, float]:
    epochs = 3 if quick else 5
    seeds = DEFAULT_SEEDS[:3] if quick else DEFAULT_SEEDS
    kwargs = {}
    mode = "serial"
    if parallel:
        # At least two workers, so the pool path is exercised even on
        # single-CPU hosts (``jobs=1`` would run the seeds serially).
        workers = max(2, os.cpu_count() or 1)
        kwargs = {"jobs": workers}
        mode = f"parallel:{workers}"
    started = time.perf_counter()
    result = run_repeated(
        build_canonical, epochs=epochs, warmup=1, seeds=seeds, **kwargs
    )
    wall = time.perf_counter() - started
    # Simulated events summed across seeds (each worker reports its own
    # simulator's count), so events/s is comparable with ``canonical``.
    events = result.total_events
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall else 0.0,
        "seeds": len(result.seeds),
        "epochs": epochs,
        "mode": mode,
    }


def bench_multi_seed(quick: bool) -> Dict[str, float]:
    return _multi_seed(quick, parallel=False)


def bench_multi_seed_parallel(quick: bool) -> Dict[str, float]:
    return _multi_seed(quick, parallel=True)


def bench_cached_figure(quick: bool) -> Dict[str, float]:
    """Cold figure run (simulation + cache populate) vs warm replay.

    ``wall_s`` is the warm replay — the number the regression gate tracks;
    ``cold_s`` and ``speedup`` document the cache win in the record."""
    from repro.experiments.figures import REGISTRY

    epochs = 3 if quick else 6
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    saved_cache = runcache.get_cache()
    runcache.set_cache(runcache.RunCache(root=Path(cache_dir)))
    try:
        runner = REGISTRY["fig8b"]
        started = time.perf_counter()
        cold = runner(epochs=epochs, seed=0xA4)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = runner(epochs=epochs, seed=0xA4)
        warm_s = time.perf_counter() - started
        assert warm == cold, "cache replay diverged from the cold run"
        stats = runcache.get_cache().stats
        assert stats.hits >= 1, "warm invocation was not a cache hit"
    finally:
        runcache.set_cache(saved_cache)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "wall_s": warm_s,
        "cold_s": cold_s,
        "speedup": cold_s / warm_s if warm_s else 0.0,
        "events": 1,  # one figure replay
        "events_per_s": 1.0 / warm_s if warm_s else 0.0,
        "epochs": epochs,
    }


def bench_platform_sweep(quick: bool) -> Dict[str, float]:
    """One small figure across every platform preset, serially.

    Tracks the cost of the platform-sensitivity sweep path itself
    (`sweep_platforms` dispatch + per-preset simulation); ``events`` is
    the number of sweep cells so ``events_per_s`` reads as cells/s."""
    from repro.experiments.sweep import (
        DEFAULT_SWEEP_PLATFORMS,
        sweep_platforms,
    )

    epochs = 3 if quick else 6
    started = time.perf_counter()
    results = sweep_platforms(["fig3a"], epochs=epochs, seed=0xA4)
    wall = time.perf_counter() - started
    cells = len(results)
    assert cells == len(DEFAULT_SWEEP_PLATFORMS), "sweep dropped a preset"
    return {
        "wall_s": wall,
        "events": cells,
        "events_per_s": cells / wall if wall else 0.0,
        "platforms": cells,
        "epochs": epochs,
    }


def _long_horizon_config(quick: bool):
    """Epoch count + sampling plan for the long-horizon pair.

    Full mode is sized so the sampled run demonstrates the ISSUE-7 target
    (>=10x wall clock at <=2% error) on a stationary scenario; quick mode
    keeps the tier-1 quick run under a few seconds with a shorter skip leash."""
    from repro.sim.sampling import SamplingPlan

    if quick:
        return 60, SamplingPlan(max_skip=16, error_budget=0.02)
    return 200, SamplingPlan(max_skip=32, error_budget=0.02)


def _run_long_horizon(quick: bool, plan=None):
    epochs, default_plan = _long_horizon_config(quick)
    started = time.perf_counter()
    server = build_canonical(0xA4)
    result = server.run(epochs=epochs, warmup=5, sampling=plan)
    wall = time.perf_counter() - started
    return wall, epochs, server, result


def _sampled_true_error(exact, sampled) -> float:
    """Worst relative error of the sampled aggregates vs the exact run.

    Metrics whose exact magnitude is below 0.01 are excluded: relative
    error against a near-zero denominator (e.g. the storage reader's
    ~1e-3 LLC hit rate in the unmanaged mix) measures noise amplification,
    not extrapolation quality — absolute drift there is negligible."""
    worst = 0.0
    for name in exact.stream_names():
        exact_agg = exact.aggregate(name)
        sampled_agg = sampled.aggregate(name)
        for metric in ("ipc", "llc_hit_rate", "throughput"):
            reference = getattr(exact_agg, metric)
            if abs(reference) < 0.01:
                continue
            estimate = getattr(sampled_agg, metric)
            worst = max(worst, abs(estimate - reference) / abs(reference))
    return worst


def bench_long_horizon(quick: bool) -> Dict[str, float]:
    """Exact long-horizon run of the canonical server (the 10-100x
    motivation case: many stationary epochs simulated one by one)."""
    wall, epochs, server, _ = _run_long_horizon(quick)
    events = server.sim.events_executed
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall else 0.0,
        "epochs": epochs,
    }


def bench_sampled_long_horizon(quick: bool) -> Dict[str, float]:
    """The same horizon under representative-interval sampling.

    Runs exact *and* sampled so the record carries the measured wall
    speedup and the true (not just estimated) error; asserts the error
    budget holds, so a sampler regression fails the bench outright.
    ``wall_s`` (the gated number) is the sampled run."""
    epochs, plan = _long_horizon_config(quick)
    exact_wall, _, _, exact = _run_long_horizon(quick)
    started = time.perf_counter()
    server = build_canonical(0xA4)
    sampled = server.run(epochs=epochs, warmup=5, sampling=plan)
    wall = time.perf_counter() - started
    report = sampled.sampling
    true_err = _sampled_true_error(exact, sampled)
    assert true_err <= plan.error_budget, (
        f"sampled long-horizon error {true_err:.4f} blew the "
        f"{plan.error_budget:.2f} budget"
    )
    events = server.sim.events_executed
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall else 0.0,
        "epochs": epochs,
        "exact_wall_s": exact_wall,
        "wall_speedup_vs_exact": exact_wall / wall if wall else 0.0,
        "structural_speedup": report.speedup_estimate,
        "detailed_epochs": report.detailed_epochs,
        "skipped_epochs": report.skipped_epochs,
        "max_rel_err_true": true_err,
        "max_rel_err_reported": report.max_rel_err(),
    }


def bench_trace_overhead(quick: bool) -> Dict[str, float]:
    """Tracing-off parity and the cost of in-process tracing.

    Runs the canonical scenario twice — observability disabled, then
    in-process tracing — and asserts the epoch samples are identical: the
    layer observes the simulation, it never perturbs it.  ``wall_s`` (the
    gated number) is the tracing-off run; the traced wall time is recorded
    alongside."""
    from repro import obsv

    epochs = 4 if quick else 8

    def one_run():
        server = build_canonical(0xA4)
        started = time.perf_counter()
        result = server.run(epochs=epochs, warmup=1)
        return server, result, time.perf_counter() - started

    obsv.disable()
    _, baseline, off_wall = one_run()

    obsv.enable()
    try:
        server, traced, traced_wall = one_run()
    finally:
        obsv.disable()
    assert traced.samples == baseline.samples, (
        "in-process tracing perturbed the simulation"
    )

    events = server.sim.events_executed
    return {
        "wall_s": off_wall,
        "events": events,
        "events_per_s": events / off_wall if off_wall else 0.0,
        "epochs": epochs,
        "traced_wall_s": traced_wall,
    }


def bench_multi_tenant(quick: bool) -> Dict[str, float]:
    """The seeded 6-tenant scenario end to end: N-tenant generator,
    phased traffic with per-request latency recording, A4 management,
    and the per-tenant SLO evaluation — the whole tenancy path."""
    from repro.experiments.tenants import build_tenant_server, evaluate_slos

    epochs = 4 if quick else 10
    tenants = 6
    started = time.perf_counter()
    server = build_tenant_server(tenants, scheme="a4", seed=0xA4)
    result = server.run(epochs)
    slos = evaluate_slos(result, server.tenants())
    wall = time.perf_counter() - started
    assert len(slos) == tenants, "SLO report dropped a tenant"
    events = server.sim.events_executed
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall else 0.0,
        "epochs": epochs,
        "tenants": tenants,
        "slos_met": sum(1 for row in slos if row.met),
    }


MACRO_BENCHMARKS = {
    "canonical": bench_canonical,
    "multi_seed": bench_multi_seed,
    "multi_seed_parallel": bench_multi_seed_parallel,
    "cached_figure": bench_cached_figure,
    "platform_sweep": bench_platform_sweep,
    "long_horizon": bench_long_horizon,
    "sampled_long_horizon": bench_sampled_long_horizon,
    "multi_tenant": bench_multi_tenant,
    "trace_overhead": bench_trace_overhead,
}
