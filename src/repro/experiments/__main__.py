"""Command-line figure regeneration.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig3a fig5
    python -m repro.experiments --all
    python -m repro.experiments --all --quick     # reduced epochs
    python -m repro.experiments --all --jobs 4    # figures across 4 processes

``--quick`` trims epochs for a fast sanity pass; default lengths match the
EXPERIMENTS.md numbers.  ``--jobs N`` (N > 1) fans the selected figures out
over a process pool via :mod:`repro.experiments.parallel`; output order is
unchanged.

``--platform NAME`` runs the selected figures on a
:mod:`repro.platform` preset (``skylake-sp`` — the default, bit-identical
to the historical constants — ``cascadelake-sp``, ``icelake-sp``, or a
``base+dcaN`` DCA-width variant).  ``--sweep-ways N [N ...]`` instead runs
each selected figure across *every* preset plus ``skylake-sp+dcaN``
variants — the platform-sensitivity sweep — and closes with a summary
table.

Completed figures are memoized in the content-addressed run cache
(``.repro-cache/`` by default): rerunning the same figure with unchanged
code and parameters replays the stored result instead of simulating.
``--no-cache`` disables the cache for this invocation; ``--cache-dir``
relocates it.  The closing run report prints hit/miss counters.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import obsv
from repro.experiments import runcache
from repro.experiments.errors import SweepConfigError
from repro.experiments.figures import REGISTRY
from repro.experiments.figures.base import ENV_CHECKPOINT_DIR
from repro.experiments.parallel import (
    FigureTask,
    dispatch_stats,
    run_figure,
    run_tasks,
)
from repro.platform import get_platform

QUICK_KWARGS = {
    "fig3a": dict(epochs=6),
    "fig3b": dict(epochs=6),
    "fig4": dict(epochs=6),
    "fig5": dict(epochs=5),
    "fig6": dict(epochs=6),
    "fig7": dict(epochs=6),
    "fig8a": dict(epochs=6),
    "fig8b": dict(epochs=6),
    "fig11": dict(epochs=14, warmup=4),
    "fig12": dict(epochs=14, warmup=4),
    "fig13a": dict(epochs=18, warmup=5),
    "fig13b": dict(epochs=18, warmup=5),
    "fig14": dict(epochs=18, warmup=5),
    "fig15a": dict(epochs=16, warmup=5),
    "fig15b": dict(epochs=16, warmup=5),
    "fig15c": dict(epochs=24, warmup=5),
    "ablation-migration": dict(epochs=5),
    "ablation-platforms": dict(epochs=5),
    "ablation-write-update": dict(epochs=5),
    "ablation-replacement": dict(epochs=5),
    "ablation-trash-floor": dict(epochs=5),
    "ablation-tenants": dict(epochs=8),
    "related-self-invalidation": dict(epochs=5),
    "related-ddio-ways": dict(epochs=5),
}


EXPORTED_ENV = (
    runcache.ENV_CACHE_DIR,
    runcache.ENV_CACHE_DISABLE,
    runcache.ENV_FAULT_INTENSITY,
    ENV_CHECKPOINT_DIR,
)
"""Variables the CLI exports so pool workers inherit its settings."""


def main(argv=None) -> int:
    """Run the CLI, then hand back :data:`EXPORTED_ENV` as it found it, so
    an in-process call leaves no faults, checkpointing or cache override
    behind for whatever runs next."""
    saved = {name: os.environ.get(name) for name in EXPORTED_ENV}
    try:
        return _main(argv)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("figures", nargs="*", help="figure ids (e.g. fig3a fig13a)")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument("--quick", action="store_true", help="reduced epochs")
    parser.add_argument("--seed", type=int, default=0xA4)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run figures across N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed run cache (always re-simulate)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"run-cache directory (default: {runcache.DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--platform",
        default=None,
        help="run on this microarchitecture preset (skylake-sp, "
        "cascadelake-sp, icelake-sp, or base+dcaN for a DCA-width "
        "variant); passed to every selected figure that takes a "
        "platform parameter",
    )
    parser.add_argument(
        "--sweep-ways",
        nargs="+",
        type=int,
        default=None,
        metavar="N",
        help="platform-sensitivity sweep: run the selected figures across "
        "every preset plus skylake-sp+dcaN variants for each N, then "
        "print a summary table (honours --jobs)",
    )
    parser.add_argument(
        "--sample",
        action="store_true",
        help="representative-interval sampling: skip stationary epochs and "
        "extrapolate, for 10-100x faster long-horizon runs; passed to "
        "every selected figure that takes a sampling parameter "
        "(others warn and run exact)",
    )
    parser.add_argument(
        "--error-budget",
        type=float,
        default=0.02,
        help="target max relative error of sampled aggregates "
        "(default: 0.02; only meaningful with --sample)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="checkpoint/restore directory: run_setup-based figures "
        "snapshot periodically and resume interrupted runs from the "
        "newest checkpoint (exported as $REPRO_CHECKPOINT_DIR so pool "
        "workers inherit it)",
    )
    parser.add_argument(
        "--fault-intensity",
        type=float,
        default=None,
        help="enable deterministic fault injection at this intensity "
        "(exported as $REPRO_FAULT_INTENSITY so pool workers inherit it; "
        "results are cached under a separate key)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable the observability layer and write the event trace "
        "as JSONL to PATH (inspect with tools/obsv.py)",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        default=None,
        help="also write the trace as Chrome trace-event JSON "
        "(load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="enable the observability layer and write the metrics "
        "registry as Prometheus text to PATH (plus a JSON snapshot "
        "at PATH.json)",
    )
    args = parser.parse_args(argv)

    if args.fault_intensity is not None:
        if args.fault_intensity < 0:
            print("--fault-intensity must be >= 0", file=sys.stderr)
            return 2
        os.environ[runcache.ENV_FAULT_INTENSITY] = str(args.fault_intensity)

    if args.checkpoint_dir is not None:
        os.environ[ENV_CHECKPOINT_DIR] = args.checkpoint_dir

    sampling_plan = None
    if args.sample:
        from repro.sim.sampling import SamplingPlan

        try:
            sampling_plan = SamplingPlan(error_budget=args.error_budget)
        except ValueError as exc:
            print(f"--error-budget: {exc}", file=sys.stderr)
            return 2

    cache = runcache.configure(
        cache_dir=args.cache_dir,
        enabled=False if args.no_cache else None,
    )

    obsv_on = bool(args.trace or args.chrome_trace or args.metrics_out)
    if obsv_on:
        obsv.enable()
        obsv.set_registry(None)  # fresh registry per invocation

    def export_obsv() -> None:
        """Flush trace / metrics files (called before every return path).

        Note: with ``--jobs > 1`` events from pool workers are not
        captured — each worker process has its own (disabled) tracer;
        traces cover the parent process only."""
        if not obsv_on:
            return
        from repro.obsv import export as obsv_export
        from repro.obsv.metrics import collect_process, get_registry

        tracer = obsv.TRACER
        if args.trace:
            count = obsv_export.write_jsonl(tracer.events, args.trace)
            print(f"[trace: {count} events -> {args.trace}"
                  f"{f' ({tracer.dropped} dropped)' if tracer.dropped else ''}]")
        if args.chrome_trace:
            obsv_export.write_chrome_trace(tracer.events, args.chrome_trace)
            print(f"[chrome trace -> {args.chrome_trace}]")
        if args.metrics_out:
            registry = collect_process(get_registry())
            if obsv.PROFILER is not None:
                obsv.PROFILER.into_registry(registry)
            registry.gauge(
                "repro_trace_events", help="events in the trace ring"
            ).set(len(tracer))
            registry.gauge(
                "repro_trace_dropped_total", help="events evicted from the ring"
            ).set(tracer.dropped)
            obsv_export.write_prometheus(registry, args.metrics_out)
            import json as _json

            with open(args.metrics_out + ".json", "w") as fh:
                _json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
            print(f"[metrics -> {args.metrics_out} (+ .json snapshot)]")

    if args.list:
        for name in REGISTRY:
            print(name)
        return 0

    targets = list(REGISTRY) if args.all else args.figures
    if not targets:
        parser.print_help()
        return 2
    unknown = [t for t in targets if t not in REGISTRY]
    if unknown:
        print(f"unknown figures: {unknown}; use --list", file=sys.stderr)
        return 2

    if args.platform is not None:
        try:
            get_platform(args.platform)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

    def kwargs_for(name: str) -> dict:
        kwargs = {}
        if args.quick:
            kwargs.update(QUICK_KWARGS.get(name, {}))
        if sampling_plan is not None:
            from repro.experiments.sweep import _accepts

            if _accepts(REGISTRY[name], "sampling"):
                kwargs["sampling"] = sampling_plan
            else:
                print(
                    f"[{name}: no sampling parameter; running exact]",
                    file=sys.stderr,
                )
        return kwargs

    if args.sweep_ways is not None:
        from repro.experiments.sweep import (
            platform_sweep_summary,
            sweep_platforms,
        )

        started = time.time()
        results = {}
        try:
            for name in targets:
                results.update(
                    sweep_platforms(
                        [name],
                        dca_ways=tuple(args.sweep_ways),
                        seed=args.seed,
                        parallel=args.jobs > 1,
                        max_workers=args.jobs if args.jobs > 1 else None,
                        **kwargs_for(name),
                    )
                )
        except SweepConfigError as exc:
            print(exc, file=sys.stderr)
            return 2
        for (name, platform_name), result in results.items():
            print(result.render())
            print(f"[{name} @ {platform_name}]\n")
        print(platform_sweep_summary(results).render())
        print(
            f"[{len(results)} sweep cells done in "
            f"{time.time() - started:.1f}s]"
        )
        print(f"[run cache: {cache.stats.summary()}]")
        export_obsv()
        return 0

    def platform_kwargs(name: str) -> dict:
        """``--platform`` for runners that accept it (warn on the rest)."""
        if args.platform is None:
            return {}
        from repro.experiments.sweep import _accepts_platform

        if not _accepts_platform(REGISTRY[name]):
            print(
                f"[{name}: no platform parameter; running on the default]",
                file=sys.stderr,
            )
            return {}
        return {"platform": args.platform}

    if args.jobs > 1 and len(targets) > 1:
        tasks = [
            FigureTask(
                REGISTRY[name],
                args.seed,
                tuple({**kwargs_for(name), **platform_kwargs(name)}.items()),
            )
            for name in targets
        ]
        started = time.time()
        results = run_tasks(run_figure, tasks, max_workers=args.jobs)
        for name, result in zip(targets, results):
            print(result.render())
            print(f"[{name}]\n")
        print(
            f"[{len(targets)} figures done in {time.time() - started:.1f}s "
            f"across {args.jobs} jobs]"
        )
        print(f"[run cache: {cache.stats.summary()}]")
        print(f"[dispatch: {dispatch_stats.summary()}]")
        export_obsv()
        return 0

    for name in targets:
        runner = REGISTRY[name]
        kwargs = dict(
            seed=args.seed, **kwargs_for(name), **platform_kwargs(name)
        )
        started = time.time()
        result = runner(**kwargs)
        print(result.render())
        print(f"[{name} done in {time.time() - started:.1f}s]\n")
    print(f"[run cache: {cache.stats.summary()}]")
    export_obsv()
    return 0


if __name__ == "__main__":
    sys.exit(main())
