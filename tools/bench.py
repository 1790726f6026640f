#!/usr/bin/env python
"""Performance-regression harness.

Runs the micro/macro benchmarks under ``benchmarks/perf/``, writes a
``BENCH_<date>.json`` record at the repo root, and compares wall times
against the most recent previous record:

    python tools/bench.py                  # full run, compare, write record
    python tools/bench.py --quick          # small sizes (tier-1 runs it)
    python tools/bench.py --no-compare     # skip the regression gate
    python tools/bench.py --only canonical multi_seed
    python tools/bench.py --out /tmp/b.json --baseline BENCH_2026-08-06.json
    python tools/bench.py --compare A.json B.json --fail-below 0.95

The regression gate fails (exit 1) when any shared benchmark got slower
than ``--threshold`` (default 0.85: >15%% slower than the previous record).
Records never overwrite each other: a same-day rerun writes
``BENCH_<date>.2.json`` and compares against the earlier file, so the
repo's ``BENCH_*`` files form the bench trajectory across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT / "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

# Benchmarks measure simulation, not cache replay: disable the run cache
# for this process and any pool workers it spawns.  The ``cached_figure``
# scenario re-enables it locally against a temp dir to measure the replay
# path itself.
os.environ["REPRO_CACHE_DISABLE"] = "1"

from perf import ALL_BENCHMARKS  # noqa: E402  (needs sys.path above)

BENCH_GLOB = "BENCH_*.json"
SCHEMA = 1
CALIBRATION_OPS = 200_000


def calibrate(repeats: int = 5) -> float:
    """Host-speed reference: ops/s of a fixed interpreter-bound loop.

    Stored in every record and used to *normalize* cross-record speedups:
    if the whole host is 20% slower (background load, a weaker CI
    runner), every benchmark wall inflates together with this loop, so
    dividing the two cancels machine speed and leaves only real code
    drift.  Best-of-``repeats`` like the micro benchmarks."""
    best = None
    for _ in range(repeats):
        d = {}
        s = 0
        started = time.perf_counter()
        for i in range(CALIBRATION_OPS):
            d[i & 255] = i
            s += d[i & 255] ^ (i >> 3)
        wall = time.perf_counter() - started
        if best is None or wall < best:
            best = wall
    return CALIBRATION_OPS / best if best else 0.0


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def default_out_path() -> Path:
    """``BENCH_<date>.json``, suffixed ``.N`` when earlier runs exist today."""
    stem = f"BENCH_{date.today().isoformat()}"
    candidate = ROOT / f"{stem}.json"
    counter = 2
    while candidate.exists():
        candidate = ROOT / f"{stem}.{counter}.json"
        counter += 1
    return candidate


def bench_records(exclude: Path) -> list[Path]:
    """Existing records, oldest first (date in the name, then suffix)."""

    def sort_key(path: Path):
        match = re.match(r"BENCH_(\d{4}-\d{2}-\d{2})(?:\.(\d+))?\.json$", path.name)
        if not match:
            return ("", 0, path.name)
        return (match.group(1), int(match.group(2) or 1), path.name)

    records = [
        p
        for p in ROOT.glob(BENCH_GLOB)
        if p.resolve() != exclude.resolve()
    ]
    return sorted(records, key=sort_key)


def run_benchmarks(names, quick: bool) -> dict:
    results = {}
    for name in names:
        fn = ALL_BENCHMARKS[name]
        print(f"  running {name} ...", end="", flush=True)
        started = time.perf_counter()
        results[name] = fn(quick)
        print(f" {results[name]['wall_s']:.3f}s wall")
        results[name]["harness_s"] = time.perf_counter() - started
    return results


def _calibration_scale(current: dict, previous: dict) -> float | None:
    """baseline/current host-speed ratio, or None when either record
    predates calibration.  Multiplying a raw wall-time speedup by this
    cancels uniform machine-speed differences (see :func:`calibrate`)."""
    base = previous.get("calibration_ops_per_s")
    cur = current.get("calibration_ops_per_s")
    if not base or not cur:
        return None
    return base / cur


def compare(
    current: dict, previous: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """Render a comparison table; returns (lines, regressed names)."""
    scale = _calibration_scale(current, previous)
    norm_col = f" {'norm':>6}" if scale is not None else ""
    lines = [
        f"{'benchmark':<12} {'wall_s':>9} {'prev':>9} {'speedup':>8}"
        f"{norm_col}  {'events/s':>12}"
    ]
    if scale is not None:
        lines.insert(
            0,
            f"host speed vs baseline: {1 / scale:.2f}x "
            "(gate uses calibration-normalized speedups)",
        )
    regressed = []
    prev_results = previous.get("results", {})
    comparable = previous.get("quick", False) == current["quick"]
    for name, entry in current["results"].items():
        prev = prev_results.get(name)
        if prev and comparable and entry["wall_s"] > 0:
            speedup = prev["wall_s"] / entry["wall_s"]
            gated = speedup if scale is None else speedup * scale
            mark = ""
            if gated < threshold:
                regressed.append(name)
                mark = "  << REGRESSION"
            norm = f" {gated:>5.2f}x" if scale is not None else ""
            lines.append(
                f"{name:<12} {entry['wall_s']:>9.3f} {prev['wall_s']:>9.3f} "
                f"{speedup:>7.2f}x{norm}  {entry['events_per_s']:>12,.0f}{mark}"
            )
        else:
            note = "(no comparable baseline)" if not (prev and comparable) else ""
            lines.append(
                f"{name:<12} {entry['wall_s']:>9.3f} {'-':>9} {'-':>8}"
                f"{' ' * 7 if scale is not None else ''}  "
                f"{entry['events_per_s']:>12,.0f} {note}"
            )
    return lines, regressed


def compare_records(path_a: Path, path_b: Path, fail_below: float) -> int:
    """``--compare A B``: per-scenario drift table, no benchmarks run.

    B is judged against A (A is the baseline).  Returns exit status 1 when
    any shared scenario's speedup (A wall / B wall) falls below
    ``fail_below``, so a PR 5-style regression is flagged from two existing
    records without re-running anything.
    """
    with open(path_a) as handle:
        baseline = json.load(handle)
    with open(path_b) as handle:
        current = json.load(handle)
    if baseline.get("quick", False) != current.get("quick", False):
        print(
            "warning: comparing a quick record against a full record; "
            "wall times are not on the same scale"
        )
    base_results = baseline.get("results", {})
    cur_results = current.get("results", {})
    scale = _calibration_scale(current, baseline)
    print(
        f"baseline {path_a.name} (git {baseline.get('git', '?')})  vs  "
        f"{path_b.name} (git {current.get('git', '?')})"
    )
    if scale is not None:
        print(
            f"host speed vs baseline: {1 / scale:.2f}x "
            "(gate uses calibration-normalized speedups)"
        )
    norm_col = f" {'norm':>6}" if scale is not None else ""
    lines = [
        f"{'benchmark':<20} {'base_s':>9} {'cur_s':>9} {'speedup':>8}"
        f"{norm_col}  {'base ev/s':>12} {'cur ev/s':>12}"
    ]
    regressed = []
    for name, base in base_results.items():
        cur = cur_results.get(name)
        if cur is None:
            lines.append(f"{name:<20} {base['wall_s']:>9.3f} {'-':>9} "
                         f"{'-':>8}  (dropped)")
            continue
        speedup = base["wall_s"] / cur["wall_s"] if cur["wall_s"] else 0.0
        gated = speedup if scale is None else speedup * scale
        mark = ""
        if gated < fail_below:
            regressed.append(name)
            mark = "  << REGRESSION"
        norm = f" {gated:>5.2f}x" if scale is not None else ""
        lines.append(
            f"{name:<20} {base['wall_s']:>9.3f} {cur['wall_s']:>9.3f} "
            f"{speedup:>7.2f}x{norm}  {base['events_per_s']:>12,.0f} "
            f"{cur['events_per_s']:>12,.0f}{mark}"
        )
    for name, cur in cur_results.items():
        if name not in base_results:
            lines.append(
                f"{name:<20} {'-':>9} {cur['wall_s']:>9.3f} {'-':>8}  "
                f"{'(new)':>12} {cur['events_per_s']:>12,.0f}"
            )
    print("\n".join(lines))
    if regressed:
        print(
            f"FAIL: {', '.join(regressed)} below {fail_below:.2f}x of "
            f"{path_a.name}"
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench.py",
        description="Run the perf benchmarks and gate on regressions.",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        type=Path,
        metavar=("A.json", "B.json"),
        help="compare two existing records (A = baseline) and exit; "
        "no benchmarks are run",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=0.85,
        help="with --compare: minimum A-to-B speedup per scenario before "
        "exiting 1 (default 0.85)",
    )
    parser.add_argument("--quick", action="store_true", help="small sizes (smoke)")
    parser.add_argument(
        "--no-compare", action="store_true", help="skip the regression gate"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.85,
        help="minimum speedup vs previous record before failing (default 0.85)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run benchmarks that fail the gate up to N times, keeping "
        "the fastest wall; a regression must reproduce on every retry to "
        "fail the run (damps background-load bursts on shared hosts)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help=f"subset of benchmarks (have: {', '.join(ALL_BENCHMARKS)})",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="record path (default BENCH_<date>.json)"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="explicit record to compare against (default: latest BENCH_*.json)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run with the observability profiler attached and print the "
        "per-phase wall/cycle attribution after the benchmarks (measures "
        "tracing-on overhead; do not gate on these numbers)",
    )
    args = parser.parse_args(argv)

    if args.compare:
        path_a, path_b = args.compare
        for path in (path_a, path_b):
            if not path.exists() and not path.is_absolute():
                path = ROOT / path
            if not path.exists():
                parser.error(f"record {path} does not exist")
        path_a, path_b = (
            p if p.exists() else ROOT / p for p in (path_a, path_b)
        )
        return compare_records(path_a, path_b, args.fail_below)

    if args.profile:
        from repro import obsv

        obsv.enable()

    names = list(ALL_BENCHMARKS)
    if args.only:
        unknown = [n for n in args.only if n not in ALL_BENCHMARKS]
        if unknown:
            parser.error(f"unknown benchmarks: {unknown}; have {list(ALL_BENCHMARKS)}")
        names = list(args.only)

    out_path = args.out if args.out else default_out_path()
    mode = "quick" if args.quick else "full"
    print(f"bench: {mode} run of {len(names)} benchmarks -> {out_path.name}")
    record = {
        "schema": SCHEMA,
        "date": date.today().isoformat(),
        "timestamp": time.time(),
        "git": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "calibration_ops_per_s": calibrate(),
        "results": run_benchmarks(names, args.quick),
    }

    status = 0
    if not args.no_compare:
        if args.baseline is not None:
            baseline_path = args.baseline
            if not baseline_path.is_absolute():
                baseline_path = ROOT / baseline_path
            if not baseline_path.exists():
                parser.error(f"baseline {baseline_path} does not exist")
        else:
            previous = bench_records(exclude=out_path)
            baseline_path = previous[-1] if previous else None
        if baseline_path is None:
            print("no previous BENCH_*.json record; nothing to compare against")
        else:
            with open(baseline_path) as handle:
                baseline = json.load(handle)
            print(f"comparing against {Path(baseline_path).name} "
                  f"(git {baseline.get('git', '?')})")
            lines, regressed = compare(record, baseline, args.threshold)
            print("\n".join(lines))
            attempts = 0
            while regressed and attempts < args.retries:
                attempts += 1
                print(
                    f"retrying {', '.join(regressed)} "
                    f"(attempt {attempts}/{args.retries}): a real "
                    "regression reproduces, a load burst does not"
                )
                rerun = run_benchmarks(regressed, args.quick)
                for name, entry in rerun.items():
                    if entry["wall_s"] < record["results"][name]["wall_s"]:
                        record["results"][name] = entry
                # The host may have sped up since the first calibration
                # (the burst ended); re-measure so normalization tracks it.
                record["calibration_ops_per_s"] = max(
                    record["calibration_ops_per_s"], calibrate()
                )
                lines, regressed = compare(record, baseline, args.threshold)
                print("\n".join(lines))
            record["baseline"] = Path(baseline_path).name
            if regressed:
                print(
                    f"FAIL: at least one benchmark slower than "
                    f"{args.threshold:.2f}x of the previous record"
                )
                status = 1
    else:
        for name, entry in record["results"].items():
            print(
                f"{name:<12} {entry['wall_s']:>9.3f}s wall  "
                f"{entry['events_per_s']:>12,.0f} events/s"
            )

    if args.profile:
        from repro import obsv

        if obsv.PROFILER is not None and obsv.PROFILER.phases:
            print("\nengine attribution by controller phase:")
            print(obsv.PROFILER.table())
        record["profile"] = (
            obsv.PROFILER.snapshot() if obsv.PROFILER is not None else {}
        )
        if args.out is None:
            # A tracing-on record must not become a future run's baseline.
            print("(profile run: record not written; pass --out to keep it)")
            return status

    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
