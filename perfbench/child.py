"""One benchmark process: a set-up probe, a measured run or a traced run.

``run.py`` starts this file in a fresh interpreter with a pinned
environment; it prints one JSON object as its last line of output.

    child.py --workload W --seed N --setup              # build, report times
    child.py --workload W --seed N --seconds S          # measured reps
    child.py --workload W --seed N --seconds S --trace  # plus one traced rep

``--tiny`` shrinks every workload for the benchmark's own tests.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402  (imports are part of what --setup times)
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from ledger import ROOT_SPAN, Ledger  # noqa: E402
from reference import normalize, reference_loop  # noqa: E402
from workloads import (  # noqa: E402
    MIN_REPS,
    WORKLOADS,
    Rep,
    modelled,
    reps_for,
    run_rep,
    true_max_rel_err,
)

IMPORTED = time.monotonic()

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

# Span names whose calls and self time the traced run reports.
TIMED_SPANS = (
    "sim.run_until", "sim.time_shift", "sampling.run",
    "cache.cpu_access", "cache.cpu_access_run", "cache.dma_write_burst",
    "cache.dma_write_multi", "cache.dma_read",
    "uncore.iio.inbound_write_burst", "uncore.iio.inbound_write_multi",
    "uncore.memory.read", "uncore.memory.write",
    "devices.nvme.submit", "telemetry.pcm.sample", "core.on_epoch",
)
BATCHED_SPANS = ("cache.cpu_access_run", "cache.dma_write_burst",
                 "cache.dma_write_multi")
MODEL_METRICS = ("hpw_ipc", "hpw_llc_hit", "lpw_ipc", "net_p99_cycles",
                 "net_drop_frac", "io_lines_per_kcycle", "slo_met_frac",
                 "sample_err_est")


def rep_record(rep: Rep, wall_s: float, cpu_s: float, ref_s: float) -> dict:
    """A rep's outcome with its normalized and raw times."""
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "raw_wall_s": rep.wall_s,
        "raw_cpu_s": rep.cpu_s,
        "ref_cpu_s": ref_s,
        "events": rep.events,
        "digest": rep.digest,
        "failures": rep.failures,
    }


def bracketed_rep(spec, cells, before: float, around=nullcontext):
    """One rep whose cells are timed in segments, each between two runs of
    the reference loop and normalized by their mean; ``before`` is the
    reference time that precedes the first segment.  Returns the rep's
    record, its :class:`Rep` and the last reference time."""
    rep = Rep(0.0, 0.0, 0, [])
    wall = cpu = 0.0
    refs = []
    step = spec.cells_per_segment
    for first in range(0, len(cells), step):
        part = run_rep(cells[first:first + step], around)
        after = reference_loop()
        ref = (before + after) / 2
        wall += normalize(part.wall_s, ref)
        cpu += normalize(part.cpu_s, ref)
        refs.append(ref)
        rep.wall_s += part.wall_s
        rep.cpu_s += part.cpu_s
        rep.events += part.events
        rep.cells += part.cells
        before = after
    return rep_record(rep, wall, cpu, statistics.fmean(refs)), rep, before


def host_record() -> dict:
    """Host-speed calibration from ``tools/bench.py`` and the numpy switch."""
    from repro.sim import batch

    bench_py = HERE.parent / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("repro_tools_bench", bench_py)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return {
        "have_numpy": batch.HAVE_NUMPY,
        "calibration_ops_per_s": bench.calibrate(repeats=3),
    }


def layer_metrics(ledger: Ledger, totals: dict, rep: Rep,
                  overhead_pct: float, true_err: float) -> dict:
    def entry(name: str) -> dict:
        return totals.get(name, {})

    out = {}
    for name in TIMED_SPANS:
        out[f"{name}.calls"] = entry(name).get("calls", 0)
        out[f"{name}.self_s"] = entry(name).get("self_s", 0.0)
    for name in BATCHED_SPANS:
        out[f"{name}.lines"] = entry(name).get("lines", 0)
    run_lines = out["cache.cpu_access_run.lines"]
    scalar = ledger.calls_under("cache.cpu_access", "cache.cpu_access_run")
    out["cache.cpu_access_run.collapsed_frac"] = (
        (run_lines - scalar) / run_lines if run_lines else 0.0
    )
    for name in ("core.set_ways", "core.set_port_dca"):
        out[f"{name}.calls"] = entry(name).get("calls", 0)
    out["devices.packetgen.packets"] = entry("devices.packetgen.packets").get(
        "calls", 0
    )
    out[f"{ROOT_SPAN}.self_s"] = entry(ROOT_SPAN).get("self_s", 0.0)
    model = modelled(rep.cells)
    out["sim.events"] = rep.events
    for name in ("mlc_miss_rate", "llc_hit_rate", "migrations", "dma_bloats",
                 "dma_leaks"):
        out[f"cache.{name}"] = model[name]
    out["uncore.mem_bw_lines_per_kcycle"] = model["mem_bw_lines_per_kcycle"]
    out["devices.nic.queueing_cycles"] = model["nic_queueing_cycles"]
    out["sampling.detailed_epochs"] = sum(c.detailed_epochs for c in rep.cells)
    out["sampling.skipped_epochs"] = sum(c.skipped_epochs for c in rep.cells)
    out["sampling.true_max_rel_err"] = true_err
    out["obsv.trace_overhead_pct"] = overhead_pct
    for name in MODEL_METRICS:
        out[f"model.{name}"] = model[name]
    return out


def top_self(totals: dict, total: float, count: int = 3) -> list:
    ranked = sorted(
        ((v["self_s"], k) for k, v in totals.items() if "self_s" in v),
        reverse=True,
    )
    return [[name, self_s, self_s / total] for self_s, name in ranked[:count]]


def traced(spec, cells, args, untraced: list) -> dict:
    """The traced rep and the per-layer metrics derived from it;
    ``untraced`` holds the records of the reps made just before."""
    ledger = Ledger(f"{spec.name}-{args.seed}-{os.getpid()}")
    ledger.install()
    try:
        record, rep, _ = bracketed_rep(spec, cells, reference_loop(), ledger.root)
    finally:
        ledger.uninstall()
    untraced_cpu = statistics.median(r["cpu_s"] for r in untraced)
    overhead_pct = 100.0 * (record["cpu_s"] / untraced_cpu - 1.0)
    failures = list(rep.failures)
    if rep.digest != untraced[0]["digest"]:
        failures.append("traced digest differs from the untraced one")
    totals = ledger.totals()
    self_sum = sum(v.get("self_s", 0.0) for v in totals.values())
    traced_total = ledger.traced_total_s()
    if abs(self_sum - traced_total) > 1e-6 * max(1.0, traced_total):
        failures.append(
            f"self times sum to {self_sum!r}, traced total {traced_total!r}"
        )
    true_err = 0.0
    for cell, summary in zip(cells, rep.cells):
        if cell.sampling is not None:
            true_err = max(true_err, true_max_rel_err(cell, summary))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{spec.name}-{args.seed}.jsonl.gz"
    spans = ledger.write_jsonl(spans_path)
    return {
        "rep": record,
        "failures": failures,
        "layers": layer_metrics(ledger, totals, rep, overhead_pct, true_err),
        "top_self": top_self(totals, traced_total),
        "traced_total_s": traced_total,
        "spans": spans,
        "spans_path": str(spans_path.relative_to(HERE.parent)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    cells = spec.cells(args.seed, args.tiny)

    if args.setup:
        cells[0].build()
        built = time.monotonic()
        print(json.dumps({
            "built_at": built,
            "import_s": IMPORTED - STARTED,
            "build_s": built - IMPORTED,
            "ref_cpu_s": reference_loop(),
        }))
        return 0

    count = reps_for(spec, args.seconds)
    if args.trace:
        count = MIN_REPS  # enough for the untraced median the overhead needs
    record, first, before = bracketed_rep(spec, cells, reference_loop())
    records = [record]
    for _ in range(count - 1):
        record, _, before = bracketed_rep(spec, cells, before)
        records.append(record)
    out = {
        "reps": records,
        "modelled": modelled(first.cells),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        out["trace"] = traced(spec, cells, args, out["reps"])
    out["host"] = host_record()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
