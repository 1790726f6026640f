#!/usr/bin/env python3
"""Benchmark of the A4 reproduction: simulator cost and modelled outcomes.

    python3 perfbench/run.py --workload io_mix [--seed 164] [--seconds 20] [--trace 0]

Run from the repository root.  Workloads: ``io_mix``, ``tenants_cpu``,
``long_sampled`` (see ``perfbench/README.md``).  Each run starts fresh
interpreters with a pinned environment: a few set-up probes that only
import and build a server (``setup_s``), then one process that makes the
measured reps.  With ``--trace 1`` that process also makes one rep with the
per-layer span ledger installed and the result carries the per-layer
metrics instead of the end-to-end ones.  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A rep
whose checks fail, or whose epoch-sample digest differs from the first
rep's, counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from reference import normalize  # noqa: E402

SETUP_PROBES = 8
"""Fresh processes that only import and build a server; half run before
the measured process and half after it, so one burst of host load cannot
move every probe."""
DEADLINE_S = 170.0

# Unit of a metric by the end of its name; the first match wins.
UNIT_RULES = (
    ("_pct", "%"), ("per_kcycle", "lines/kcycle"), ("_per_s", "1/s"),
    ("_mb", "MB"), ("_s", "s"), ("_cycles", "cycles"), ("ipc", "instr/cycle"),
    (".lines", "lines"), ("_frac", "frac"), ("_rate", "frac"), ("_hit", "frac"),
    ("_err", "frac"), ("_est", "frac"),
)


def unit_of(name: str) -> str:
    for suffix, unit in UNIT_RULES:
        if name.endswith(suffix):
            return unit
    return "count"


class ChildError(RuntimeError):
    pass


def pinned_env() -> dict:
    """The caller's environment without ``REPRO_*`` and ``PYTHON*``
    variables, plus the settings every measured process runs under."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        REPRO_CACHE_DISABLE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "benchmarks")),
    )
    return env


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_child(args, env, extra, deadline: float) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise ChildError(proc.stderr.strip()[-4000:] or f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(args, env, deadline: float) -> dict:
    started = time.monotonic()
    record = run_child(args, env, ["--setup"], deadline)
    record["raw_setup_s"] = record["built_at"] - started
    record["setup_s"] = normalize(record["raw_setup_s"], record["ref_cpu_s"])
    return record


def count_failed(reps) -> int:
    first = reps[0]["digest"]
    return sum(1 for rep in reps if rep["failures"] or rep["digest"] != first)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0xA4)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [d for d in ("src/repro", "benchmarks/perf") if not (ROOT / d).is_dir()]
    if missing:
        print(f"perfbench: {ROOT} lacks {', '.join(missing)}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = pinned_env()
    try:
        run_child(args, env, ["--setup"], deadline)  # compiles bytecode; untimed
        probes = [setup_probe(args, env, deadline)
                  for _ in range(SETUP_PROBES // 2)]
        extra = ["--seconds", str(args.seconds)]
        if args.trace:
            extra.append("--trace")
        out = run_child(args, env, extra, deadline)
        probes += [setup_probe(args, env, deadline)
                   for _ in range(SETUP_PROBES - len(probes))]
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    reps = out["reps"]
    host = out["host"]
    print(f"perfbench {args.workload} seed={args.seed} reps={len(reps)} "
          f"git={git_revision()} python={sys.version.split()[0]} "
          f"have_numpy={host['have_numpy']} "
          f"calibration_ops_per_s={host['calibration_ops_per_s']:.0f}")
    setup = statistics.median(p["setup_s"] for p in probes)
    raw_setup = statistics.median(p["raw_setup_s"] for p in probes)
    print(f"setup: median {setup:.4f} s normalized, {raw_setup:.4f} s raw, "
          f"over {SETUP_PROBES} fresh processes")
    for i, rep in enumerate(reps, 1):
        print(f"rep {i}: wall {rep['wall_s']:.4f} s  cpu {rep['cpu_s']:.4f} s  "
              f"(raw {rep['raw_wall_s']:.4f} / {rep['raw_cpu_s']:.4f} s, "
              f"reference {rep['ref_cpu_s']:.4f} s)  events {rep['events']}  "
              f"digest {rep['digest'][:16]}"
              + (f"  FAILED: {'; '.join(rep['failures'])}" if rep["failures"] else ""))
    print("modelled: " + "  ".join(
        f"{k}={fmt(v)} {unit_of(k)}" for k, v in out["modelled"].items()))
    print(f"digest: {reps[0]['digest']}")

    if args.trace:
        trace = out["trace"]
        traced = trace["rep"]
        print(f"traced: {traced['cpu_s']:.4f} s cpu, {trace['spans']} spans "
              f"-> {trace['spans_path']}  digest {traced['digest'][:16]}")
        print("top self time: " + ", ".join(
            f"{name} {100 * share:.1f}%" for name, _, share in trace["top_self"]))
        for failure in trace["failures"]:
            print(f"traced FAILED: {failure}")
        values = dict(trace["layers"])
        values["experiments.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["experiments.build_server_s"] = statistics.median(
            p["build_s"] for p in probes)
        attempted = len(reps) + 1
        failed = count_failed(reps) + (1 if trace["failures"] else 0)
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "sim_events_per_s": statistics.median(
                r["events"] / r["cpu_s"] for r in reps),
            "setup_s": setup,
            "peak_rss_mb": out["peak_rss_mb"],
            "llc_hit_rate": out["modelled"]["llc_hit_rate"],
        }
        attempted = len(reps)
        failed = count_failed(reps)
        print("end-to-end: " + "  ".join(
            f"{k}={fmt(v)} {unit_of(k)}" for k, v in values.items()))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
