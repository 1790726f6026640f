"""Tests of the benchmark's own pieces, at tiny sizes.

    python -m pytest perfbench
"""

import json
import os
import resource
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT / "benchmarks", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import run  # noqa: E402
from ledger import ROOT_SPAN, Ledger  # noqa: E402
from reference import REFERENCE_S, normalize, reference_loop  # noqa: E402
from repro.cache.hierarchy import CacheHierarchy  # noqa: E402
from repro.experiments.harness import Server  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS, cell_seeds, run_rep  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_rep(name: str, seed: int, around=nullcontext):
    return run_rep(WORKLOADS[name].cells(seed, True), around)


def traced_rep(name: str, seed: int = 7):
    ledger = Ledger("test")
    ledger.install()
    try:
        rep = tiny_rep(name, seed, ledger.root)
    finally:
        ledger.uninstall()
    return ledger, rep


def test_same_seed_same_digest_and_other_seed_differs():
    first = tiny_rep("io_mix", 7)
    assert not first.failures
    assert tiny_rep("io_mix", 7).digest == first.digest
    assert tiny_rep("io_mix", 8).digest != first.digest


def test_seed_reaches_the_tenant_planner():
    assert tiny_rep("tenants_cpu", 7).digest != tiny_rep("tenants_cpu", 8).digest
    assert cell_seeds(HELD_OUT_SEED, 3)[0] == HELD_OUT_SEED
    assert cell_seeds(7, 3) == cell_seeds(7, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_never_perturbs_the_simulation(name):
    original = CacheHierarchy.__dict__["cpu_access"]
    untraced = tiny_rep(name, 7)
    ledger, traced = traced_rep(name)
    assert traced.digest == untraced.digest
    assert not traced.failures
    assert CacheHierarchy.__dict__["cpu_access"] is original
    # Self times tile the traced total.
    totals = ledger.totals()
    self_sum = sum(v.get("self_s", 0.0) for v in totals.values())
    assert self_sum == pytest.approx(ledger.traced_total_s(), rel=1e-9)
    assert totals[ROOT_SPAN]["calls"] == len(WORKLOADS[name].cells(7, True))


def test_collapsed_lines_are_the_run_lines_no_scalar_call_took():
    ledger = Ledger("test")
    ledger.install()
    try:
        hierarchy = Server(cores=2).hierarchy
        with ledger.root():
            for _ in range(2):  # a cold scan misses, the warm rescan hits
                hierarchy.cpu_access_run(0.0, 0, range(64), "scan")
    finally:
        ledger.uninstall()
    assert ledger.totals()["cache.cpu_access_run"]["lines"] == 128
    assert ledger.calls_under("cache.cpu_access", "cache.cpu_access_run") == 64


def test_each_workload_loads_its_layers():
    dma = ("cache.dma_write_burst", "cache.dma_write_multi", "cache.dma_read",
           "uncore.iio.inbound_write_burst", "uncore.iio.inbound_write_multi")
    tenants = traced_rep("tenants_cpu")[0].totals()
    assert all(tenants[name]["calls"] == 0 for name in dma)
    assert tenants["cache.cpu_access"]["calls"] > 0
    io = traced_rep("io_mix")[0].totals()
    for name in ("cache.dma_write_burst", "cache.dma_write_multi", "core.set_ways"):
        assert io[name]["calls"] > 0, name
    sampled = tiny_rep("long_sampled", 7).cells[0]
    assert sampled.skipped_epochs > sampled.detailed_epochs


def test_reference_loop_runs_outside_the_measuring_process():
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert reference_loop() > 0
    # Its ~10 MB of cache lines live in the forked process only.
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < peak_kb + 2048
    assert normalize(3.0, 2 * REFERENCE_S) == pytest.approx(1.5)


def test_pinned_env_drops_caller_settings(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INTENSITY", "high")
    monkeypatch.setenv("PYTHONOPTIMIZE", "2")
    env = run.pinned_env()
    assert "REPRO_FAULT_INTENSITY" not in env and "PYTHONOPTIMIZE" not in env
    assert env["REPRO_CACHE_DISABLE"] == "1" and env["PYTHONHASHSEED"] == "0"
    assert env["OMP_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"


def bench(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = bench(ROOT, "--workload", "tenants_cpu", "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    assert all(run.unit_of(name) == unit for name, unit in declared.items())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "io_mix", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_manifest_names_every_workload():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert MANIFEST["paths"] == ["perfbench"]
    assert os.path.isfile(ROOT / MANIFEST["command"][1])
