"""Tests for the synthetic profile engine, X-Mem, and SPEC profiles."""

import pytest

from repro.experiments.harness import Server
from repro.platform import SKYLAKE_SP
from repro.workloads.spec import SPEC_PROFILES, spec_workload
from repro.workloads.synthetic import AccessProfile, SyntheticWorkload
from repro.workloads.xmem import xmem, xmem_table3


def run_single(workload, epochs=4):
    server = Server(cores=workload.num_cores + 1)
    server.add_workload(workload)
    return server.run(epochs=epochs, warmup=1)


def test_profile_validation():
    with pytest.raises(ValueError):
        AccessProfile(working_set_lines=0)
    with pytest.raises(ValueError):
        AccessProfile(working_set_lines=10, pattern="diagonal")
    with pytest.raises(ValueError):
        AccessProfile(working_set_lines=10, write_fraction=1.5)
    with pytest.raises(ValueError):
        AccessProfile(working_set_lines=10, repeats=0)


def test_small_ws_reaches_high_hit_rate():
    profile = AccessProfile(working_set_lines=32, repeats=1)
    result = run_single(SyntheticWorkload("tiny", profile, "HPW", cores=1))
    agg = result.aggregate("tiny")
    assert agg.mlc_miss_rate < 0.05  # fits the MLC after warm-up
    assert agg.ipc > 0


def test_streaming_ws_misses_everywhere():
    profile = AccessProfile(working_set_lines=8000, pattern="seq")
    result = run_single(SyntheticWorkload("stream", profile, "LPW", cores=1))
    agg = result.aggregate("stream")
    assert agg.mlc_miss_rate > 0.95
    assert agg.llc_miss_rate > 0.95


def test_repeats_raise_mlc_hit_rate():
    base = AccessProfile(working_set_lines=4000, repeats=1)
    repeated = AccessProfile(working_set_lines=4000, repeats=4)
    r1 = run_single(SyntheticWorkload("r1", base, "HPW"))
    r4 = run_single(SyntheticWorkload("r4", repeated, "HPW"))
    assert r4.aggregate("r4").mlc_miss_rate < r1.aggregate("r1").mlc_miss_rate


def test_write_fraction_produces_dirty_lines():
    profile = AccessProfile(working_set_lines=6000, write_fraction=1.0)
    workload = SyntheticWorkload("writer", profile, "LPW")
    server = Server(cores=2)
    server.add_workload(workload)
    server.run(epochs=4, warmup=1)
    dirty = [
        line
        for line in server.hierarchy.llc.resident()
        if line.stream == "writer" and line.dirty
    ]
    assert dirty, "stores must produce dirty victim-cache lines"


def test_multicore_splits_working_set():
    workload = xmem("xm", 4.0, cores=2)
    server = Server(cores=4)
    server.add_workload(workload)
    assert workload.cores == (0, 1)
    server.run(epochs=3, warmup=1)
    # Both cores contribute accesses.
    counters = server.counters.stream("xm")
    assert counters.mlc_hits + counters.mlc_misses > 0


def test_xmem_capacity_scaling_preserves_paper_constraints():
    ws = SKYLAKE_SP.lines_for_paper_bytes(4 * 1024 * 1024)
    two_mlcs = 2 * SKYLAKE_SP.mlc_lines
    two_ways = 2 * SKYLAKE_SP.llc_way_lines
    assert two_mlcs < ws < two_ways


def test_xmem_table3_matches_paper():
    instances = xmem_table3()
    assert [w.name for w in instances] == ["xmem1", "xmem2", "xmem3"]
    assert instances[0].priority == "HPW"
    assert instances[1].profile.write_fraction == 1.0
    assert instances[2].profile.pattern == "rand"
    assert instances[2].profile.working_set_lines > instances[0].profile.working_set_lines


def test_xmem_rejects_unknown_op():
    with pytest.raises(ValueError):
        xmem(op="modify")


def test_stride_pattern_covers_working_set():
    from repro.workloads.synthetic import PATTERN_STRIDE

    profile = AccessProfile(
        working_set_lines=64, pattern=PATTERN_STRIDE, stride_lines=4
    )
    workload = SyntheticWorkload("strider", profile, "HPW", cores=1)
    server = Server(cores=2)
    server.add_workload(workload)
    server.run(epochs=3, warmup=1)
    counters = server.counters.stream("strider")
    assert counters.mlc_hits + counters.mlc_misses > 0


def test_stride_validation():
    with pytest.raises(ValueError):
        AccessProfile(working_set_lines=10, pattern="stride", stride_lines=0)


def test_run_result_export_csv(tmp_path):
    server = Server(cores=2)
    server.add_workload(xmem("a", 1.0, cores=1))
    result = server.run(epochs=4, warmup=1)
    path = tmp_path / "run.csv"
    result.export_csv(str(path))
    content = path.read_text()
    assert content.startswith("epoch,time,stream")
    assert "avg_latency" in content


def test_spec_profiles_cover_table2():
    for name in ("x264", "parest", "xalancbmk", "bwaves", "lbm", "mcf"):
        assert name in SPEC_PROFILES


def test_spec_antagonists_have_streaming_signature():
    llc_lines = SKYLAKE_SP.llc_sets * SKYLAKE_SP.llc_ways
    for name in ("bwaves", "lbm"):
        assert SPEC_PROFILES[name].working_set_lines > llc_lines


def test_spec_unknown_benchmark():
    with pytest.raises(KeyError):
        spec_workload("gcc_o3")


def test_spec_workload_is_detected_antagonist_material():
    result = run_single(spec_workload("bwaves", "LPW"), epochs=4)
    agg = result.aggregate("bwaves")
    assert agg.mlc_miss_rate > 0.9 and agg.llc_miss_rate > 0.9
