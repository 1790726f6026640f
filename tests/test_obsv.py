"""Tests for the observability layer: tracer, metrics, audit, exporters,
profiling, the A4 integration, and the zero-cost-when-off guarantee."""

from __future__ import annotations

import importlib.util
import json
import os
from dataclasses import dataclass

import pytest

from repro import obsv
from repro.obsv import export, metrics
from repro.obsv.audit import AuditTrail
from repro.obsv.metrics import (
    MetricsRegistry,
    counts_of,
    diff_counts,
    merge_counts,
)
from repro.obsv.profile import PhaseProfiler
from repro.obsv.tracer import TraceEvent, Tracer

from tests.test_a4_fsm import FakeServer, FakeWorkload, make_sample


# -- tracer -----------------------------------------------------------------


class TestTracer:
    def test_emit_uses_harness_context(self):
        tracer = Tracer()
        tracer.epoch = 7
        tracer.now = 1234.0
        event = tracer.emit(obsv.KIND_MASK, "clos1", {"clos": 1})
        assert event.epoch == 7
        assert event.ts == 1234.0
        assert event.data == {"clos": 1}
        assert tracer.by_kind(obsv.KIND_MASK) == [event]
        assert tracer.for_epoch(7) == [event]
        assert tracer.counts() == {obsv.KIND_MASK: 1}

    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit(obsv.KIND_FAULT, f"f{i}")
        assert len(tracer) == 3
        assert tracer.dropped == 2
        # Oldest-first eviction: the survivors are the newest three.
        assert [e.name for e in tracer.events] == ["f2", "f3", "f4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_span_records_wall_duration(self):
        tracer = Tracer()
        with tracer.span("section", {"n": 1}):
            pass
        (event,) = tracer.by_kind(obsv.KIND_SPAN)
        assert event.name == "section"
        assert event.wall >= 0.0
        assert event.data == {"n": 1}

    def test_clear_resets_context(self):
        tracer = Tracer(capacity=2)
        tracer.epoch = 3
        for _ in range(4):
            tracer.emit(obsv.KIND_FAULT, "f")
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0
        assert tracer.epoch == -1 and tracer.now == 0.0

    def test_emit_stamps_pid_and_seq(self):
        tracer = Tracer()
        first = tracer.emit(obsv.KIND_FAULT, "a")
        second = tracer.emit(obsv.KIND_FAULT, "b")
        assert first.pid == os.getpid() == second.pid
        assert (first.seq, second.seq) == (1, 2)
        assert first.run_id == "" and first.job_id is None


class TestEnableDisable:
    def test_enable_installs_fresh_singletons(self):
        first = obsv.enable()
        first.emit(obsv.KIND_FAULT, "f")
        second = obsv.enable()
        assert second is obsv.TRACER and len(second) == 0
        assert obsv.AUDIT is not None and obsv.AUDIT.tracer is second
        assert obsv.PROFILER is not None
        assert obsv.enabled()

    def test_disable_clears_all(self):
        obsv.enable()
        obsv.disable()
        assert obsv.TRACER is None and obsv.AUDIT is None
        assert obsv.PROFILER is None
        assert not obsv.enabled()

    def test_enable_without_profile(self):
        obsv.enable(profile=False)
        assert obsv.TRACER is not None and obsv.PROFILER is None


# -- metrics registry -------------------------------------------------------


class TestMetrics:
    def test_counter_only_goes_up(self):
        counter = metrics.Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = metrics.Gauge()
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value == 8

    def test_histogram_buckets_are_cumulative(self):
        hist = metrics.Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 3]
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.55)
        assert hist.quantile_bound(0.5) == 1.0

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", help="x")
        b = registry.counter("repro_x_total")
        assert a is b
        assert registry.help_of("repro_x_total") == "x"
        assert registry.type_of("repro_x_total") == "counter"

    def test_registry_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.gauge("repro_g", phase="stable")
        b = registry.gauge("repro_g", phase="expanding")
        assert a is not b
        assert len(registry.items()) == 2

    def test_registry_rejects_type_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(TypeError):
            registry.gauge("repro_x_total")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").inc(2)
        registry.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["repro_c_total"]["series"][0]["value"] == 2
        assert snap["repro_h_seconds"]["series"][0]["value"]["count"] == 1

    def test_process_registry_swap(self):
        fresh = MetricsRegistry()
        metrics.set_registry(fresh)
        assert metrics.get_registry() is fresh
        metrics.set_registry(None)
        assert metrics.get_registry() is not fresh


@dataclass
class _Stats:
    hits: int = 0
    misses: int = 0
    label: str = "x"
    enabled: bool = True


class TestMergeHelpers:
    def test_counts_of_skips_non_numeric_and_bools(self):
        assert counts_of(_Stats(hits=3, misses=1)) == {"hits": 3, "misses": 1}
        assert counts_of({"a": 1, "b": True, "c": "s"}) == {"a": 1}

    def test_counts_of_rejects_other_types(self):
        with pytest.raises(TypeError):
            counts_of(42)

    def test_merge_into_dict_creates_keys(self):
        totals = {"hits": 1}
        merge_counts(totals, _Stats(hits=2, misses=5))
        assert totals == {"hits": 3, "misses": 5}

    def test_merge_into_dataclass_ignores_unknown_keys(self):
        stats = _Stats(hits=1)
        merge_counts(stats, {"hits": 2, "unknown": 9})
        assert stats.hits == 3
        assert not hasattr(stats, "unknown")

    def test_diff_counts(self):
        before = _Stats(hits=1, misses=1)
        after = _Stats(hits=4, misses=1)
        assert diff_counts(after, before) == {"hits": 3, "misses": 0}

    def test_collect_process_exports_runcache_and_dispatch(self):
        registry = metrics.collect_process(MetricsRegistry())
        names = {name for name, _, _ in registry.items()}
        assert "repro_runcache_hits_total" in names
        assert "repro_runcache_enabled" in names
        assert "repro_dispatch_timeouts_total" in names

    def test_collect_robustness_labels_by_manager(self):
        registry = metrics.collect_robustness(
            {"held_over": 3}, manager="a4", registry=MetricsRegistry()
        )
        ((name, labels, metric),) = registry.items()
        assert name == "repro_manager_held_over"
        assert labels == (("manager", "a4"),)
        assert metric.value == 3


# -- audit trail ------------------------------------------------------------


class TestAuditTrail:
    def test_record_defaults_epoch_from_tracer(self):
        tracer = Tracer()
        tracer.epoch = 9
        trail = AuditTrail(tracer=tracer)
        decision = trail.record("reallocate", "attach")
        assert decision.epoch == 9
        # Mirrored into the tracer as a decision event.
        (event,) = tracer.by_kind(obsv.KIND_DECISION)
        assert event.name == "reallocate"
        assert event.data["reason"] == "attach"

    def test_queries_and_explain(self):
        trail = AuditTrail()
        trail.record("reallocate", "attach", epoch=0)
        trail.record(
            "degraded_enter", "oscillation", {"watchdog": {"window": 12}},
            epoch=4,
        )
        assert len(trail.decisions("reallocate")) == 1
        assert trail.for_epoch(4)[0].action == "degraded_enter"
        text = trail.explain(4)
        assert "degraded_enter" in text and "window: 12" in text
        assert "no controller decisions" in trail.explain(99)

    def test_bounded_capacity(self):
        trail = AuditTrail(capacity=2)
        for i in range(4):
            trail.record("reallocate", f"r{i}", epoch=i)
        assert len(trail) == 2
        assert trail.dropped == 2
        assert [d.reason for d in trail.decisions()] == ["r2", "r3"]


# -- exporters --------------------------------------------------------------


def _sample_events():
    return [
        TraceEvent(ts=0.0, epoch=-1, kind=obsv.KIND_MASK, name="clos1",
                   data={"clos": 1, "first": 0, "last": 3}),
        TraceEvent(ts=50.0, epoch=0, kind=obsv.KIND_DECISION, name="reallocate",
                   data={"reason": "attach", "inputs": {"workloads": ["a"]}}),
        TraceEvent(ts=100.0, epoch=0, kind=obsv.KIND_EPOCH, name="epoch",
                   data={"index": 0}, wall=0.25),
        TraceEvent(ts=100.0, epoch=0, kind=obsv.KIND_SPAN, name="export",
                   wall=0.001),
    ]


class TestJsonl:
    def test_round_trip_is_identity(self, tmp_path):
        events = _sample_events()
        path = tmp_path / "trace.jsonl"
        assert export.write_jsonl(events, path) == len(events)
        assert export.read_jsonl(path) == events

    def test_read_rejects_garbage_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 0}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            export.read_jsonl(path)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export.write_jsonl(_sample_events()[:1], path)
        with open(path, "a") as handle:
            handle.write("\n")
        assert len(export.read_jsonl(path)) == 1

    def test_older_traces_reload_unchanged(self, tmp_path):
        """Traces without pid/seq keys reload with the defaults, and
        traces whose events carry run/job identity keep it."""
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            '{"ts": 1.0, "epoch": 0, "kind": "fault", "name": "f", '
            '"data": {}, "wall": 0.0}\n'
            '{"ts": 2.0, "epoch": 0, "kind": "fault", "name": "g", '
            '"data": {}, "wall": 0.0, "pid": 7, "seq": 3, '
            '"run_id": "r", "job_id": 5, "attempt": 2}\n'
        )
        legacy, stamped = export.read_jsonl(path)
        assert legacy.pid == 0 and legacy.seq == 0
        assert legacy.run_id == "" and legacy.job_id is None
        assert (stamped.pid, stamped.seq) == (7, 3)
        assert (stamped.run_id, stamped.job_id, stamped.attempt) == ("r", 5, 2)


class TestChromeTrace:
    def test_instants_and_completes(self):
        doc = export.to_chrome_trace(_sample_events())
        export.validate_chrome_trace(doc)
        phases = [e["ph"] for e in doc["traceEvents"]]
        # Mask write and decision are instants; the timed epoch and the
        # span become complete events with microsecond durations.
        assert phases == ["i", "i", "X", "X"]
        assert doc["traceEvents"][2]["dur"] == pytest.approx(0.25 * 1e6)
        assert doc["traceEvents"][0]["args"]["epoch"] == -1

    def test_write_and_validate_file(self, tmp_path):
        path = tmp_path / "chrome.json"
        count = export.write_chrome_trace(_sample_events(), path)
        assert count == 4
        with open(path) as handle:
            export.validate_chrome_trace(json.load(handle))

    @pytest.mark.parametrize(
        "doc",
        [
            [],  # array form not emitted by us
            {"events": []},
            {"traceEvents": [{"name": "x"}]},  # missing required keys
            {"traceEvents": [{"name": "x", "ph": "??", "ts": 0,
                              "pid": 1, "tid": "t"}]},
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                              "pid": 1, "tid": "t"}]},  # X without dur
        ],
    )
    def test_validate_rejects(self, doc):
        with pytest.raises(ValueError):
            export.validate_chrome_trace(doc)


class TestPrometheus:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", help="hits").inc(3)
        registry.gauge("repro_g", phase="stable").set(1.5)
        registry.histogram("repro_h_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = export.render_prometheus(registry)
        assert "# HELP repro_hits_total hits" in text
        assert "# TYPE repro_h_seconds histogram" in text
        series = export.parse_prometheus(text)
        assert series["repro_hits_total"] == 3
        assert series['repro_g{phase="stable"}'] == 1.5
        assert series['repro_h_seconds_bucket{le="0.1"}'] == 1
        assert series['repro_h_seconds_bucket{le="+Inf"}'] == 1
        assert series["repro_h_seconds_count"] == 1

    @pytest.mark.parametrize(
        "text",
        ["", "repro_x\n", "# BOGUS\n", "repro_x{unterminated 1\n"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            export.parse_prometheus(text)


# -- profiler ---------------------------------------------------------------


class TestProfiler:
    def test_accumulates_per_label(self):
        profiler = PhaseProfiler()
        profiler.record("stable", 0.1, 100, 1000.0)
        profiler.record("stable", 0.1, 100, 1000.0)
        profiler.record("expanding", 0.3, 50, 500.0)
        assert profiler.phases["stable"].windows == 2
        assert profiler.phases["stable"].events == 200
        assert profiler.total_wall == pytest.approx(0.5)
        table = profiler.table()
        # Widest wall share first.
        assert table.index("expanding") < table.index("stable")

    def test_into_registry(self):
        profiler = PhaseProfiler()
        profiler.record("stable", 0.25, 10, 100.0)
        registry = MetricsRegistry()
        profiler.into_registry(registry)
        names = {(n, dict(l).get("phase")) for n, l, _ in registry.items()}
        assert ("repro_profile_wall_seconds", "stable") in names

    def test_engine_records_only_when_attached(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        sim.run_until(100.0)  # profiler off: plain delegation
        profiler = PhaseProfiler()
        profiler.label = "warm"
        sim.profiler = profiler
        sim.run_until(200.0)
        assert profiler.phases["warm"].windows == 1
        assert profiler.phases["warm"].cycles == pytest.approx(100.0)


# -- A4 controller integration ----------------------------------------------


def _degraded_manager(max_epochs: int = 60):
    from repro.core.a4 import A4Manager, PHASE_DEGRADED
    from repro.core.policy import A4Policy

    policy = A4Policy(
        stable_interval=1,
        watchdog_window=50,
        watchdog_reallocs=2,
        watchdog_cooldown=3,
    )
    manager = A4Manager(policy)
    manager.attach(
        FakeServer([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
    )
    for i in range(max_epochs):
        if manager.phase == PHASE_DEGRADED:
            return manager
        hit = 0.9 if manager.phase == "baseline" else 0.2
        manager.on_epoch(make_sample(i, {"hp": hit, "lp": 0.5}))
    raise AssertionError("watchdog never tripped")


class TestA4Audit:
    def test_attach_audits_reallocation_with_inputs(self):
        obsv.enable()
        from tests.test_a4_fsm import attach

        attach([FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")])
        (decision,) = obsv.AUDIT.decisions("reallocate")
        assert decision.reason == "attach"
        assert decision.inputs["workloads"] == ["hp", "lp"]

    def test_degraded_entry_records_trigger_evidence(self):
        obsv.enable()
        _degraded_manager()
        entries = obsv.AUDIT.decisions("degraded_enter")
        assert len(entries) == 1
        inputs = entries[0].inputs
        assert inputs["watchdog"]["threshold"] == 2
        assert inputs["reallocations_in_window"] >= 2
        # The T1-crossing evidence that triggered the final reallocation.
        assert "hp" in inputs["trigger_inputs"]["crossed"]
        # The trail explains the epoch it happened in.
        assert "degraded_enter" in obsv.AUDIT.explain(entries[0].epoch)

    def test_phase_transitions_are_traced(self):
        obsv.enable()
        _degraded_manager()
        names = [e.name for e in obsv.TRACER.by_kind(obsv.KIND_PHASE)]
        assert "expanding" in names and "degraded" in names

    def test_controller_is_silent_when_off(self):
        assert obsv.TRACER is None
        manager = _degraded_manager()  # must not raise without a tracer
        assert manager.watchdog.degraded


# -- harness integration & zero-cost-off ------------------------------------


def _small_run(epochs: int = 4):
    from repro.core.a4 import A4Manager
    from repro.core.policy import A4Policy
    from repro.experiments.harness import Server
    from repro.workloads.xmem import xmem

    server = Server(cores=3)
    server.add_workload(xmem("a", 1.0, cores=1))
    server.add_workload(xmem("b", 2.0, cores=1))
    server.set_manager(A4Manager(A4Policy()))
    return server.run(epochs=epochs, warmup=1)


class TestHarnessIntegration:
    def test_traced_run_emits_epochs_and_masks(self):
        metrics.set_registry(None)
        tracer = obsv.enable()
        result = _small_run(epochs=4)
        epoch_events = tracer.by_kind(obsv.KIND_EPOCH)
        assert [e.data["index"] for e in epoch_events] == [0, 1, 2, 3]
        assert all(e.wall > 0 for e in epoch_events)
        assert len(tracer.by_kind(obsv.KIND_MASK)) > 0
        assert tracer.epoch == -1  # context reset after the run
        assert len(result.samples) == 4
        # The per-epoch wall histogram observed once per epoch.
        hist = metrics.get_registry().histogram("repro_epoch_wall_seconds")
        assert hist.count == 4
        # The profiler attributed every epoch window.
        assert sum(s.windows for s in obsv.PROFILER.phases.values()) >= 4

    def test_off_run_is_identical_to_traced_run(self):
        baseline = _small_run()
        obsv.enable()
        traced = _small_run()
        obsv.disable()
        again = _small_run()
        assert traced.samples == baseline.samples
        assert again.samples == baseline.samples


# -- the CLI ----------------------------------------------------------------


@pytest.fixture(scope="module")
def obsv_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "obsv_cli", os.path.join(root, "tools", "obsv.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        obsv.enable()
        _degraded_manager()
        path = tmp_path / "trace.jsonl"
        export.write_jsonl(obsv.TRACER.events, path)
        obsv.disable()
        return str(path)

    def test_summary(self, obsv_cli, trace_path, capsys):
        assert obsv_cli.main(["summary", trace_path]) == 0
        out = capsys.readouterr().out
        assert "controller decisions:" in out
        assert "degraded_enter" in out

    def test_timeline_filters(self, obsv_cli, trace_path, capsys):
        assert obsv_cli.main(
            ["timeline", trace_path, "--kind", "phase", "--limit", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "clos_write" not in out

    def test_explain_epoch_find(self, obsv_cli, trace_path, capsys):
        assert obsv_cli.main(
            ["explain-epoch", trace_path, "--find", "degraded_enter"]
        ) == 0
        out = capsys.readouterr().out
        assert "[degraded_enter]" in out
        assert "watchdog:" in out

    def test_explain_epoch_no_decisions(self, obsv_cli, trace_path, capsys):
        assert obsv_cli.main(["explain-epoch", trace_path, "9999"]) == 1

    def test_explain_epoch_find_missing(self, obsv_cli, trace_path, capsys):
        assert obsv_cli.main(
            ["explain-epoch", trace_path, "--find", "bloat_treat"]
        ) == 1

    def test_unreadable_trace(self, obsv_cli, tmp_path):
        assert obsv_cli.main(
            ["summary", str(tmp_path / "missing.jsonl")]
        ) == 2


# -- artifacts of faulted runs ------------------------------------------------


class TestFaultedRuns:
    def test_figure_cli_writes_every_export(self, tmp_path):
        from repro.experiments.__main__ import main

        trace, chrome, prom = (
            str(tmp_path / name)
            for name in ("trace.jsonl", "trace.chrome.json", "metrics.prom")
        )
        assert main([
            "fig8b", "--quick", "--no-cache", "--fault-intensity", "1.0",
            "--trace", trace, "--chrome-trace", chrome, "--metrics-out", prom,
        ]) == 0

        events = export.read_jsonl(trace)
        assert {obsv.KIND_EPOCH, obsv.KIND_MASK} <= {e.kind for e in events}
        export.write_jsonl(events, tmp_path / "again.jsonl")
        assert export.read_jsonl(tmp_path / "again.jsonl") == events
        with open(chrome) as handle:
            export.validate_chrome_trace(json.load(handle))
        with open(prom) as handle:
            series = export.parse_prometheus(handle.read())
        assert any(name.startswith("repro_trace_events") for name in series)
        assert os.path.exists(prom + ".json")

    def test_chaos_reallocations_explained_from_trace(
        self, obsv_cli, tmp_path, capsys
    ):
        from repro.faults.chaos import run_chaos

        tracer = obsv.enable()
        run_chaos(1.0, epochs=12, seed=3)
        assert tracer.by_kind(obsv.KIND_FAULT)
        reallocs = [
            d for d in obsv.AUDIT.decisions("reallocate") if d.inputs
        ]
        assert len(reallocs) == 5

        path = tmp_path / "chaos.jsonl"
        export.write_jsonl(tracer.events, path)
        assert obsv_cli.main(
            ["explain-epoch", str(path), "--find", "reallocate"]
        ) == 0
        out = capsys.readouterr().out
        assert "[reallocate]" in out
        for key, value in reallocs[0].inputs.items():
            assert f"{key}: {value}" in out


# -- chrome export: multi-process streams ------------------------------------


class TestChromeMultiProcess:
    def test_recorded_pids_become_separate_tracks(self):
        events = [
            TraceEvent(ts=0.0, epoch=0, kind="fault", name="w1",
                       pid=11, seq=1, run_id="r", job_id=1, attempt=1),
            TraceEvent(ts=1.0, epoch=0, kind="fault", name="w2",
                       pid=22, seq=1, run_id="r", job_id=1, attempt=2),
            TraceEvent(ts=2.0, epoch=0, kind="fault", name="w1b",
                       pid=11, seq=2, run_id="r", job_id=1, attempt=1),
        ]
        doc = export.to_chrome_trace(events)
        export.validate_chrome_trace(doc)
        entries = doc["traceEvents"]
        metadata = [e for e in entries if e["ph"] == "M"]
        assert {m["pid"] for m in metadata} == {11, 22}
        assert all("job=1" in m["args"]["name"] for m in metadata)
        real = [e for e in entries if e["ph"] != "M"]
        assert [e["pid"] for e in real] == [11, 22, 11]

    def test_legacy_pid_zero_stays_on_synthetic_process(self):
        events = [TraceEvent(ts=0.0, epoch=0, kind="fault", name="f")]
        doc = export.to_chrome_trace(events)
        entries = doc["traceEvents"]
        assert len(entries) == 1  # no metadata rows for legacy traces
        assert entries[0]["pid"] == 1


# -- CLI: multi-source inputs -----------------------------------------------


class TestCliMultiSource:
    @pytest.fixture()
    def two_files(self, tmp_path):
        a = [
            TraceEvent(ts=0.0, epoch=0, kind="fault", name="a0",
                       pid=1, seq=1),
            TraceEvent(ts=2.0, epoch=1, kind="fault", name="a1",
                       pid=1, seq=2),
        ]
        b = [
            TraceEvent(ts=1.0, epoch=0, kind="epoch", name="b0",
                       pid=2, seq=1, wall=0.1),
        ]
        paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        export.write_jsonl(a, paths[0])
        export.write_jsonl(b, paths[1])
        return paths

    def test_summary_merges_multiple_files(
        self, obsv_cli, tmp_path, two_files, capsys
    ):
        assert obsv_cli.main(["summary", *two_files]) == 0
        out = capsys.readouterr().out
        assert "3 events" in out
        assert "2 process(es): 1 2" in out

        one = tmp_path / "one.jsonl"
        two = tmp_path / "two.jsonl"
        export.write_jsonl(
            [TraceEvent(ts=1.0, epoch=0, kind="fault", name="late",
                        pid=1, seq=1)], one
        )
        export.write_jsonl(
            [TraceEvent(ts=0.0, epoch=0, kind="fault", name="early",
                        pid=2, seq=1)], two
        )
        assert obsv_cli.main(
            ["timeline", str(one), str(two), "--limit", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert out.index("early") < out.index("late")  # merged by ts

    def test_tail_shows_newest_events(self, obsv_cli, two_files, capsys):
        assert obsv_cli.main(["tail", *two_files, "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "a1" in out and "b0" in out and "a0" not in out
