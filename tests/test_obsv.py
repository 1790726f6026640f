"""Tests for the observability layer: tracer, controller decisions,
exporters, the stats-dict merge helpers, profiling, the A4 integration,
and the zero-cost-when-off guarantee."""

from __future__ import annotations

import importlib.util
import json
import os
from dataclasses import dataclass

import pytest

from repro import obsv
from repro.obsv import export
from repro.obsv.counts import counts_of, diff_counts, merge_counts
from repro.obsv.profile import PhaseProfiler
from repro.obsv.tracer import TraceEvent, Tracer

from tests.test_a4_fsm import FakeServer, FakeWorkload, attach, make_sample


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
        assert obsv.PROFILER is not None
        assert obsv.enabled()

    def test_disable_clears_all(self):
        obsv.enable()
        obsv.disable()
        assert obsv.TRACER is None
        assert obsv.PROFILER is None
        assert not obsv.enabled()

    def test_enable_without_profile(self):
        obsv.enable(profile=False)
        assert obsv.TRACER is not None and obsv.PROFILER is None


# -- stats-dict merge helpers ------------------------------------------------


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


# -- controller decisions ---------------------------------------------------


class TestAuditTrail:
    def test_record_defaults_epoch_from_tracer(self):
        # A decision is tagged with the index of the sample being handled
        # (-1 at attach) and mirrored into the tracer as a decision event.
        tracer = obsv.enable()
        manager = attach(
            [FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")]
        )
        tracer.epoch = 9
        manager.on_epoch(make_sample(9, {"hp": 0.9, "lp": 0.5}))
        manager.on_workload_change()
        assert [(d.epoch, d.action) for d in manager.decisions] == [
            (-1, "reallocate"),
            (9, "reallocate"),
        ]
        events = tracer.by_kind(obsv.KIND_DECISION)
        assert [(e.epoch, e.name) for e in events] == [
            (-1, "reallocate"),
            (9, "reallocate"),
        ]
        assert events[1].data["reason"] == manager.decisions[1].reason
        assert events[1].data["inputs"] == {"live_workloads": ["hp", "lp"]}

    def test_queries_and_explain(self):
        manager = _degraded_manager()
        (entry,) = [
            d for d in manager.decisions if d.action == "degraded_enter"
        ]
        text = entry.describe()
        assert text.startswith("[degraded_enter] ")
        assert f"(epoch {entry.epoch})" in text
        assert "window: 50" in text


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
        manager = attach(
            [FakeWorkload("hp"), FakeWorkload("lp", priority="LPW")]
        )
        (decision,) = manager.decisions
        assert (decision.epoch, decision.action) == (-1, "reallocate")
        assert decision.reason == "attach"
        assert decision.inputs["workloads"] == ["hp", "lp"]

    def test_degraded_entry_records_trigger_evidence(self):
        tracer = obsv.enable()
        manager = _degraded_manager()
        entries = [
            d for d in manager.decisions if d.action == "degraded_enter"
        ]
        assert len(entries) == 1
        inputs = entries[0].inputs
        assert inputs["watchdog"]["threshold"] == 2
        assert inputs["reallocations_in_window"] >= 2
        # The T1-crossing evidence that triggered the final reallocation.
        assert "hp" in inputs["trigger_inputs"]["crossed"]
        # The trace carries the same decision and evidence.
        (event,) = [
            e
            for e in tracer.by_kind(obsv.KIND_DECISION)
            if e.name == "degraded_enter"
        ]
        assert event.data == {"reason": entries[0].reason, "inputs": inputs}

    def test_phase_transitions_are_traced(self):
        obsv.enable()
        _degraded_manager()
        names = [e.name for e in obsv.TRACER.by_kind(obsv.KIND_PHASE)]
        assert "expanding" in names and "degraded" in names

    def test_controller_is_silent_when_off(self):
        assert obsv.TRACER is None
        manager = _degraded_manager()  # must not raise without a tracer
        assert manager.watchdog.degraded
        # Decisions are recorded on the manager whether or not tracing is on.
        assert "degraded_enter" in [d.action for d in manager.decisions]


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
        tracer = obsv.enable()
        result = _small_run(epochs=4)
        epoch_events = tracer.by_kind(obsv.KIND_EPOCH)
        assert [e.data["index"] for e in epoch_events] == [0, 1, 2, 3]
        assert all(e.wall > 0 for e in epoch_events)
        assert len(tracer.by_kind(obsv.KIND_MASK)) > 0
        assert tracer.epoch == -1  # context reset after the run
        assert len(result.samples) == 4
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

    def test_decisions_are_identical_off_and_on_and_in_the_trace(
        self, obsv_cli, tmp_path
    ):
        from repro.experiments.scenarios import build_server, chaos_workloads

        def decisions():
            server = build_server(chaos_workloads(), scheme="a4", seed=1)
            server.run(epochs=12)
            return server.manager.decisions

        off = decisions()
        assert {"reallocate", "detect_storage", "detect_cpu", "expand"} <= {
            d.action for d in off
        }
        tracer = obsv.enable()
        assert decisions() == off
        # The JSONL trace rebuilds the same list, epochs included.
        path = tmp_path / "trace.jsonl"
        export.write_jsonl(tracer.events, path)
        assert obsv_cli._decisions(export.read_jsonl(path)) == off


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

        trace, chrome, summary = (
            str(tmp_path / name)
            for name in ("trace.jsonl", "trace.chrome.json", "metrics.json")
        )
        assert main([
            "fig8b", "--quick", "--no-cache", "--fault-intensity", "1.0",
            "--trace", trace, "--chrome-trace", chrome,
            "--metrics-out", summary,
        ]) == 0

        events = export.read_jsonl(trace)
        assert {obsv.KIND_EPOCH, obsv.KIND_MASK} <= {e.kind for e in events}
        export.write_jsonl(events, tmp_path / "again.jsonl")
        assert export.read_jsonl(tmp_path / "again.jsonl") == events
        with open(chrome) as handle:
            export.validate_chrome_trace(json.load(handle))
        with open(summary) as handle:
            doc = json.load(handle)
        assert set(doc) == {"runcache", "trace", "profile"}
        assert doc["runcache"]["enabled"] is False
        assert doc["trace"]["events"] > 0
        assert doc["profile"]
        assert not os.path.exists(summary + ".json")

    @pytest.mark.parametrize(
        "argv, code",
        [(["--list"], 0), ([], 2), (["nosuchfig"], 2)],
        ids=["list", "no-targets", "unknown-figure"],
    )
    def test_figure_cli_writes_metrics_on_early_returns(
        self, tmp_path, capsys, argv, code
    ):
        from repro.experiments.__main__ import main

        summary = str(tmp_path / "metrics.json")
        assert main([*argv, "--no-cache", "--metrics-out", summary]) == code
        with open(summary) as handle:
            doc = json.load(handle)
        assert set(doc) == {"runcache", "trace", "profile"}
        assert "done in" not in capsys.readouterr().out

    def test_figure_cli_checks_output_dirs_before_running(
        self, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main

        missing = str(tmp_path / "missing" / "m.json")
        assert main(
            ["fig8b", "--quick", "--no-cache", "--metrics-out", missing]
        ) == 2
        captured = capsys.readouterr()
        assert "done in" not in captured.out
        assert "--metrics-out" in captured.err

    def test_chaos_reallocations_explained_from_trace(
        self, obsv_cli, tmp_path, capsys
    ):
        from repro.faults.chaos import run_chaos

        tracer = obsv.enable()
        run_chaos(1.0, epochs=12, seed=3)
        assert tracer.by_kind(obsv.KIND_FAULT)

        path = tmp_path / "chaos.jsonl"
        export.write_jsonl(tracer.events, path)
        reallocs = [
            d
            for d in obsv_cli._decisions(export.read_jsonl(path))
            if d.action == "reallocate" and d.inputs
        ]
        assert len(reallocs) == 5
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
