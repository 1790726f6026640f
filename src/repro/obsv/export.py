"""Exporters: JSONL traces, Chrome trace-event JSON, Prometheus text.

Three formats, all lossless where it matters:

* **JSONL** — one :class:`~repro.obsv.tracer.TraceEvent` per line;
  :func:`read_jsonl` reloads to *identical* event objects (the round
  trip is locked by tests), which is what lets ``tools/obsv.py`` work
  from a file long after the run's process is gone.
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` /
  Perfetto.  Instant events map to ``ph: "i"`` at their simulated
  timestamp (cycles rendered as microseconds); ``span`` and ``epoch``
  events map to ``ph: "X"`` complete events with their wall-clock
  duration.  :func:`validate_chrome_trace` checks the schema the viewer
  actually requires.
* **Prometheus text exposition** — counters/gauges/histograms from a
  :class:`~repro.obsv.metrics.MetricsRegistry`; :func:`parse_prometheus`
  is the matching (strict, subset) parser used by the tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

from repro.obsv.metrics import Histogram, MetricsRegistry
from repro.obsv.tracer import KIND_EPOCH, KIND_SPAN, TraceEvent

PathLike = Union[str, Path]


# -- JSONL ------------------------------------------------------------------


def write_jsonl(events: Iterable[TraceEvent], path: PathLike) -> int:
    """Write one compact JSON object per event; returns the line count."""
    count = 0
    with open(path, "w") as handle:
        for event in events:
            handle.write(
                json.dumps(asdict(event), sort_keys=True, separators=(",", ":"))
            )
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: PathLike) -> List[TraceEvent]:
    """Reload a JSONL trace into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                events.append(TraceEvent(**obj))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{line_no}: not a trace event line ({exc})"
                ) from None
    return events


# -- Chrome trace-event format ---------------------------------------------


def to_chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Render events in the Trace Event Format's JSON object form.

    Simulated time (cycles) is written as the ``ts`` microsecond field —
    the viewer's units are nominal; relative placement is what matters.
    Wall-clock durations (spans, per-epoch simulation time) become ``X``
    complete events scaled so they remain visible alongside.

    Each event lands on the *recorded* emitting process (``event.pid``;
    legacy pid-0 traces collapse onto the synthetic process 1), with the
    kind as the thread row — traces merged from several processes render
    as one track group per process.  Real pids additionally get a
    ``process_name`` metadata event labelling the track with the run/job
    identity they carried."""
    trace_events: List[Dict[str, Any]] = []
    named_pids: Dict[int, bool] = {}
    for event in events:
        pid = event.pid or 1
        if event.pid and event.pid not in named_pids:
            named_pids[event.pid] = True
            label = f"worker {event.pid}"
            if event.run_id:
                label += f" run={event.run_id}"
            if event.job_id is not None:
                label += f" job={event.job_id}/a{event.attempt}"
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        entry: Dict[str, Any] = {
            "name": event.name,
            "cat": event.kind,
            "pid": pid,
            "tid": event.kind,
            "ts": event.ts,
            "args": {"epoch": event.epoch, **event.data},
        }
        if event.kind in (KIND_SPAN, KIND_EPOCH) and event.wall > 0:
            entry["ph"] = "X"
            entry["dur"] = event.wall * 1e6
        else:
            entry["ph"] = "i"
            entry["s"] = "g"  # instant scope: global
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[TraceEvent], path: PathLike) -> int:
    doc = to_chrome_trace(events)
    with open(path, "w") as handle:
        json.dump(doc, handle, separators=(",", ":"))
        handle.write("\n")
    return len(doc["traceEvents"])


_CHROME_PHASES = {"B", "E", "X", "i", "I", "C", "M", "b", "e", "n", "s", "t", "f"}


def validate_chrome_trace(doc: Any) -> None:
    """Raise :class:`ValueError` unless ``doc`` satisfies the trace-event
    schema ``chrome://tracing`` requires (object form, per-event required
    keys, ``dur`` on complete events)."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not object form: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for i, entry in enumerate(events):
        if not isinstance(entry, dict):
            raise ValueError(f"traceEvents[{i}]: not an object")
        for required in ("name", "ph", "ts", "pid", "tid"):
            if required not in entry:
                raise ValueError(f"traceEvents[{i}]: missing {required!r}")
        phase = entry["ph"]
        if phase not in _CHROME_PHASES:
            raise ValueError(f"traceEvents[{i}]: unknown phase {phase!r}")
        if not isinstance(entry["ts"], (int, float)):
            raise ValueError(f"traceEvents[{i}]: non-numeric ts")
        if phase == "X" and not isinstance(entry.get("dur"), (int, float)):
            raise ValueError(f"traceEvents[{i}]: complete event without dur")


# -- Prometheus text exposition --------------------------------------------


def _label_str(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{value}"'
        for key, value in labels
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    seen_header = set()
    for name, labels, metric in registry.items():
        if name not in seen_header:
            seen_header.add(name)
            help_text = registry.help_of(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {registry.type_of(name)}")
        if isinstance(metric, Histogram):
            for bound, count in zip(metric.buckets, metric.counts):
                bucket_labels = labels + (("le", f"{bound:g}"),)
                lines.append(
                    f"{name}_bucket{_label_str(bucket_labels)} {count}"
                )
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(
                f"{name}_bucket{_label_str(inf_labels)} {metric.count}"
            )
            lines.append(
                f"{name}_sum{_label_str(labels)} {_fmt_value(metric.sum)}"
            )
            lines.append(f"{name}_count{_label_str(labels)} {metric.count}")
        else:
            lines.append(
                f"{name}{_label_str(labels)} {_fmt_value(metric.value)}"
            )
    return "\n".join(lines) + "\n"


def write_prometheus(registry: MetricsRegistry, path: PathLike) -> None:
    with open(path, "w") as handle:
        handle.write(render_prometheus(registry))


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse text exposition back into ``{name{labels}: value}``.

    Strict about structure (raises :class:`ValueError` on a malformed
    line) but limited to the subset :func:`render_prometheus` emits —
    enough for the round-trip and 'output parses' tests."""
    samples: Dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {line_no}: malformed comment {raw!r}")
            continue
        try:
            series, value_text = line.rsplit(None, 1)
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"line {line_no}: not a sample line {raw!r}"
            ) from None
        if "{" in series and not series.endswith("}"):
            raise ValueError(f"line {line_no}: unterminated labels {raw!r}")
        samples[series] = value
    if not samples:
        raise ValueError("no samples found")
    return samples
