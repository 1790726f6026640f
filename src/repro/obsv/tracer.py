"""The structured event tracer: a bounded ring buffer of typed events.

Events are small frozen-shape dataclasses carrying simulated time, the
epoch index the harness was in when they fired, a ``kind`` from the fixed
taxonomy below, a short ``name``, and a JSON-safe ``data`` dict.  The
buffer is a ``deque(maxlen=capacity)`` — a run that out-produces the
capacity drops its *oldest* events and counts them in
:attr:`Tracer.dropped`; tracing never grows without bound and never
raises.

Event taxonomy (``kind``):

=============  =========================================================
``epoch``      one per monitoring epoch (index, sim time, event count,
               wall seconds spent simulating it)
``clos_write`` a committed CAT mask write (clos, way span)
``dca``        a PCIe port DCA toggle (port, enabled)
``phase``      a controller FSM phase transition (from, to)
``zone``       an LP-zone geometry change (expand / contract / reset)
``fault``      one injected fault (the fault layer's counter names)
``control``    control-plane incidents (parked / recovered applies)
``decision``   a mirrored audit-trail decision (action, reason, inputs)
``span``       a timed section (wall-seconds duration in ``wall``)
``platform``   run header: the microarchitecture spec fingerprint of the
               server producing the trace (one per ``Server.run``)
=============  =========================================================

``data`` values must stay JSON-round-trippable (numbers, strings, bools,
lists, nested dicts) so a JSONL export reloads to identical events —
``tests/test_obsv.py`` locks that round trip.

Every event is additionally stamped with the emitting process id
(``pid``) and a per-process monotonically increasing sequence number
(``seq``).  ``(ts, pid, seq)`` is the key ``tools/obsv.py`` merges several
trace files by, and ``(pid, seq)`` alone totally orders one process's
events.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

KIND_EPOCH = "epoch"
KIND_MASK = "clos_write"
KIND_DCA = "dca"
KIND_PHASE = "phase"
KIND_ZONE = "zone"
KIND_FAULT = "fault"
KIND_CONTROL = "control"
KIND_DECISION = "decision"
KIND_SPAN = "span"
KIND_PLATFORM = "platform"
KIND_CHECKPOINT = "checkpoint"
KIND_SAMPLE = "sample"
KIND_TENANT = "tenant"

ALL_KINDS = (
    KIND_EPOCH,
    KIND_MASK,
    KIND_DCA,
    KIND_PHASE,
    KIND_ZONE,
    KIND_FAULT,
    KIND_CONTROL,
    KIND_DECISION,
    KIND_SPAN,
    KIND_PLATFORM,
    KIND_CHECKPOINT,
    KIND_SAMPLE,
    KIND_TENANT,
)


@dataclass
class TraceEvent:
    """One traced occurrence.  ``ts`` is simulated cycles; ``wall`` is a
    wall-clock duration in seconds (spans and epoch events, else 0).

    ``pid``/``seq`` make events from different processes mergeable; they
    default to 0 so older JSONL traces reload unchanged.  The tracer
    leaves ``run_id``, ``job_id`` and ``attempt`` at their defaults; they
    stay in the schema so older traces that carry them reload unchanged."""

    ts: float
    epoch: int
    kind: str
    name: str
    data: Dict[str, Any] = field(default_factory=dict)
    wall: float = 0.0
    pid: int = 0
    seq: int = 0
    run_id: str = ""
    job_id: Optional[int] = None
    attempt: int = 0


class Tracer:
    """Bounded, process-wide event sink.

    The harness keeps :attr:`epoch` and :attr:`now` current, so emit
    sites deep in the substrate (CAT, PCIe, the fault injector) tag
    events with simulation context without threading it through every
    call signature.
    """

    DEFAULT_CAPACITY = 65536

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        """Events evicted from the ring (oldest-first) after it filled."""
        self.epoch = -1
        """Current epoch index (-1 outside a run)."""
        self.now = 0.0
        """Current simulated time, mirrored by the harness."""
        self.platform: Optional[str] = None
        """``name@sha`` token of the platform that last ran (trace header;
        also emitted as a ``platform`` event carrying the full spec)."""
        self.pid = os.getpid()
        """Emitting process id, stamped on every event (refreshed by
        :meth:`after_fork` in forked children)."""
        self.seq = 0
        """Per-process monotonically increasing sequence number; with
        ``pid`` it totally orders one process's events."""

    def emit(
        self,
        kind: str,
        name: str,
        data: Optional[Dict[str, Any]] = None,
        ts: Optional[float] = None,
        wall: float = 0.0,
    ) -> TraceEvent:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.seq += 1
        event = TraceEvent(
            ts=self.now if ts is None else ts,
            epoch=self.epoch,
            kind=kind,
            name=name,
            data={} if data is None else data,
            wall=wall,
            pid=self.pid,
            seq=self.seq,
        )
        self.events.append(event)
        return event

    def after_fork(self) -> None:
        """Re-stamp process identity in a forked child.

        Registered via ``os.register_at_fork`` by :func:`repro.obsv.enable`
        so a child that inherits an enabled tracer doesn't keep emitting
        under the parent's pid.  The inherited ring and seq are reset —
        the child's stream starts fresh."""
        self.pid = os.getpid()
        self.seq = 0
        self.events.clear()
        self.dropped = 0

    @contextmanager
    def span(
        self, name: str, data: Optional[Dict[str, Any]] = None
    ) -> Iterator[None]:
        """Time a section of host work and emit one ``span`` event."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.emit(
                KIND_SPAN, name, data, wall=time.perf_counter() - started
            )

    # -- queries (post-run inspection & tests) -----------------------------

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_epoch(self, epoch: int) -> List[TraceEvent]:
        return [e for e in self.events if e.epoch == epoch]

    def counts(self) -> Dict[str, int]:
        """Event count per kind (the ``summary`` CLI's first table)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self.epoch = -1
        self.now = 0.0

    def __len__(self) -> int:
        return len(self.events)
