"""Zero-cost-when-off observability: tracing and profiling.

The layer is a tracer and a profiler, both process-global and **off by
default**:

* :data:`TRACER` — a bounded ring buffer of typed :class:`TraceEvent`\\ s
  (epoch boundaries, CLOS mask writes, DCA toggles, controller phase
  transitions, fault injections, cache-zone resizes, controller
  decisions), exported to JSONL and Chrome ``chrome://tracing``
  trace-event JSON (:mod:`repro.obsv.export`).
* :data:`PROFILER` — per-phase wall/cycle/event attribution recorded by
  :meth:`repro.sim.engine.Simulator.run_until` (see
  :mod:`repro.obsv.profile`).

Every emit site in the simulator, controller, and fault layer is guarded
by a single ``obsv.TRACER is not None`` (or ``profiler``) check: with the
layer disabled no event objects are built, no dicts are allocated, and
runs are bit-identical to a tree without the layer.  Controller decisions
are recorded whether or not the layer is on — each manager keeps its own
``decisions`` list (:mod:`repro.obsv.audit`) and mirrors every entry as a
``decision`` trace event while tracing, so one JSONL file carries the
whole story and ``tools/obsv.py explain-epoch`` can replay it post-run.
Enable with :func:`enable` (or ``--trace`` / ``--metrics-out`` on the
figures CLI), tear down with :func:`disable`.  :mod:`repro.obsv.counts`
holds the stats-dict merge helpers the run cache and chaos sweep share.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obsv.audit import Decision
from repro.obsv.profile import PhaseProfiler
from repro.obsv.tracer import (
    KIND_CHECKPOINT,
    KIND_CONTROL,
    KIND_DCA,
    KIND_DECISION,
    KIND_EPOCH,
    KIND_FAULT,
    KIND_MASK,
    KIND_PHASE,
    KIND_PLATFORM,
    KIND_SAMPLE,
    KIND_SPAN,
    KIND_TENANT,
    KIND_ZONE,
    TraceEvent,
    Tracer,
)

TRACER: Optional[Tracer] = None
"""The process-wide event tracer; ``None`` while observability is off."""

PROFILER: Optional[PhaseProfiler] = None
"""The process-wide engine profiler; ``None`` while off."""


def enable(
    capacity: int = Tracer.DEFAULT_CAPACITY,
    profile: bool = True,
) -> Tracer:
    """Turn the observability layer on (idempotent: replaces any previous
    tracer/profiler with fresh, empty ones) and return the tracer."""
    global TRACER, PROFILER
    _register_at_fork()
    TRACER = Tracer(capacity)
    PROFILER = PhaseProfiler() if profile else None
    return TRACER


def disable() -> None:
    """Turn the layer off; emit sites go back to their no-op fast path."""
    global TRACER, PROFILER
    TRACER = None
    PROFILER = None


def enabled() -> bool:
    return TRACER is not None


_at_fork_registered = False


def _fork_child() -> None:
    if TRACER is not None:
        TRACER.after_fork()


def _register_at_fork() -> None:
    """Make forked children re-stamp their pid (once per process)."""
    global _at_fork_registered
    if _at_fork_registered or not hasattr(os, "register_at_fork"):
        return
    os.register_at_fork(after_in_child=_fork_child)
    _at_fork_registered = True


__all__ = [
    "Decision",
    "KIND_CHECKPOINT",
    "KIND_CONTROL",
    "KIND_DCA",
    "KIND_DECISION",
    "KIND_EPOCH",
    "KIND_FAULT",
    "KIND_MASK",
    "KIND_PHASE",
    "KIND_PLATFORM",
    "KIND_SAMPLE",
    "KIND_SPAN",
    "KIND_TENANT",
    "KIND_ZONE",
    "PROFILER",
    "PhaseProfiler",
    "TRACER",
    "TraceEvent",
    "Tracer",
    "disable",
    "enable",
    "enabled",
]
