"""Process-wide switch for batched event dispatch.

Stage 2 of the perf overhaul coalesces homogeneous event runs — DMA
write bursts and CPU access streaks — into batch descriptors, each
processed in one tight loop with its counters updated in bulk.
Batching is a pure performance mode: the scalar and batched paths must
produce bit-identical counters, trace events, and cache state, so it is
safe to flip at any time.

The switch lives here (not on any simulator instance) because device
models and the cache hierarchy snapshot it at construction; tests and
the bench harness toggle it per-run via :func:`set_enabled` or the
``REPRO_BATCH_DISABLE`` environment variable.
"""

from __future__ import annotations

import os

#: Always False: nothing here uses numpy (benchmark records report it).
HAVE_NUMPY = False

#: Bursts shorter than this stay on scalar dispatch entirely: forming a
#: batch descriptor costs more than it saves below a handful of events.
MIN_BURST = 4

_enabled = os.environ.get("REPRO_BATCH_DISABLE", "") in ("", "0")


def enabled() -> bool:
    """True when batched dispatch is globally on (default)."""
    return _enabled


def set_enabled(value: bool) -> bool:
    """Flip the process-wide switch; returns the previous value.

    Only affects objects constructed afterwards, plus any object whose
    ``set_batching`` method is called explicitly — construction-time
    snapshots are the point of Stage 1, and re-reading a module global
    per event would reintroduce the exact indirection Stage 1 removed.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous
