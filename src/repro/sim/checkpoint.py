"""Checkpoint/restore for whole simulated servers.

A checkpoint is a :class:`SimState`: a digest-protected pickle of the
entire :class:`~repro.experiments.harness.Server` object graph — event
heap (reduced to restartable-process descriptors by
:meth:`Simulator.__getstate__`), RNG sub-streams, cache hierarchy, uncore
(IIO, PCIe, memory controller), devices, workload loop state, and the
manager FSM.  Restoring at epoch E and continuing is bit-identical to an
uninterrupted run: every process body in the tree is written in
*restartable* form (see :meth:`Simulator.spawn_restartable`), so a fresh
generator first-resumed at the recorded pending time replays exactly what
the suspended original would have done.

This module only takes and restores snapshots.  Storing them is the run
cache's job: :func:`~repro.experiments.figures.base.resumable_run` writes
each one as a :class:`~repro.experiments.runcache.RunCache` entry keyed on
``("checkpoint", run_key, epoch)``, and that key carries the cache schema
and the repo's code salt, so a checkpoint can never be restored by a
different version of the simulator source.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken, validated, or restored."""


@dataclass
class SimState:
    """One snapshot of a server, ready to persist or restore.

    ``payload`` is the pickled server graph; ``digest`` is its SHA-256, so
    a truncated or bit-flipped blob is detected before unpickling (which
    would otherwise fail in arbitrarily confusing ways, or worse, not
    fail)."""

    epoch: int
    payload: bytes
    digest: str

    def validate(self) -> None:
        actual = hashlib.sha256(self.payload).hexdigest()
        if actual != self.digest:
            raise CheckpointError(
                f"checkpoint payload digest mismatch "
                f"(stored {self.digest[:12]}, actual {actual[:12]})"
            )


def snapshot(server) -> SimState:
    """Capture ``server`` as a :class:`SimState`.

    Raises :class:`~repro.sim.engine.SnapshotError` (via the simulator's
    ``__getstate__``) if any live process was spawned without a
    restartable factory, and :class:`CheckpointError` if anything in the
    graph cannot pickle."""
    try:
        payload = pickle.dumps(server, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        if type(exc).__name__ == "SnapshotError":
            raise
        raise CheckpointError(f"server graph does not pickle: {exc}") from exc
    return SimState(
        epoch=getattr(server, "epochs_completed", 0),
        payload=payload,
        digest=hashlib.sha256(payload).hexdigest(),
    )


def restore(state: SimState):
    """Rebuild the server from ``state`` (validates the digest first)."""
    state.validate()
    try:
        return pickle.loads(state.payload)
    except Exception as exc:
        raise CheckpointError(f"checkpoint failed to restore: {exc}") from exc
