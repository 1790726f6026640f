"""Discrete-event simulation engine.

The engine is deliberately tiny: a binary-heap event queue over abstract
cycles whose only actor is the restartable generator process — a
generator built by a recorded ``(owner, method, args)`` factory, so every
pending process can be checkpointed and rebuilt.  All substrates in this
repository (caches, devices, workloads, the A4 controller) are driven by
it.
"""

from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng

__all__ = ["Simulator", "DeterministicRng"]
