"""Per-phase engine attribution: where did the wall time and cycles go.

:class:`PhaseProfiler` hangs off :class:`repro.sim.engine.Simulator` (the
``profiler`` slot, ``None`` by default — one pointer compare per
``run_until`` call when off).  The harness points :attr:`label` at the
controller's current FSM phase before each epoch, so a profiled run
answers "how much simulation happened while A4 sat in ``expanding`` vs
``stable``" — the cycle/wall-time attribution ``tools/bench.py
--profile`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PhaseStats:
    """Accumulated attribution for one label."""

    wall_s: float = 0.0
    events: int = 0
    cycles: float = 0.0
    windows: int = 0
    """``run_until`` windows (epochs, for harness-driven runs)."""


class PhaseProfiler:
    """Accumulates (wall seconds, engine events, simulated cycles) per
    label; the engine records one entry per ``run_until`` window."""

    def __init__(self) -> None:
        self.label = "run"
        self.phases: Dict[str, PhaseStats] = {}

    def record(
        self, label: str, wall_s: float, events: int, cycles: float
    ) -> None:
        stats = self.phases.get(label)
        if stats is None:
            stats = self.phases[label] = PhaseStats()
        stats.wall_s += wall_s
        stats.events += events
        stats.cycles += cycles
        stats.windows += 1

    @property
    def total_wall(self) -> float:
        return sum(s.wall_s for s in self.phases.values())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            label: {
                "wall_s": stats.wall_s,
                "events": stats.events,
                "cycles": stats.cycles,
                "windows": stats.windows,
            }
            for label, stats in sorted(self.phases.items())
        }

    def table(self) -> str:
        """Human-readable attribution table, widest wall share first."""
        total = self.total_wall or 1.0
        lines = [
            f"{'phase':<12} {'windows':>8} {'wall_s':>9} {'share':>7} "
            f"{'events':>12} {'events/s':>12} {'cycles':>14}"
        ]
        ordered = sorted(
            self.phases.items(), key=lambda kv: kv[1].wall_s, reverse=True
        )
        for label, stats in ordered:
            rate = stats.events / stats.wall_s if stats.wall_s else 0.0
            lines.append(
                f"{label:<12} {stats.windows:>8} {stats.wall_s:>9.3f} "
                f"{100 * stats.wall_s / total:>6.1f}% {stats.events:>12,} "
                f"{rate:>12,.0f} {stats.cycles:>14,.0f}"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        self.phases.clear()
        self.label = "run"
