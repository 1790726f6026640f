"""Per-request latency tracking with percentile reporting.

Workloads append one sample per completed request (a network packet, a
storage block).  The harness flushes per epoch, yielding the average / p50 /
p99 series the paper plots (Figs. 6, 7, 8, 12, 14).  Optional component
breakdowns support Fig. 14's queueing / access / processing decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class LatencyStats:
    """Summary of one epoch's samples."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p99: float = 0.0
    components: Dict[str, float] = field(default_factory=dict)
    """Mean per named component (e.g. queueing/access/processing)."""


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted list."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    rank = min(len(sorted_values) - 1, max(0, int(fraction * len(sorted_values))))
    return sorted_values[rank]


class LatencyTracker:
    """Accumulates request latencies (and component breakdowns) per epoch."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._components: Dict[str, List[float]] = {}

    def record(self, total: float, components: Optional[Dict[str, float]] = None) -> None:
        if total < 0:
            raise ValueError("latency cannot be negative")
        self._samples.append(total)
        if components:
            for name, value in components.items():
                self._components.setdefault(name, []).append(value)

    def pending(self) -> int:
        return len(self._samples)

    def flush(self) -> LatencyStats:
        """Summarise and clear the current epoch's samples."""
        if not self._samples:
            return LatencyStats()
        ordered = sorted(self._samples)
        stats = LatencyStats(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 0.50),
            p99=percentile(ordered, 0.99),
            components={
                name: sum(values) / len(values)
                for name, values in self._components.items()
                if values
            },
        )
        # Cleared in place, never rebound: PhasedWorkload's access loop
        # holds this list and appends to it directly.
        self._samples.clear()
        self._components.clear()
        return stats
