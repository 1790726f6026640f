"""Memory controller with bandwidth accounting and contention latency.

Transfers are counted per stream (for the per-epoch memory-bandwidth series
the paper plots) and fed into a decayed utilisation estimate.  CPU-visible
memory latency grows with utilisation following an M/D/1-style queueing
curve, so streaming antagonists measurably slow down everyone's misses —
the paper's "memory bandwidth abuse" guardrail in §5.5 relies on this signal.
"""

from __future__ import annotations

from repro.platform import DEFAULT_PLATFORM, PlatformSpec
from repro.telemetry.counters import CounterBank


class MemoryController:
    """DRAM interface; all units are cache lines and cycles."""

    __slots__ = (
        "counters",
        "_scounters",
        "bandwidth",
        "base_latency",
        "window",
        "_window_start",
        "_window_lines",
        "_utilization",
        "_latency",
    )

    def __init__(
        self,
        counters: CounterBank,
        bandwidth_lines_per_cycle: float = DEFAULT_PLATFORM.memory_bandwidth_lines_per_cycle,
        base_latency: float = DEFAULT_PLATFORM.memory_cycles,
        window_cycles: float = 2_000.0,
    ):
        if bandwidth_lines_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        self.counters = counters
        self._scounters: dict = {}
        self.bandwidth = bandwidth_lines_per_cycle
        self.base_latency = base_latency
        self.window = window_cycles
        self._window_start = 0.0
        self._window_lines = 0
        self._utilization = 0.0
        self._latency = self._latency_at(0.0)
        # ^ access_latency(), recomputed whenever the utilisation moves.

    @classmethod
    def for_platform(
        cls, counters: CounterBank, platform: PlatformSpec, **overrides
    ) -> "MemoryController":
        """A controller with ``platform``'s DRAM bandwidth and latency."""
        return cls(
            counters,
            bandwidth_lines_per_cycle=platform.memory_bandwidth_lines_per_cycle,
            base_latency=platform.memory_cycles,
            **overrides,
        )

    # -- traffic -------------------------------------------------------------

    def read(self, now: float, lines: int, stream: str) -> float:
        """Account a read of ``lines``; returns :meth:`access_latency` as
        it stands after the read (a CPU miss's memory latency)."""
        counters = self._scounters.get(stream)
        if counters is None:
            counters = self._scounters[stream] = self.counters.stream(stream)
        counters.mem_reads += lines
        if now - self._window_start >= self.window:
            self._roll_window(now)
        self._window_lines += lines
        return self._latency

    def write(self, now: float, lines: int, stream: str) -> None:
        counters = self._scounters.get(stream)
        if counters is None:
            counters = self._scounters[stream] = self.counters.stream(stream)
        counters.mem_writes += lines
        if now - self._window_start >= self.window:
            self._roll_window(now)
        self._window_lines += lines

    def time_shift(self, delta: float) -> None:
        """Shift the utilisation window's anchor with the clock (interval
        sampling); keeps the decayed estimate intact across a skip instead
        of collapsing it over one huge 'elapsed' window."""
        self._window_start += delta

    def _roll_window(self, now: float) -> None:
        elapsed = max(now - self._window_start, self.window)
        inst = self._window_lines / elapsed / self.bandwidth
        # Exponential decay keeps the estimate smooth across windows.
        self._utilization = 0.5 * self._utilization + 0.5 * min(inst, 1.0)
        self._latency = self._latency_at(self._utilization)
        self._window_start = now
        self._window_lines = 0

    # -- latency ---------------------------------------------------------------

    @property
    def utilization(self) -> float:
        return self._utilization

    def access_latency(self) -> float:
        """Current load-to-use DRAM latency including queueing."""
        return self._latency

    def _latency_at(self, utilization: float) -> float:
        rho = min(utilization, 0.92)
        return self.base_latency * (1.0 + 0.5 * rho / (1.0 - rho))
