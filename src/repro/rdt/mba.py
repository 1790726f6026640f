"""Memory Bandwidth Allocation (MBA) model.

The second RDT resource-control knob on the paper's CPUs (the paper's §5.7
notes A4 can coordinate with "existing system monitoring tools"; MBA is the
natural enforcement lever when the memory-bandwidth guardrail of §5.5
trips).  Real MBA programs a per-CLOS *delay value* (0–90%, coarse steps)
that rate-limits a core's L2-miss requests toward memory.

Modelled effect: a core in a throttled CLOS sees its memory-access latency
scaled by ``1 / (1 - delay)`` — the request spends the extra time parked in
the throttling queue.  Unthrottled CLOS (delay 0) are unaffected: only the
throttled ones have an entry in ``factors``, so a memory access checks that
dict for emptiness and scales its latency only while some CLOS is
throttled.
"""

from __future__ import annotations

from typing import Dict

from repro.rdt.cat import ClosConfigError

VALID_DELAYS = tuple(range(0, 91, 10))
"""Real MBA exposes delay values in coarse 10% steps, 0..90."""


class MemoryBandwidthAllocation:
    """Per-CLOS memory throttling."""

    def __init__(self, num_clos: int = 16):
        self.num_clos = num_clos
        self._delays: Dict[int, int] = {c: 0 for c in range(num_clos)}
        self.factors: Dict[int, float] = {}
        """The latency multiplier of every throttled CLOS (none is 1.0)."""

    def set_delay(self, clos: int, delay_percent: int) -> None:
        """Program ``clos``'s delay value (one of the coarse MBA steps)."""
        self._validate_clos(clos)
        if delay_percent not in VALID_DELAYS:
            raise ClosConfigError(
                f"MBA delay must be one of {VALID_DELAYS}, got {delay_percent}"
            )
        self._delays[clos] = delay_percent
        if delay_percent:
            self.factors[clos] = 1.0 / (1.0 - delay_percent / 100.0)
        else:
            self.factors.pop(clos, None)

    def delay_of(self, clos: int) -> int:
        self._validate_clos(clos)
        return self._delays[clos]

    def latency_factor(self, clos: int) -> float:
        """Multiplier applied to a throttled core's memory latency."""
        return self.factors.get(clos, 1.0)

    def _validate_clos(self, clos: int) -> None:
        if not 0 <= clos < self.num_clos:
            raise ClosConfigError(f"CLOS {clos} outside 0..{self.num_clos - 1}")

    def delays(self) -> Dict[int, int]:
        return dict(self._delays)
