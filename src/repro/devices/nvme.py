"""NVMe SSD model (the paper's RAID-0 of four Samsung 980 PROs).

Two-stage service model, run as a quantum-based simulation process:

* **Admission** — command issue is serialised: one command enters service
  per ``command_overhead_cycles`` (doorbell, FTL lookup, DMA setup).  This
  bounds small-block throughput and yields the paper's Fig. 5a shape —
  throughput grows with block size and saturates around the 128 KB-paper-
  equivalent block.
* **Transfer** — up to ``parallelism`` admitted commands share the array's
  aggregate bandwidth (flash-channel / RAID-lane concurrency), their data
  DMA-written progressively through the IIO agent as it transfers.

The concurrency is what floods the DCA ways at large blocks: with deep
queues, ``parallelism`` × ``block_lines`` unconsumed lines are in flight,
far exceeding DCA capacity — the paper's storage-driven DMA leak (O2).
Whether those writes allocate into the LLC or stream to memory is decided
by the device's PCIe port register (A4's selective-DCA knob).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional
from collections import deque

from repro.platform import DEFAULT_PLATFORM, PlatformSpec
from repro.sim.engine import Simulator
from repro.telemetry.counters import CounterBank
from repro.uncore.iio import IIOAgent
from repro.uncore.pcie import PciePort


@dataclass
class NvmeConfig:
    bandwidth_lines_per_cycle: float = DEFAULT_PLATFORM.ssd_bandwidth_lines_per_cycle
    command_overhead_cycles: float = 60.0
    """Serialised per-command issue cost; sets the block size at which
    throughput saturates."""
    parallelism: int = 24
    """Concurrent transfers (flash channels x RAID lanes)."""
    quantum_cycles: float = 150.0
    """Service-loop timestep of the processor-sharing model."""

    def __post_init__(self) -> None:
        if self.bandwidth_lines_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.quantum_cycles <= 0:
            raise ValueError("quantum must be positive")

    def peak_throughput(self, lines: int) -> float:
        """Achievable lines/cycle at a block size (admission- or
        bandwidth-bound, whichever binds)."""
        admission = lines / self.command_overhead_cycles
        return min(self.bandwidth_lines_per_cycle, admission)

    @classmethod
    def for_platform(cls, platform: PlatformSpec, **overrides) -> "NvmeConfig":
        """An SSD config drawing its bandwidth from ``platform``."""
        overrides.setdefault(
            "bandwidth_lines_per_cycle", platform.ssd_bandwidth_lines_per_cycle
        )
        return cls(**overrides)


@dataclass
class NvmeCommand:
    """One read command: DMA the block into ``buffer_addr``..+``lines``."""

    stream: str
    buffer_addr: int
    lines: int
    submitted_at: float = 0.0
    admitted_at: float = 0.0
    completed_at: float = 0.0
    on_complete: Optional[Callable[[float, "NvmeCommand"], None]] = None
    _written: int = field(default=0, repr=False)
    _credit: float = field(default=0.0, repr=False)


class NvmeSsd:
    """A logical NVMe namespace with internal transfer concurrency."""

    __slots__ = (
        "name",
        "port",
        "iio",
        "counters",
        "cfg",
        "_queue",
        "_active",
        "_admission_credit",
        "_started",
        "_pending_stall",
        "_mid_quantum",
        "_stall_taken",
        "commands_completed",
        "lines_transferred",
        "stalls_injected",
    )

    def __init__(
        self,
        name: str,
        port: PciePort,
        iio: IIOAgent,
        counters: CounterBank,
        cfg: Optional[NvmeConfig] = None,
    ):
        self.name = name
        self.port = port
        self.iio = iio
        self.counters = counters
        self.cfg = cfg or NvmeConfig()
        self._queue: Deque[NvmeCommand] = deque()
        self._active: List[NvmeCommand] = []
        self._admission_credit = 0.0
        self._started = False
        self._pending_stall = 0.0
        self._mid_quantum = False
        self._stall_taken = False
        self.commands_completed = 0
        self.lines_transferred = 0
        self.stalls_injected = 0

    def inject_stall(self, cycles: float) -> None:
        """Freeze the service engine for ``cycles`` (a firmware hiccup /
        garbage-collection pause; used by the fault injector).  Queued and
        in-flight commands are preserved — service merely pauses."""
        if cycles > 0:
            self._pending_stall += cycles
            self.stalls_injected += 1

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + len(self._active)

    def time_shift(self, delta: float) -> None:
        """Shift the absolute timestamps of queued/in-flight commands by
        ``delta`` (interval-sampling clock skip)."""
        for command in list(self._queue) + self._active:
            command.submitted_at += delta
            command.admitted_at += delta
            command.completed_at += delta

    def submit(self, sim: Simulator, command: NvmeCommand) -> None:
        command.submitted_at = sim.now
        self._queue.append(command)
        if not self._started:
            self._started = True
            sim.spawn_restartable(f"{self.name}-engine", self, "_engine", sim)

    def _engine(self, sim: Simulator):
        # Restartable body: the quantum/stall position lives in the
        # ``_mid_quantum``/``_stall_taken`` flags rather than in the
        # generator frame, so a rebuilt generator resumes in the right leg
        # of the service loop after a checkpoint restore.
        cfg = self.cfg
        while True:
            if not self._mid_quantum:
                self._mid_quantum = True
                yield cfg.quantum_cycles
                continue
            if self._pending_stall > 0.0 and not self._stall_taken:
                self._stall_taken = True
                stall, self._pending_stall = self._pending_stall, 0.0
                yield stall
                continue
            self._mid_quantum = False
            self._stall_taken = False
            self._admit(sim)
            self._transfer(sim)

    def _admit(self, sim: Simulator) -> None:
        cfg = self.cfg
        self._admission_credit = min(
            self._admission_credit + cfg.quantum_cycles,
            2.0 * cfg.command_overhead_cycles,
        )
        while (
            self._queue
            and len(self._active) < cfg.parallelism
            and self._admission_credit >= cfg.command_overhead_cycles
        ):
            self._admission_credit -= cfg.command_overhead_cycles
            command = self._queue.popleft()
            command.admitted_at = sim.now
            self._active.append(command)

    def _transfer(self, sim: Simulator) -> None:
        active = self._active
        if not active:
            return
        cfg = self.cfg
        share = cfg.bandwidth_lines_per_cycle * cfg.quantum_cycles / len(active)
        finished: List[NvmeCommand] = []
        spans: List[tuple] = []
        transferred = 0
        for command in active:
            credit = command._credit + share
            written = command._written
            lines = command.lines
            burst = int(credit)
            if burst > lines - written:
                burst = lines - written
            if burst > 0:
                credit -= burst
                spans.append((command.buffer_addr + written, burst, command.stream))
                written += burst
                command._written = written
                transferred += burst
            command._credit = credit
            if written >= lines:
                finished.append(command)
        self.lines_transferred += transferred
        if spans:
            # All of this quantum's per-command bursts happen at the same
            # timestamp, so they cross the IIO agent as one multi-span call.
            self.iio.inbound_write_multi(sim.now, self.port, spans)
        for command in finished:
            active.remove(command)
            command.completed_at = sim.now
            self.commands_completed += 1
            if command.on_complete is not None:
                command.on_complete(sim.now, command)
