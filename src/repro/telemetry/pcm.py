"""PCM-style epoch sampler.

Once per epoch (the paper's 1-second monitoring interval) the sampler diffs
every stream's cumulative counters against the previous snapshot and emits an
:class:`EpochSample` — per-stream rates plus machine-wide memory and PCIe
bandwidth.  This is the only interface the A4 controller (and the baselines)
see; they never reach into the cache models, just like the real daemon only
sees Intel PCM and CAT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.platform import DEFAULT_PLATFORM
from repro.telemetry.counters import CounterBank, StreamCounters
from repro.telemetry.latency import LatencyStats, LatencyTracker

KIND_NETWORK = "network-io"
KIND_STORAGE = "storage-io"
KIND_CPU = "non-io"

PRIORITY_HIGH = "HPW"
PRIORITY_LOW = "LPW"


@dataclass
class StreamInfo:
    """Launch-time metadata A4 gathers about a workload (paper Fig. 9, step 1)."""

    name: str
    kind: str = KIND_CPU
    priority: str = PRIORITY_HIGH
    cores: tuple = ()
    port_id: Optional[int] = None
    """PCIe port of the associated I/O device, if any."""
    tenant: str = ""
    """Owning tenant's name (empty for streams registered pre-tenancy)."""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_NETWORK, KIND_STORAGE, KIND_CPU):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.priority not in (PRIORITY_HIGH, PRIORITY_LOW):
            raise ValueError(f"unknown priority {self.priority!r}")

    @property
    def is_io(self) -> bool:
        return self.kind != KIND_CPU


@dataclass
class StreamSample:
    """One stream's activity during one epoch."""

    name: str
    info: StreamInfo
    counters: StreamCounters
    latency: LatencyStats
    epoch_cycles: float
    line_bytes: int = DEFAULT_PLATFORM.line_bytes

    @property
    def ipc(self) -> float:
        """Instructions per cycle, per core of the workload."""
        cores = max(1, len(self.info.cores))
        return self.counters.instructions / (self.epoch_cycles * cores)

    @property
    def llc_hit_rate(self) -> float:
        return self.counters.llc_hit_rate

    @property
    def llc_miss_rate(self) -> float:
        return self.counters.llc_miss_rate

    @property
    def mlc_miss_rate(self) -> float:
        return self.counters.mlc_miss_rate

    @property
    def dca_miss_rate(self) -> float:
        return self.counters.dca_miss_rate

    @property
    def io_throughput_lines_per_cycle(self) -> float:
        return (
            self.counters.io_bytes_completed
            / self.line_bytes
            / self.epoch_cycles
        )


@dataclass
class EpochSample:
    """Machine-wide view of one epoch."""

    index: int
    time: float
    epoch_cycles: float
    streams: Dict[str, StreamSample]
    mem_read_lines: int
    mem_write_lines: int

    @property
    def mem_read_bw(self) -> float:
        return self.mem_read_lines / self.epoch_cycles

    @property
    def mem_write_bw(self) -> float:
        return self.mem_write_lines / self.epoch_cycles

    @property
    def mem_total_bw(self) -> float:
        return self.mem_read_bw + self.mem_write_bw

    @property
    def pcie_write_lines(self) -> int:
        """System I/O read traffic = total inbound DMA writes this epoch."""
        return sum(s.counters.dma_writes for s in self.streams.values())

    def storage_io_share(self) -> float:
        """Storage's portion of PCIe write throughput (A4's T4 signal)."""
        total = self.pcie_write_lines
        if not total:
            return 0.0
        storage = sum(
            s.counters.dma_writes
            for s in self.streams.values()
            if s.info.kind == KIND_STORAGE
        )
        return storage / total


class PcmSampler:
    """Samples the counter bank into per-epoch deltas."""

    def __init__(
        self,
        counters: CounterBank,
        epoch_cycles: float = DEFAULT_PLATFORM.epoch_cycles,
        line_bytes: int = DEFAULT_PLATFORM.line_bytes,
    ):
        self.counters = counters
        self.epoch_cycles = epoch_cycles
        self.line_bytes = line_bytes
        self.infos: Dict[str, StreamInfo] = {}
        self.trackers: Dict[str, LatencyTracker] = {}
        self.history: List[EpochSample] = []
        self._last: Dict[str, StreamCounters] = {}
        self._last_mem_reads = 0
        self._last_mem_writes = 0
        self._index = 0

    def register(self, info: StreamInfo) -> None:
        self.infos[info.name] = info
        self.trackers.setdefault(info.name, LatencyTracker())
        # Materialise counters so silent streams still appear in samples.
        self.counters.stream(info.name)

    def unregister(self, name: str) -> None:
        self.infos.pop(name, None)

    def tracker(self, name: str) -> LatencyTracker:
        tracker = self.trackers.get(name)
        if tracker is None:
            tracker = self.trackers[name] = LatencyTracker()
        return tracker

    def sample(self, now: float) -> EpochSample:
        """Close the current epoch and return its sample."""
        streams: Dict[str, StreamSample] = {}
        mem_reads = 0
        mem_writes = 0
        for name, counters in self.counters.streams.items():
            last = self._last.get(name, StreamCounters())
            delta = counters.delta(last)
            self._last[name] = counters.snapshot()
            mem_reads += delta.mem_reads
            mem_writes += delta.mem_writes
            info = self.infos.get(name, StreamInfo(name))
            latency = self.tracker(name).flush()
            streams[name] = StreamSample(
                name=name,
                info=info,
                counters=delta,
                latency=latency,
                epoch_cycles=self.epoch_cycles,
                line_bytes=self.line_bytes,
            )
        sample = EpochSample(
            index=self._index,
            time=now,
            epoch_cycles=self.epoch_cycles,
            streams=streams,
            mem_read_lines=mem_reads,
            mem_write_lines=mem_writes,
        )
        self._index += 1
        self.history.append(sample)
        return sample
