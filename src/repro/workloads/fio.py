"""FIO-style storage workload (paper §3.2): libaio random reads, O_DIRECT.

Each thread keeps ``io_depth`` read commands outstanding against the
workload's NVMe device and, on completion, scans every line of the block
(the paper modifies FIO to run a regular-expression match over each block so
the data demonstrably enters the MLCs).  Completion buffers cycle over a
per-thread pool of ``io_depth + 1`` block buffers — O_DIRECT-style reuse —
so DMA writes frequently write-update lines still cached from earlier
blocks.

Block sizes are quoted in paper bytes and run through the capacity scale.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.devices.nvme import NvmeCommand, NvmeConfig, NvmeSsd
from repro.platform import DEFAULT_PLATFORM
from repro.telemetry.pcm import KIND_STORAGE, PRIORITY_LOW
from repro.workloads.base import METRIC_THROUGHPUT, Workload

COMPLETION_POLL_CYCLES = 60.0


class _CompletionQueue:
    """Picklable completion sink: the SSD calls it, the thread drains it.

    Replaces the former ``on_complete`` lambda (closures cannot pickle, so
    they cannot cross a checkpoint)."""

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items = deque()

    def __call__(self, _now: float, command) -> None:
        self.items.append(command)


class _FioState:
    """Loop-carried state of one FIO thread (checkpointable).

    ``pc``: 0 = poll completions, 1 = kernel->user copy (buffered mode),
    2 = block scan.  ``command`` is the block under service; its
    ``submitted_at`` is an absolute timestamp handled by
    :meth:`FioWorkload.time_shift`."""

    __slots__ = ("pc", "offset", "next_buffer", "completed", "primed",
                 "command")

    def __init__(self) -> None:
        self.pc = 0
        self.offset = 0
        self.next_buffer = 0
        self.completed = _CompletionQueue()
        self.primed = False
        self.command = None


class FioWorkload(Workload):
    """Flexible I/O Tester: multi-threaded random reads + per-line scan."""

    kind = KIND_STORAGE
    performance_metric = METRIC_THROUGHPUT

    IO_DIRECT = "direct"
    IO_BUFFERED = "buffered"

    def __init__(
        self,
        name: str = "fio",
        block_bytes: int = 2 * 1024 * 1024,
        cores: int = 4,
        io_depth: int = 32,
        io_mode: str = IO_DIRECT,
        compute_cycles_per_line: float = 2.0,
        instructions_per_line: int = 8,
        memory_parallelism: float = 6.0,
        priority: str = PRIORITY_LOW,
        nvme_cfg: Optional[NvmeConfig] = None,
        tenant=None,
    ):
        super().__init__(name, priority, cores, tenant=tenant)
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if io_depth <= 0:
            raise ValueError("io_depth must be positive")
        self.block_bytes = block_bytes
        self.block_lines = DEFAULT_PLATFORM.lines_for_paper_bytes(block_bytes)
        """Scaled block size; re-derived from the server's platform at
        :meth:`setup` time (the ctor value covers pre-setup inspection)."""
        if io_mode not in (self.IO_DIRECT, self.IO_BUFFERED):
            raise ValueError(f"unknown io_mode {io_mode!r}")
        self.io_mode = io_mode
        """'direct' = O_DIRECT (device DMAs straight into the user buffer,
        §2.3 / Fig. 2 red path); 'buffered' = the conventional page-cache
        path: DMA into a kernel buffer, then the CPU copies kernel->user
        before scanning — double buffering plus an extra copy."""
        self.io_depth = io_depth
        self.compute_cycles_per_line = compute_cycles_per_line
        self.instructions_per_line = instructions_per_line
        if memory_parallelism < 1.0:
            raise ValueError("memory_parallelism must be >= 1")
        self.memory_parallelism = memory_parallelism
        """Outstanding misses the block scan overlaps.  Streaming over a
        freshly DMA-written block is prefetch-friendly, so the per-line
        load-to-use latency is amortised across ``memory_parallelism``
        lines — this keeps FIO device-bound (as on the paper's testbed)
        rather than consumer-bound."""
        self._explicit_nvme_cfg = nvme_cfg
        self.nvme_cfg = nvme_cfg or NvmeConfig()
        self.ssd: Optional[NvmeSsd] = None

    def setup(self, server) -> None:
        platform = server.platform
        self.block_lines = platform.lines_for_paper_bytes(self.block_bytes)
        self.nvme_cfg = (
            self._explicit_nvme_cfg or NvmeConfig.for_platform(platform)
        )
        self.cores = server.alloc_cores(self.num_cores)
        port = server.add_port(f"{self.name}-ssd")
        self.port_id = port.port_id
        self.ssd = NvmeSsd(
            name=f"{self.name}-ssd",
            port=port,
            iio=server.iio,
            counters=server.counters,
            cfg=self.nvme_cfg,
        )
        self._states = []
        for core in self.cores:
            buffers = [
                server.alloc_region(self.block_lines)
                for _ in range(self.io_depth + 1)
            ]
            user_buffer = (
                server.alloc_region(self.block_lines)
                if self.io_mode == self.IO_BUFFERED
                else None
            )
            st = _FioState()
            self._states.append(st)
            server.sim.spawn_restartable(
                f"{self.name}@{core}",
                self,
                "_thread_body",
                server,
                core,
                buffers,
                user_buffer,
                st,
            )

    def time_shift(self, delta: float) -> None:
        if self.ssd is not None:
            self.ssd.time_shift(delta)
        for st in getattr(self, "_states", ()):
            for command in st.completed.items:
                command.submitted_at += delta
                command.admitted_at += delta
                command.completed_at += delta
            if st.command is not None:
                st.command.submitted_at += delta
                st.command.admitted_at += delta
                st.command.completed_at += delta

    def _thread_body(self, server, core: int, buffers, user_buffer, st):
        # Restartable body: poll (0), buffered copy (1) and scan (2) arms
        # of a ``pc`` machine whose state lives in ``st``, written before
        # every yield.  Inside an arm the loop runs on locals — the block
        # under service and the line position — and falls through to the
        # next arm without yielding where the original had no yield (the
        # retire and resubmit run at the same ``now`` as the last scanned
        # line, then polling continues).  The io_depth priming submits
        # run on the first resume, guarded by ``st.primed`` so a rebuilt
        # generator never re-submits.
        sim = server.sim
        counters = server.counters.stream(self.name)
        record = server.pcm.tracker(self.name).record
        completed = st.completed
        items = completed.items
        cpu_access = server.hierarchy.cpu_access
        ssd_submit = self.ssd.submit
        name = self.name
        block_lines = self.block_lines
        nbuffers = len(buffers)
        instructions_per_line = self.instructions_per_line
        compute_cycles = self.compute_cycles_per_line
        parallelism = self.memory_parallelism
        line_bytes = server.platform.line_bytes

        def submit() -> None:
            buffer_addr = buffers[st.next_buffer]
            st.next_buffer = (st.next_buffer + 1) % nbuffers
            ssd_submit(
                sim,
                NvmeCommand(
                    stream=name,
                    buffer_addr=buffer_addr,
                    lines=block_lines,
                    on_complete=completed,
                ),
            )

        if not st.primed:
            st.primed = True
            for _ in range(self.io_depth):
                submit()

        while True:
            pc = st.pc
            if pc == 0:
                if not items:
                    yield COMPLETION_POLL_CYCLES
                    continue
                command = st.command = items.popleft()
                st.offset = 0
                st.pc = pc = 1 if user_buffer is not None else 2
            else:
                command = st.command
            lines = command.lines
            if pc == 1:
                # Buffered path: copy kernel buffer -> user buffer first
                # (read the DMA target, write the user page), then scan
                # the user copy.
                source = command.buffer_addr
                offset = st.offset
                while offset < lines:
                    read_latency = cpu_access(
                        sim.now, core, source + offset, name, False, True
                    )
                    write_latency = cpu_access(
                        sim.now, core, user_buffer + offset, name, True
                    )
                    counters.instructions += instructions_per_line
                    offset += 1
                    st.offset = offset
                    yield (read_latency + write_latency) / parallelism
                st.offset = 0
                st.pc = 2
            # pc == 2: regex scan over the whole block — every line enters
            # the MLC — then retire and resubmit.
            if user_buffer is not None:
                scan_base, scan_io = user_buffer, False
            else:
                scan_base, scan_io = command.buffer_addr, True
            offset = st.offset
            while offset < lines:
                latency = cpu_access(
                    sim.now, core, scan_base + offset, name, False, scan_io
                )
                counters.instructions += instructions_per_line
                offset += 1
                st.offset = offset
                yield (latency + compute_cycles) / parallelism
            counters.io_bytes_completed += lines * line_bytes
            counters.io_requests_completed += 1
            record(sim.now - command.submitted_at)
            st.command = None
            submit()
            st.pc = 0
