"""Synthetic CPU workloads driven by an access profile.

The profile engine underlies X-Mem (the paper's configurable memory
microbenchmark) and the SPEC CPU2017 analogues: a per-core loop issuing
loads/stores over a working set with a chosen pattern, interleaved with
compute cycles.  IPC falls out naturally — more compute per access and more
cache hits mean more instructions retired per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.pcm import KIND_CPU
from repro.workloads.base import METRIC_IPC, Workload

PATTERN_SEQUENTIAL = "seq"
PATTERN_RANDOM = "rand"
PATTERN_STRIDE = "stride"


@dataclass(frozen=True)
class AccessProfile:
    """Memory behaviour of a synthetic workload (immutable: the workload
    loops bind its fields once per generator start)."""

    working_set_lines: int
    pattern: str = PATTERN_SEQUENTIAL
    write_fraction: float = 0.0
    compute_cycles: float = 3.0
    """Cycles of computation between consecutive memory accesses."""
    instructions_per_access: int = 8
    """Instructions retired per loop iteration (one access + arithmetic)."""
    repeats: int = 1
    """Consecutive accesses to each line before moving on — models
    word-granular reuse of a cache line and gives compute-bound workloads a
    realistic MLC hit rate."""
    stride_lines: int = 4
    """Line stride for the 'stride' pattern (X-Mem's strided mode)."""
    batch_accesses: int = 1
    """Opt-in event coalescing: issue this many loop iterations as one
    ``cpu_access_run`` at a single timestamp, yielding their summed cost.
    The default (1) is the exact per-access process and what every figure
    uses; values > 1 coarsen the event timeline (fewer, larger events), so
    this is an approximation knob for long-horizon capacity sweeps, not a
    transparent speedup — results are NOT bit-identical to the default."""

    def __post_init__(self) -> None:
        if self.working_set_lines <= 0:
            raise ValueError("working set must be positive")
        if self.pattern not in (
            PATTERN_SEQUENTIAL,
            PATTERN_RANDOM,
            PATTERN_STRIDE,
        ):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.stride_lines < 1:
            raise ValueError("stride_lines must be >= 1")
        if self.batch_accesses < 1:
            raise ValueError("batch_accesses must be >= 1")
        if self.batch_accesses > 1 and self.write_fraction > 0:
            raise ValueError(
                "batch_accesses > 1 requires a read-only profile "
                "(cpu_access_run issues homogeneous read runs)"
            )


class _SynthState:
    """Loop-carried state of one synthetic core loop (checkpointable)."""

    __slots__ = ("index", "rep", "addr")

    def __init__(self) -> None:
        self.index = 0
        self.rep = 0
        self.addr = 0


class SyntheticWorkload(Workload):
    """A profile-driven CPU workload, optionally multi-core.

    The working set is split evenly across cores (each core streams over its
    private slice), matching how X-Mem instances are run in the paper.
    """

    kind = KIND_CPU
    performance_metric = METRIC_IPC

    def __init__(
        self,
        name: str,
        profile: AccessProfile,
        priority: str,
        cores: int = 1,
        tenant=None,
    ):
        super().__init__(name, priority, cores, tenant=tenant)
        self.profile = profile

    def setup(self, server) -> None:
        self.cores = server.alloc_cores(self.num_cores)
        base = server.alloc_region(self.profile.working_set_lines)
        slice_lines = max(1, self.profile.working_set_lines // self.num_cores)
        for i, core in enumerate(self.cores):
            server.sim.spawn_restartable(
                f"{self.name}@{core}",
                self,
                "_body",
                server,
                core,
                base + i * slice_lines,
                slice_lines,
                server.rng.stream(f"{self.name}-{i}"),
                _SynthState(),
            )

    def _body(self, server, core: int, base: int, lines: int, rng, st):
        # Restartable body: all loop-carried state lives in ``st``/``rng``
        # (snapshotted with the server) and every yield ends its dispatch
        # arm, so a rebuilt generator resumes exactly where this one left
        # off.  The per-repeat structure, access order, and RNG draw order
        # match the original nested-loop formulation bit for bit.
        #
        # Everything the loop reads is bound once per generator start (the
        # profile is frozen, so no local can go stale).  A random address
        # is drawn with the rejection loop ``Random.randrange(lines)`` runs
        # for ``lines >= 1``, minus its call chain: same draws, same stream.
        cpu_access = server.hierarchy.cpu_access
        sim = server.sim
        counters = server.counters.stream(self.name)
        name = self.name
        profile = self.profile
        sequential = profile.pattern == PATTERN_SEQUENTIAL
        strided = profile.pattern == PATTERN_STRIDE
        stride = profile.stride_lines
        repeats = profile.repeats
        write_fraction = profile.write_fraction
        writes = write_fraction > 0
        compute = profile.compute_cycles
        instructions = profile.instructions_per_access
        getrandbits = rng.getrandbits
        random = rng.random
        nbits = lines.bit_length()

        def next_addr():
            index = st.index
            if sequential:
                addr = base + index
                index += 1
                if index >= lines:
                    index = 0
            elif strided:
                addr = base + index
                index += stride
                if index >= lines:
                    index = (index + 1) % stride  # rotate the phase
            else:
                r = getrandbits(nbits)
                while r >= lines:
                    r = getrandbits(nbits)
                addr = base + r
            st.index = index
            return addr

        if profile.batch_accesses > 1:
            # Opt-in coalescing: ``batch_accesses`` loop iterations become
            # one event.  The addresses visited and the total cycles charged
            # match the per-access loop; only the event timeline coarsens
            # (all accesses of a batch land at the same ``now``).
            cpu_access_run = server.hierarchy.cpu_access_run
            while True:
                addrs = []
                for _ in range(profile.batch_accesses):
                    addrs.extend([next_addr()] * repeats)
                latency = cpu_access_run(sim.now, core, addrs, name)
                counters.instructions += instructions * len(addrs)
                yield latency + compute * len(addrs)

        while True:
            if st.rep == 0:
                # ``next_addr`` inlined: this loop runs once per access.
                if sequential:
                    index = st.index
                    addr = base + index
                    index += 1
                    st.index = 0 if index >= lines else index
                elif strided:
                    index = st.index
                    addr = base + index
                    index += stride
                    if index >= lines:
                        index = (index + 1) % stride
                    st.index = index
                else:
                    r = getrandbits(nbits)
                    while r >= lines:
                        r = getrandbits(nbits)
                    addr = base + r
                st.addr = addr
            else:
                addr = st.addr
            write = writes and random() < write_fraction
            latency = cpu_access(sim.now, core, addr, name, write)
            counters.instructions += instructions
            rep = st.rep + 1
            st.rep = 0 if rep >= repeats else rep
            yield latency + compute
