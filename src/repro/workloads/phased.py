"""Workloads with execution phases.

A :class:`PhasedWorkload` alternates between an *active* phase (running a
synthetic access profile) and an *idle* phase (sleeping).  System daemons
behave exactly like this — KSM scans, then sleeps — and the paper's §5.6
machinery (antagonist restoration, periodic reverting) exists precisely to
track such phase changes.  The integration tests use phased antagonists to
drive A4's restore path.
"""

from __future__ import annotations

from repro.telemetry.pcm import KIND_CPU
from repro.workloads.base import METRIC_IPC, Workload
from repro.workloads.synthetic import (
    PATTERN_SEQUENTIAL,
    PATTERN_STRIDE,
    AccessProfile,
)


class _PhasedState:
    """Loop-carried state of one phased core loop (checkpointable).

    ``phase_end`` is an *absolute* simulated time — ``None`` between
    phases — and is shifted by :meth:`PhasedWorkload.time_shift` when
    interval sampling fast-forwards the clock."""

    __slots__ = ("index", "flips_seen", "phase_end")

    def __init__(self) -> None:
        self.index = 0
        self.flips_seen = 0
        self.phase_end = None


class PhasedWorkload(Workload):
    """Alternates ``active_cycles`` of profile execution with
    ``idle_cycles`` of sleep, indefinitely."""

    kind = KIND_CPU
    performance_metric = METRIC_IPC

    def __init__(
        self,
        name: str,
        profile: AccessProfile,
        priority: str,
        active_cycles: float,
        idle_cycles: float,
        cores: int = 1,
        tenant=None,
        record_latency: bool = False,
    ):
        super().__init__(name, priority, cores, tenant=tenant)
        if active_cycles <= 0 or idle_cycles < 0:
            raise ValueError("phase lengths must be positive (idle >= 0)")
        if profile.pattern == PATTERN_STRIDE or profile.repeats > 1:
            # The phase loop draws one sequential or random address per
            # access; it has no stride walk and no per-line reuse.
            raise ValueError(
                "phased workloads run only sequential or random profiles "
                "with repeats=1"
            )
        self.profile = profile
        self.active_cycles = active_cycles
        self.idle_cycles = idle_cycles
        self.record_latency = record_latency
        """Record each access's service time (latency + compute) into the
        PCM latency tracker, giving the stream per-epoch p50/p99 stats.
        Off by default — the daemons this class historically models have
        no request latency; the tenant scenario generator turns it on for
        latency-critical service tenants with p99 SLOs."""
        self.flip_count = 0
        self._states = []

    def request_flip(self) -> None:
        """Cut the current active phase short at the next access (fault
        injector chaos: a forced phase change §5.6 must chase)."""
        self.flip_count += 1

    def time_shift(self, delta: float) -> None:
        for st in self._states:
            if st.phase_end is not None:
                st.phase_end += delta

    def setup(self, server) -> None:
        self.cores = server.alloc_cores(self.num_cores)
        base = server.alloc_region(self.profile.working_set_lines)
        slice_lines = max(1, self.profile.working_set_lines // self.num_cores)
        for i, core in enumerate(self.cores):
            st = _PhasedState()
            self._states.append(st)
            server.sim.spawn_restartable(
                f"{self.name}@{core}",
                self,
                "_body",
                server,
                core,
                base + i * slice_lines,
                slice_lines,
                server.rng.stream(f"{self.name}-{i}"),
                st,
            )

    def _body(self, server, core: int, base: int, lines: int, rng, st):
        # Restartable body: the original nested phase loop is flattened
        # into one dispatch loop so every yield ends an arm.  A ``None``
        # ``phase_end`` marks "start a new active phase here" — exactly
        # where the original outer loop re-stamped it.  The loop binds its
        # inputs once per generator start and draws addresses exactly as
        # ``SyntheticWorkload._body`` does; latency samples go straight
        # onto the tracker's list (which ``flush`` clears in place).
        cpu_access = server.hierarchy.cpu_access
        sim = server.sim
        counters = server.counters.stream(self.name)
        name = self.name
        profile = self.profile
        sequential = profile.pattern == PATTERN_SEQUENTIAL
        write_fraction = profile.write_fraction
        writes = write_fraction > 0
        compute = profile.compute_cycles
        instructions = profile.instructions_per_access
        getrandbits = rng.getrandbits
        random = rng.random
        nbits = lines.bit_length()
        active_cycles = self.active_cycles
        idle_cycles = self.idle_cycles
        samples = (
            server.pcm.tracker(name)._samples if self.record_latency else None
        )
        while True:
            now = sim.now
            if st.phase_end is None:
                st.flips_seen = self.flip_count
                st.phase_end = now + active_cycles
            if now < st.phase_end and self.flip_count == st.flips_seen:
                if sequential:
                    index = st.index
                    addr = base + index
                    index += 1
                    st.index = 0 if index >= lines else index
                else:
                    r = getrandbits(nbits)
                    while r >= lines:
                        r = getrandbits(nbits)
                    addr = base + r
                write = writes and random() < write_fraction
                service = cpu_access(now, core, addr, name, write) + compute
                counters.instructions += instructions
                if samples is not None:
                    if service < 0:
                        raise ValueError("latency cannot be negative")
                    samples.append(service)
                yield service
                continue
            st.phase_end = None
            if idle_cycles:
                yield idle_cycles
