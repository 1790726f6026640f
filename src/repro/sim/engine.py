"""Discrete-event simulation core.

The engine has one kind of actor: the *restartable process*.  A process is
a Python generator that yields a non-negative delay in cycles; the engine
resumes it after that many cycles.  This is how CPU cores, the NIC and
the NVMe engine are written: the substrate computes how long an action
takes (e.g. a memory access under contention) and the process simply
yields that cost.  (The A4 daemon is no process: the harness calls the
managers at epoch boundaries.)  Every process is built by a recorded factory,
``getattr(owner, method)(*args)`` (see :meth:`Simulator.spawn_restartable`),
so any pending process can cross a snapshot: the restored simulator
rebuilds its generator from the factory.

The clock is an integer-friendly float.  Determinism is guaranteed by a
monotonically increasing sequence number used as a heap tie-breaker.

Pending resumes live in one binary heap (``heapq``) ordered by
``(time, seq)``.  Entries are plain ``[time, seq, body, name]`` lists, so
ordering is resolved by C-level list comparison on the unique
``(time, seq)`` prefix — the ``body`` slot is never compared.  The run
loops resume a body inline while its entry is still the heap root — no
per-event trampoline frame.  The loop then rewrites that root's
time and seq in place and sifts it down with one ``heapreplace``, so
steady-state execution allocates nothing.  This is exact: anything the
body spawns while it runs has ``time >= now`` and a larger seq, so it
sorts after the running entry and the root cannot move underneath it.
A body that returns, raises, or yields a negative delay is popped, so it
leaves the queue.  ``tests/test_engine.py`` checks the pop order against
a naive reference heap on randomized programs.

Reentrancy rule: a body may spawn freely, but must not drive the
simulator itself — ``run_until`` guards against nested calls (the running
entry is still the heap root), and a snapshot taken from inside a body is
refused for the same reason.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush, heapreplace
from time import perf_counter as _perf_counter
from typing import Iterator

_TIME, _SEQ, _BODY, _NAME = 0, 1, 2, 3


class SnapshotError(RuntimeError):
    """The simulator was pickled from inside a body ``run_until`` is
    executing: the running entry is mid-step, so a snapshot would drop it
    or replay it."""


class Simulator:
    """The event loop.

    Typical usage::

        sim = Simulator()
        sim.spawn_restartable("worker", owner, "body", sim)
        sim.run_until(100_000)
    """

    __slots__ = (
        "now",
        "_seq",
        "events_executed",
        "_queue",
        "_running",
        "_factories",
        "profiler",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = itertools.count()
        self.events_executed: int = 0
        """Cumulative count of process resumes; the perf harness divides
        this by wall time for simulated-events/second."""
        self.profiler = None
        """Optional :class:`repro.obsv.profile.PhaseProfiler`.  When set,
        each ``run_until`` window records (wall seconds, events, cycles)
        under the profiler's current label; when ``None`` (the default)
        the only cost is one attribute check per ``run_until`` call."""
        self._factories: dict = {}
        """``name -> (owner, method, args)`` for every spawned process;
        the snapshot protocol rebuilds their generators from these."""
        self._running = False
        self._queue: list[list] = []
        """The event heap of ``[time, seq, body, name]`` entries."""

    # -- scheduling -------------------------------------------------------

    def spawn_restartable(
        self, name: str, owner: object, method: str, *args
    ) -> None:
        """Spawn ``getattr(owner, method)(*args)`` as a process whose first
        step runs at ``now``.

        The ``(owner, method, args)`` factory is recorded so a restored
        simulator can rebuild the generator (generator frames themselves
        cannot pickle).  The contract on the body: it must be written in
        *restartable* form — all loop-carried state lives in picklable
        objects passed through ``args`` (or on ``owner``), every ``yield``
        sits at the end of its dispatch arm, and the code before the first
        ``yield`` is free of side effects — so that a fresh generator
        first-resumed at the recorded pending time executes exactly what
        the suspended original would have on resume.
        """
        if name in self._factories:
            raise ValueError(f"duplicate restartable process name {name!r}")
        self._factories[name] = (owner, method, tuple(args))
        body = getattr(owner, method)(*args)
        heappush(self._queue, [self.now, next(self._seq), body, name])

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Resume the next pending process.  Returns False when idle.

        The same peek/resume/``heapreplace`` sequence as ``run_until``,
        inlined for one event."""
        queue = self._queue
        if not queue:
            return False
        entry = queue[0]
        self.now = when = entry[_TIME]
        self.events_executed += 1
        try:
            delay = next(entry[_BODY])
        except StopIteration:
            heappop(queue)
            return True
        except BaseException:
            heappop(queue)
            raise
        if delay < 0:
            heappop(queue)
            raise ValueError(
                f"process {entry[_NAME]!r} yielded negative delay {delay!r}"
            )
        entry[_TIME] = when + delay
        entry[_SEQ] = next(self._seq)
        heapreplace(queue, entry)
        return True

    def run_until(self, end_time: float) -> None:
        """Run events with time <= ``end_time`` and advance the clock there.

        With a :attr:`profiler` attached, the window's wall time, executed
        events, and simulated cycles are attributed to the profiler's
        current label (recorded even if the run raises, so a crashing
        window still shows up in the attribution)."""
        profiler = self.profiler
        if profiler is None:
            return self._run_until(end_time)
        started = _perf_counter()
        events_before = self.events_executed
        now_before = self.now
        try:
            self._run_until(end_time)
        finally:
            profiler.record(
                profiler.label,
                _perf_counter() - started,
                self.events_executed - events_before,
                self.now - now_before,
            )

    def _run_until(self, end_time: float) -> None:
        """The ``run_until`` hot loop (no profiling).

        Peek the root, resume its body in place and sift the rewritten
        entry down with ``heapreplace``.  A body that returns, raises or
        yields a negative delay is popped first, so it leaves the queue.
        Bodies must not re-enter the run loop.
        """
        if self._running:
            raise RuntimeError("run_until is not reentrant; actions must "
                               "not drive the simulator")
        self._running = True
        queue = self._queue
        seq = self._seq
        executed = 0
        try:
            while queue:
                entry = queue[0]
                when = entry[_TIME]
                if when > end_time:
                    break
                self.now = when
                executed += 1
                try:
                    delay = next(entry[_BODY])
                except StopIteration:
                    heappop(queue)
                    continue
                except BaseException:
                    heappop(queue)
                    raise
                if delay < 0:
                    heappop(queue)
                    raise ValueError(
                        f"process {entry[_NAME]!r} yielded "
                        f"negative delay {delay!r}"
                    )
                entry[_TIME] = when + delay
                entry[_SEQ] = next(seq)
                heapreplace(queue, entry)
        finally:
            self._running = False
            self.events_executed += executed
        if self.now < end_time:
            self.now = end_time

    def pending(self) -> Iterator[tuple[float, str]]:
        """``(time, name)`` of every queued resume, in firing order.

        Covers the whole queue, including long sleeps (idle phases,
        far-future resumes) — the snapshot protocol relies on this
        completeness."""
        return ((e[_TIME], e[_NAME]) for e in sorted(self._queue))

    # -- checkpoint/restore and time travel --------------------------------

    def fast_forward(self, cycles: float) -> None:
        """Advance the clock by ``cycles`` without executing anything.

        Every pending entry is shifted by the same delta and the heap is
        rebuilt: a uniform shift is monotone in ``(time, seq)``, but float
        rounding can make two shifted times tie, and the tie then falls to
        seq.  This is the interval-sampling skip primitive — callers are
        responsible for shifting any *actor-held* absolute timestamps
        alongside (see ``Server.time_shift``)."""
        if self._running:
            raise RuntimeError("cannot fast_forward while running")
        if cycles < 0:
            raise ValueError("cannot fast_forward into the past")
        queue = self._queue
        for entry in queue:
            entry[_TIME] += cycles
        heapify(queue)
        self.now += cycles

    def __getstate__(self):
        """Snapshot: queue state with pending entries reduced to
        ``(time, seq, process name)`` descriptors.

        A snapshot taken from inside a body while ``run_until`` executes
        it raises :class:`SnapshotError` (the running entry is not in a
        restorable state).  Building the state perturbs nothing, so a
        checkpointing run stays bit-identical to one that never
        snapshots."""
        if self._running:
            raise SnapshotError(
                "cannot snapshot the simulator from inside an action; "
                "checkpoint between run_until calls"
            )
        return {
            "now": self.now,
            "seq": self._seq,  # itertools.count pickles with its state
            "events_executed": self.events_executed,
            "factories": self._factories,
            "pending": [
                (e[_TIME], e[_SEQ], e[_NAME]) for e in sorted(self._queue)
            ],
        }

    def __setstate__(self, state) -> None:
        self.now = state["now"]
        self._seq = state["seq"]
        self.events_executed = state["events_executed"]
        self._factories = state["factories"]
        self.profiler = None
        self._running = False
        queue = []
        for when, seq, name in state["pending"]:
            owner, method, args = self._factories[name]
            # Creating a generator runs none of its body, so this is safe
            # even while the owner is itself mid-unpickle; the body first
            # executes when the entry fires.
            queue.append([when, seq, getattr(owner, method)(*args), name])
        heapify(queue)
        self._queue = queue
