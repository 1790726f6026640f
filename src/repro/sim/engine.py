"""Event-driven simulation core.

Two styles of actors are supported:

* **Callbacks** — ``sim.schedule(when, fn)`` runs ``fn(sim)`` at ``when``.
* **Processes** — Python generators that ``yield`` a non-negative delay in
  cycles.  The engine resumes the generator after that many cycles.  This is
  how CPU cores, DMA engines, and the A4 daemon are written: the substrate
  computes how long an action takes (e.g. a memory access under contention)
  and the process simply yields that cost.

The clock is an integer-friendly float.  Determinism is guaranteed by a
monotonically increasing sequence number used as a heap tie-breaker.

Pending events live in one binary heap (``heapq``) ordered by
``(time, seq)``.  Entries are plain ``[time, seq, action]`` lists, so
ordering is resolved by C-level list comparison on the unique
``(time, seq)`` prefix — the ``action`` slot is never compared.
Cancellation nulls the action slot in place and the run loops drop dead
entries lazily when they reach the root; :class:`Event` is a thin handle
over the queued entry.

Process resumes take a fast path: their entries are
``[time, seq, body, process]`` (the generator itself in the action slot),
and the run loops resume the generator inline while its entry is still
the heap root — no per-event trampoline frame.  The re-schedule then
rewrites that root's time and seq in place and sifts it down with one
``heapreplace``, so steady-state process execution allocates nothing.
This is exact: anything the body schedules while it runs has
``time >= now`` and a larger seq, so it sorts after the running entry and
the root cannot move underneath it.  Callbacks are popped before they run.
``tests/test_engine_wheel.py`` checks the pop order against a naive
reference heap on randomized programs.

Reentrancy rule: event actions may schedule, spawn, and cancel freely, but
must not drive the simulator themselves — ``run_until`` guards against
nested calls (the running process entry is still the heap root), and a
snapshot taken from inside an action is refused for the same reason.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush, heapreplace
from time import perf_counter as _perf_counter
from typing import Callable, Generator, Iterable, Optional

ProcessBody = Generator[float, None, None]

_TIME, _SEQ, _ACTION = 0, 1, 2


class SnapshotError(RuntimeError):
    """The simulator holds state that cannot be checkpointed.

    Raised while pickling when a pending event is a raw callback or a
    process spawned through :meth:`Simulator.spawn` instead of
    :meth:`Simulator.spawn_restartable` — suspended generator frames are
    not serializable, so only processes with a registered factory (and a
    body written in restartable form) can cross a snapshot — and when the
    snapshot is taken from inside an action ``run_until`` is executing."""


class Event:
    """Handle over a scheduled callback.  Ordered by (time, seq)."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def seq(self) -> int:
        return self._entry[_SEQ]

    @property
    def action(self) -> Optional[Callable[["Simulator"], None]]:
        return self._entry[_ACTION]

    @property
    def cancelled(self) -> bool:
        return self._entry[_ACTION] is None

    def cancel(self) -> None:
        """Mark this event dead; the engine discards it when popped."""
        self._entry[_ACTION] = None


class Process:
    """A generator-based simulated actor.

    The wrapped generator yields delays (cycles >= 0).  When it returns or
    raises ``StopIteration`` the process is finished; observers registered
    through :meth:`on_finish` are then invoked.  A body that raises any
    other exception leaves the queue without finishing.
    """

    __slots__ = ("name", "_body", "finished", "_finish_callbacks")

    def __init__(self, name: str, body: ProcessBody):
        self.name = name
        self._body = body
        self.finished = False
        self._finish_callbacks: list[Callable[["Simulator"], None]] = []

    def on_finish(self, callback: Callable[["Simulator"], None]) -> None:
        self._finish_callbacks.append(callback)

    def __getstate__(self):
        # The suspended generator frame is not picklable; restartable
        # processes are rebuilt from their factory on restore
        # (see Simulator.__setstate__), everything else keeps ``None``.
        return (self.name, self.finished, self._finish_callbacks)

    def __setstate__(self, state) -> None:
        self.name, self.finished, self._finish_callbacks = state
        self._body = None


class Simulator:
    """The event loop.

    Typical usage::

        sim = Simulator()
        sim.spawn("worker", worker_body(sim))
        sim.run_until(100_000)
    """

    __slots__ = (
        "now",
        "_seq",
        "processes",
        "events_executed",
        "_queue",
        "_running",
        "_factories",
        "profiler",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = itertools.count()
        self.processes: list[Process] = []
        self.events_executed: int = 0
        """Cumulative count of fired (non-cancelled) events; the perf
        harness divides this by wall time for simulated-events/second."""
        self.profiler = None
        """Optional :class:`repro.obsv.profile.PhaseProfiler`.  When set,
        each ``run_until`` window records (wall seconds, events, cycles)
        under the profiler's current label; when ``None`` (the default)
        the only cost is one attribute check per ``run_until`` call."""
        self._factories: dict = {}
        """``name -> (owner, method, args)`` for restartable processes;
        the snapshot protocol rebuilds their generators from these."""
        self._running = False
        self._queue: list[list] = []
        """The event heap of ``[time, seq, action(, process)]`` entries."""

    # -- scheduling -------------------------------------------------------

    def schedule(self, when: float, action: Callable[["Simulator"], None]) -> Event:
        """Schedule ``action(sim)`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        entry = [when, next(self._seq), action]
        heappush(self._queue, entry)
        return Event(entry)

    def call_in(self, delay: float, action: Callable[["Simulator"], None]) -> Event:
        """Schedule ``action`` ``delay`` cycles from now."""
        return self.schedule(self.now + delay, action)

    def spawn(
        self, name: str, body: ProcessBody, start_at: Optional[float] = None
    ) -> Process:
        """Register a generator process and schedule its first step."""
        process = Process(name, body)
        self.processes.append(process)
        when = self.now if start_at is None else start_at
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        heappush(self._queue, [when, next(self._seq), body, process])
        return process

    def spawn_restartable(
        self,
        name: str,
        owner: object,
        method: str,
        *args,
        start_at: Optional[float] = None,
    ) -> Process:
        """Spawn ``getattr(owner, method)(*args)`` as a checkpointable
        process.

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
        return self.spawn(name, body, start_at=start_at)

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle.

        The same peek/resume/``heapreplace`` sequence as ``run_until``,
        inlined for one event."""
        queue = self._queue
        while queue:
            entry = queue[0]
            action = entry[_ACTION]
            if action is None:
                heappop(queue)
                continue
            self.now = entry[_TIME]
            self.events_executed += 1
            if len(entry) == 4:
                try:
                    delay = next(action)
                except StopIteration:
                    heappop(queue)
                    process = entry[3]
                    process.finished = True
                    for callback in process._finish_callbacks:
                        callback(self)
                    return True
                except BaseException:
                    heappop(queue)
                    raise
                if delay < 0:
                    heappop(queue)
                    raise ValueError(
                        f"process {entry[3].name!r} yielded negative "
                        f"delay {delay!r}"
                    )
                entry[_TIME] = self.now + delay
                entry[_SEQ] = next(self._seq)
                heapreplace(queue, entry)
            else:
                heappop(queue)
                action(self)
            return True
        return False

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

        Peek the root; drop it if cancelled; pop a callback before running
        it; resume a process in place and sift its rewritten entry down
        with ``heapreplace``.  A process body that raises is popped first,
        so it leaves the queue.  Actions must not re-enter the run loop.
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
                action = entry[_ACTION]
                if action is None:
                    heappop(queue)
                    continue
                self.now = when
                executed += 1
                if len(entry) == 4:
                    try:
                        delay = next(action)
                    except StopIteration:
                        heappop(queue)
                        process = entry[3]
                        process.finished = True
                        for callback in process._finish_callbacks:
                            callback(self)
                        continue
                    except BaseException:
                        heappop(queue)
                        raise
                    if delay < 0:
                        heappop(queue)
                        raise ValueError(
                            f"process {entry[3].name!r} yielded "
                            f"negative delay {delay!r}"
                        )
                    entry[_TIME] = when + delay
                    entry[_SEQ] = next(seq)
                    heapreplace(queue, entry)
                else:
                    heappop(queue)
                    action(self)
        finally:
            self._running = False
            self.events_executed += executed
        if self.now < end_time:
            self.now = end_time

    def run(self, max_events: int = 10_000_000) -> None:
        """Drain the queue entirely (with a runaway guard)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise RuntimeError("simulation exceeded max_events; likely a livelock")

    def _live_entries(self) -> list:
        """Every live (non-cancelled) queued entry, sorted into firing
        order ``(time, seq)``."""
        entries = [e for e in self._queue if e[_ACTION] is not None]
        entries.sort(key=lambda e: (e[_TIME], e[_SEQ]))
        return entries

    def pending(self) -> Iterable[Event]:
        """Live events still queued, in firing order (for inspection).

        Covers the whole queue, including long-sleep events (idle phases,
        far-future timers) — the snapshot protocol relies on this
        completeness."""
        return (Event(e) for e in self._live_entries())

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
        queue = [e for e in self._queue if e[_ACTION] is not None]
        for entry in queue:
            entry[_TIME] += cycles
        heapify(queue)
        self._queue = queue
        self.now += cycles

    def __getstate__(self):
        """Snapshot: queue state with pending entries reduced to
        ``(time, seq, process name)`` descriptors.

        Non-restartable pending work (raw callbacks, plain ``spawn``
        processes) raises :class:`SnapshotError` — their suspended frames
        cannot be rebuilt — and so does a snapshot taken from inside an
        action while ``run_until`` executes it (the running entry is not
        in a restorable state).  Building the state perturbs nothing, so a
        checkpointing run stays bit-identical to one that never
        snapshots."""
        if self._running:
            raise SnapshotError(
                "cannot snapshot the simulator from inside an action; "
                "checkpoint between run_until calls"
            )
        pending = []
        for entry in self._live_entries():
            if len(entry) != 4:
                raise SnapshotError(
                    f"pending callback at t={entry[_TIME]} is not "
                    "checkpointable; schedule work through "
                    "spawn_restartable instead"
                )
            process = entry[3]
            if process.name not in self._factories:
                raise SnapshotError(
                    f"process {process.name!r} was spawned without a "
                    "factory; use spawn_restartable for checkpointable "
                    "actors"
                )
            pending.append((entry[_TIME], entry[_SEQ], process.name))
        return {
            "now": self.now,
            "seq": self._seq,  # itertools.count pickles with its state
            "events_executed": self.events_executed,
            "processes": self.processes,
            "factories": self._factories,
            "pending": pending,
        }

    def __setstate__(self, state) -> None:
        self.now = state["now"]
        self._seq = state["seq"]
        self.events_executed = state["events_executed"]
        self.processes = state["processes"]
        self._factories = state["factories"]
        self.profiler = None
        self._running = False
        by_name = {p.name: p for p in self.processes}
        queue = []
        for when, seq, name in state["pending"]:
            owner, method, args = self._factories[name]
            # Creating a generator runs none of its body, so this is safe
            # even while the owner is itself mid-unpickle; the body first
            # executes when the entry fires.
            body = getattr(owner, method)(*args)
            process = by_name[name]
            process._body = body
            queue.append([when, seq, body, process])
        heapify(queue)
        self._queue = queue
