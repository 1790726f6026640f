"""Event-queue contract tests.

``repro.sim.engine`` keeps one ``(time, seq)`` heap of restartable
processes and resumes a process while its entry is still the heap root,
then rewrites that entry's time and seq in place and sifts it down.  It
must pop events in exactly the order a naive heap that pops every entry
before resuming it would — the paper reproduction's bit-identity rule
depends on it.  These tests run randomized process programs through the
real :class:`Simulator` and a deliberately naive heap-based reference, and
assert the execution traces match event for event, including programs
whose process bodies spawn new processes during their own step.  The rest
pin the contract at its edges: time and same-time order, far-future
resumes, a returning, raising or negative-delay body, and reentrancy.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest

from repro.sim.engine import Simulator

SPAN = 4096.0
"""Far-future scale of the programs (the horizon of the engine's former
calendar wheel, kept so the inputs stay far-future)."""

DELAY_POOL = [
    0.0,
    0.5,
    1.0,
    15.75,
    16.0,
    24.0,
    112 + 1 / 3,
    4095.0,
    4096.0,
    10240.0,
]
"""Zero (same-cycle resumes), short and long delays, exact ties and an
inexact float to probe rounding."""

EFFECTS = (None, "call_now", "call_later", "spawn_now")
"""What a process body may do during its own step, before it yields."""


class HeapReference:
    """Minimal heap scheduler with the engine's exact ordering contract:
    it pops every entry before resuming it and pushes a fresh one back."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_executed = 0
        self._seq = itertools.count()
        self._queue: list[list] = []

    def spawn_restartable(self, name: str, owner, method: str, *args) -> None:
        body = getattr(owner, method)(*args)
        heapq.heappush(self._queue, [self.now, next(self._seq), body])

    def run_until(self, end_time: float) -> None:
        queue = self._queue
        while queue and queue[0][0] <= end_time:
            when, _, body = heapq.heappop(queue)
            self.now = when
            self.events_executed += 1
            try:
                delay = next(body)
            except StopIteration:
                continue
            heapq.heappush(queue, [when + delay, next(self._seq), body])
        if self.now < end_time:
            self.now = end_time


def _make_program(rng: random.Random, effects: bool = False):
    """Build one randomized program as (kind, arg) op tuples.

    A ``proc`` op carries ``(delay, effect)`` steps; ``effect`` is always
    ``None`` unless ``effects`` is set.  A ``oneshot`` op is a process
    that sleeps until its absolute time, records one firing and returns.
    """
    ops = []
    for _ in range(rng.randrange(4, 12)):
        if rng.random() < 0.5:
            delays = [rng.choice(DELAY_POOL) for _ in range(rng.randrange(1, 8))]
            if effects:
                steps = [(d, rng.choice(EFFECTS)) for d in delays]
            else:
                steps = [(d, None) for d in delays]
            ops.append(("proc", steps))
        else:
            ops.append(("oneshot", rng.choice(DELAY_POOL)))
    windows = sorted(
        rng.uniform(0, SPAN * 3) for _ in range(rng.randrange(1, 4))
    )
    return ops, windows


class _Program:
    """Runs one op program on a scheduler, tracing every firing by label.

    It is also the owner of every process it spawns: ``oneshot`` and
    ``proc`` are the factory methods."""

    def __init__(self, sched) -> None:
        self.sched = sched
        self.trace: list = []
        self._labels = itertools.count()

    def spawn(self, method: str, *args) -> None:
        label = next(self._labels)
        self.sched.spawn_restartable(f"{method}{label}", self, method, label, *args)

    def oneshot(self, label: int, when: float):
        yield when - self.sched.now
        self.trace.append(("call", label, self.sched.now))

    def proc(self, label: int, steps):
        sched = self.sched
        for delay, effect in steps:
            self.trace.append(("resume", label, sched.now))
            if effect == "call_now":
                self.spawn("oneshot", sched.now)
            elif effect == "call_later":
                # Ties with this process's own next resume.
                self.spawn("oneshot", sched.now + delay)
            elif effect == "spawn_now":
                self.spawn("proc", [(0.0, None), (1.0, None)])
            yield delay
        self.trace.append(("exit", label, sched.now))

    def run(self, ops, windows):
        for kind, arg in ops:
            self.spawn(kind, arg)
        for end in windows:
            self.sched.run_until(end)
        return self.trace, self.sched.now, self.sched.events_executed


def _assert_matches_reference(trial, ops, windows):
    real = _Program(Simulator()).run(ops, windows)
    ref = _Program(HeapReference()).run(ops, windows)
    assert real[0] == ref[0], (
        f"trial {trial}: engine trace diverged from heap reference\n"
        f"ops={ops}\nwindows={windows}\n"
        f"engine={real[0][:20]}\nheap={ref[0][:20]}"
    )
    assert real[1:] == ref[1:]


def test_pop_order_matches_heap_reference_randomized():
    for trial in range(120):
        rng = random.Random(0xA4 + trial)
        ops, windows = _make_program(rng)
        _assert_matches_reference(trial, ops, windows)


def test_in_step_spawns_match_heap_reference():
    """Bodies that spawn one-shots at and after ``now`` and spawn
    processes at ``now`` while their own entry is the heap root."""
    seen = set()
    for trial in range(120):
        rng = random.Random(0x5EED + trial)
        ops, windows = _make_program(rng, effects=True)
        seen.update(e for kind, arg in ops if kind == "proc" for _, e in arg)
        _assert_matches_reference(trial, ops, windows)
    assert seen == set(EFFECTS)


def test_processes_resume_in_time_order():
    sim = Simulator()
    program = _Program(sim)
    for when in (5.0, 1.0, 9.0):
        program.spawn("oneshot", when)
    sim.run_until(20.0)
    assert [(label, t) for _, label, t in program.trace] == [
        (1, 1.0),
        (0, 5.0),
        (2, 9.0),
    ]


def test_far_future_resumes_fire_in_order():
    """Far-future resumes fire in (time, seq) order among near ones."""
    sim = Simulator()
    program = _Program(sim)
    offsets = [SPAN * 2 + 5, 3.0, SPAN * 2 + 5, SPAN + 1, 0.0, SPAN * 3,
               SPAN * 2 + 4.5]
    for offset in offsets:
        program.spawn("oneshot", offset)
    sim.run_until(SPAN * 4)
    fired = [(t, label) for _, label, t in program.trace]
    assert fired == sorted(fired)
    assert len(fired) == len(offsets)


def test_same_time_events_fire_in_spawn_order():
    sim = Simulator()
    program = _Program(sim)
    for _ in range(32):
        program.spawn("oneshot", 10.0)
    sim.run_until(10.0)
    assert [label for _, label, _ in program.trace] == list(range(32))


def test_same_time_resumes_run_in_yield_order():
    """Ties break by when each body yielded, not by when it was spawned."""
    sim = Simulator()
    program = _Program(sim)
    program.spawn("proc", [(1.0, None), (2.0, None)])
    program.spawn("proc", [(3.0, None)])
    sim.run_until(3.0)
    assert program.trace == [
        ("resume", 0, 0.0),
        ("resume", 1, 0.0),
        ("resume", 0, 1.0),
        ("exit", 1, 3.0),
        ("exit", 0, 3.0),
    ]


def test_spawn_during_a_body_fires_in_same_run():
    sim = Simulator()
    program = _Program(sim)
    program.spawn("proc", [(5.0, None), (0.0, "call_now")])
    sim.run_until(5.0)
    assert program.trace == [
        ("resume", 0, 0.0),
        ("resume", 0, 5.0),
        ("exit", 0, 5.0),
        ("call", 1, 5.0),
    ]


def test_run_until_stops_at_boundary():
    sim = Simulator()
    program = _Program(sim)
    program.spawn("oneshot", 10.0)
    program.spawn("oneshot", 20.0)
    sim.run_until(15.0)
    assert [t for _, _, t in program.trace] == [10.0]
    assert sim.now == 15.0
    sim.run_until(25.0)
    assert [t for _, _, t in program.trace] == [10.0, 20.0]


class _Bodies:
    """Owner of the small process bodies the edge-case tests spawn."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.ticks: list = []

    def ticker(self, count):
        for _ in range(count):
            self.ticks.append(self.sim.now)
            yield 10.0

    def later(self):
        yield 20.0
        self.ticks.append("later")

    def raising(self):
        yield 5.0
        raise KeyError("boom")

    def negative(self):
        yield -1.0

    def naughty(self):
        yield 1.0
        self.sim.run_until(100.0)


def test_process_yields_delays():
    """A body resumes after each yielded delay, and a body that returns
    leaves the queue."""
    sim = Simulator()
    bodies = _Bodies(sim)
    sim.spawn_restartable("p", bodies, "ticker", 3)
    sim.run_until(100.0)
    assert bodies.ticks == [0.0, 10.0, 20.0]
    assert list(sim.pending()) == []
    assert sim.events_executed == 4


def test_spawn_rejects_a_duplicate_name():
    sim = Simulator()
    bodies = _Bodies(sim)
    sim.spawn_restartable("p", bodies, "ticker", 1)
    with pytest.raises(ValueError, match="duplicate"):
        sim.spawn_restartable("p", bodies, "ticker", 1)


def _drive(sim, loop, end_time):
    if loop == "run_until":
        sim.run_until(end_time)
    else:
        while sim.step():
            pass


@pytest.mark.parametrize("loop", ["run_until", "step"])
def test_raising_body_leaves_the_queue(loop):
    """A body that raises is popped before the error propagates and is
    never resumed again."""
    sim = Simulator()
    bodies = _Bodies(sim)
    sim.spawn_restartable("bad", bodies, "raising")
    sim.spawn_restartable("later", bodies, "later")
    with pytest.raises(KeyError):
        _drive(sim, loop, 10.0)
    assert list(sim.pending()) == [(20.0, "later")]
    sim.run_until(30.0)
    assert bodies.ticks == ["later"]
    assert sim.events_executed == 4


@pytest.mark.parametrize("loop", ["run_until", "step"])
def test_process_negative_delay_raises(loop):
    sim = Simulator()
    sim.spawn_restartable("bad", _Bodies(sim), "negative")
    with pytest.raises(ValueError, match="negative delay"):
        _drive(sim, loop, 10.0)
    assert list(sim.pending()) == []
    assert sim.events_executed == 1


def test_run_until_rejects_reentrancy():
    sim = Simulator()
    sim.spawn_restartable("naughty", _Bodies(sim), "naughty")
    with pytest.raises(RuntimeError, match="reentrant"):
        sim.run_until(10.0)


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
