"""Event-queue contract tests.

``repro.sim.engine`` keeps one ``(time, seq)`` heap and resumes a process
while its entry is still the heap root, then rewrites that entry's time
and seq in place and sifts it down.  It must pop events in exactly the
order a naive heap that pops every entry before running it would — the
paper reproduction's bit-identity rule depends on it.  These tests run
randomized schedule/spawn/cancel programs through the real
:class:`Simulator` and a deliberately naive heap-based reference, and
assert the execution traces match event for event, including programs
whose process bodies schedule, spawn and cancel during their own step.
The rest pin the contract at its edges: same-time order, far-future
events, cancellation, a raising body, and reentrancy.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest

from repro.sim.engine import Simulator

SPAN = 4096.0
"""Far-future scale of the programs (the horizon of the engine's former
calendar wheel, kept so the inputs stay the same)."""

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
"""Zero (same-cycle scheduling), short and long delays, exact ties and an
inexact float to probe rounding."""

EFFECTS = (None, "call_now", "call_later", "spawn_now", "cancel")
"""What a process body may do during its own step, before it yields."""


class HeapReference:
    """Minimal heap scheduler with the engine's exact ordering contract."""

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = itertools.count()
        self._queue: list[list] = []

    def schedule(self, when: float, action) -> list:
        entry = [when, next(self._seq), action]
        heapq.heappush(self._queue, entry)
        return entry

    def spawn(self, name: str, body) -> list:
        return self.schedule(self.now, body)

    def run_until(self, end_time: float) -> None:
        queue = self._queue
        while queue and queue[0][0] <= end_time:
            when, seq, action = heapq.heappop(queue)
            if action is None:
                continue
            self.now = when
            if hasattr(action, "send"):  # generator process
                try:
                    delay = next(action)
                except StopIteration:
                    continue
                heapq.heappush(queue, [when + delay, next(self._seq), action])
            else:
                action(self)
        if self.now < end_time:
            self.now = end_time


def _cancel_real(event) -> None:
    event.cancel()


def _cancel_reference(entry: list) -> None:
    entry[2] = None


def _make_program(rng: random.Random, effects: bool = False):
    """Build one randomized schedule as (kind, arg) op tuples.

    A process op carries ``(delay, effect)`` steps; ``effect`` is always
    ``None`` unless ``effects`` is set, which leaves the rng draws — and so
    the programs — of the effect-free test unchanged.
    """
    ops = []
    for _ in range(rng.randrange(4, 12)):
        kind = rng.random()
        if kind < 0.45:
            # A self-rescheduling process: n resumes with chosen delays.
            delays = [rng.choice(DELAY_POOL) for _ in range(rng.randrange(1, 8))]
            if effects:
                steps = [(d, rng.choice(EFFECTS)) for d in delays]
            else:
                steps = [(d, None) for d in delays]
            ops.append(("proc", steps))
        elif kind < 0.85:
            ops.append(("callback", rng.choice(DELAY_POOL)))
        else:
            ops.append(("cancel_next", rng.choice(DELAY_POOL)))
    windows = sorted(
        rng.uniform(0, SPAN * 3) for _ in range(rng.randrange(1, 4))
    )
    return ops, windows


class _Program:
    """Runs one op program on a scheduler, tracing every firing by label."""

    def __init__(self, sched, cancel) -> None:
        self.sched = sched
        self.cancel = cancel
        self.trace: list = []
        self.handles: list = []
        self._labels = itertools.count()

    def callback(self, when: float):
        label = next(self._labels)

        def fire(sched) -> None:
            self.trace.append(("call", label, sched.now))

        handle = self.sched.schedule(when, fire)
        self.handles.append(handle)
        return handle

    def body(self, steps):
        label = next(self._labels)
        sched = self.sched

        def gen():
            for delay, effect in steps:
                self.trace.append(("resume", label, sched.now))
                if effect == "call_now":
                    self.callback(sched.now)
                elif effect == "call_later":
                    # Ties with this process's own next resume.
                    self.callback(sched.now + delay)
                elif effect == "spawn_now":
                    sched.spawn(f"c{label}", self.body([(0.0, None), (1.0, None)]))
                elif effect == "cancel" and self.handles:
                    self.cancel(self.handles.pop())
                yield delay
            self.trace.append(("exit", label, sched.now))

        return gen()

    def run(self, ops, windows):
        for n, (kind, arg) in enumerate(ops):
            if kind == "proc":
                self.sched.spawn(f"p{n}", self.body(arg))
            elif kind == "callback":
                self.callback(arg)
            else:  # schedule then immediately cancel
                self.cancel(self.callback(arg))
        for end in windows:
            self.sched.run_until(end)
        return self.trace, self.sched.now


def _assert_matches_reference(trial, ops, windows):
    real_trace, real_now = _Program(Simulator(), _cancel_real).run(ops, windows)
    ref_trace, ref_now = _Program(HeapReference(), _cancel_reference).run(
        ops, windows
    )
    assert real_trace == ref_trace, (
        f"trial {trial}: engine trace diverged from heap reference\n"
        f"ops={ops}\nwindows={windows}\n"
        f"engine={real_trace[:20]}\nheap={ref_trace[:20]}"
    )
    assert real_now == ref_now


def test_pop_order_matches_heap_reference_randomized():
    for trial in range(120):
        rng = random.Random(0xA4 + trial)
        ops, windows = _make_program(rng)
        _assert_matches_reference(trial, ops, windows)


def test_in_step_schedule_spawn_cancel_match_heap_reference():
    """Bodies that schedule at ``now``, spawn at ``now`` and cancel a
    pending callback while their own entry is the heap root."""
    seen = set()
    for trial in range(120):
        rng = random.Random(0x5EED + trial)
        ops, windows = _make_program(rng, effects=True)
        seen.update(e for kind, arg in ops if kind == "proc" for _, e in arg)
        _assert_matches_reference(trial, ops, windows)
    assert seen == set(EFFECTS)


def test_far_heap_migration_preserves_order():
    """Far-future events fire in (time, seq) order among near ones."""
    span = SPAN
    sim = Simulator()
    fired = []
    # Schedule far-future callbacks out of order, interleaved with near ones.
    for k, offset in enumerate([span * 2 + 5, 3.0, span * 2 + 5, span + 1,
                                0.0, span * 3, span * 2 + 4.5]):
        sim.schedule(offset, lambda s, k=k, t=offset: fired.append((t, k)))
    sim.run_until(span * 4)
    assert fired == sorted(fired)


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for k in range(32):
        sim.schedule(10.0, lambda s, k=k: fired.append(k))
    sim.run_until(10.0)
    assert fired == list(range(32))


def test_schedule_at_now_during_action_fires_in_same_run():
    sim = Simulator()
    fired = []

    def outer(s):
        fired.append("outer")
        s.schedule(s.now, lambda s2: fired.append("inner"))

    sim.schedule(5.0, outer)
    sim.run_until(5.0)
    assert fired == ["outer", "inner"]


def test_cancel_within_current_bucket_is_skipped():
    sim = Simulator()
    fired = []
    victim = sim.schedule(2.0, lambda s: fired.append("victim"))

    def killer(s):
        fired.append("killer")
        victim.cancel()

    sim.schedule(1.0, killer)
    sim.run_until(10.0)
    assert fired == ["killer"]


@pytest.mark.parametrize("loop", ["run_until", "step"])
def test_raising_body_leaves_the_queue(loop):
    """A body that raises is never resumed again and never finishes."""
    sim = Simulator()
    fired = []

    def body():
        yield 5.0
        raise KeyError("boom")

    process = sim.spawn("bad", body())
    process.on_finish(lambda s: fired.append("finished"))
    sim.schedule(20.0, lambda s: fired.append("later"))
    with pytest.raises(KeyError):
        if loop == "run_until":
            sim.run_until(10.0)
        else:
            while sim.step():
                pass
    assert [e.time for e in sim.pending()] == [20.0]
    sim.run_until(30.0)
    assert fired == ["later"]
    assert not process.finished
    assert sim.events_executed == 3


def test_run_until_rejects_reentrancy():
    sim = Simulator()

    def naughty(s):
        s.run_until(100.0)

    sim.schedule(1.0, naughty)
    with pytest.raises(RuntimeError, match="reentrant"):
        sim.run_until(10.0)
