"""Host-speed reference for normalizing measured times.

The host this benchmark runs on changes speed by tens of percent over
seconds to minutes (shared cores and memory).  Every measured section is
therefore bracketed by :func:`reference_loop`, a fixed pure-Python stand-in
for the simulator's hot path: dict-indexed cache sets of slotted lines, a
generator resumed per step, and a small event heap.  It shares no code with
the program, so a change to the program cannot move it, while a slow host
moves both.  A time ``t`` measured next to a reference CPU time ``r`` is
reported as ``t * REFERENCE_S / r``: seconds on a host where the loop takes
:data:`REFERENCE_S`.  The loop runs in a forked process with the collector
off, so neither the measured process's heap nor its peak memory changes
what it measures, and it adds nothing to that memory.
"""

from __future__ import annotations

import gc
import heapq
import os
import struct
import time

REFERENCE_S = 0.21
"""The loop's duration on an unloaded reference host (seconds)."""

STEPS = 150_000
SETS = 2048
WAYS = 32
SPAN = 200_000


class _Line:
    __slots__ = ("tag", "lru")

    def __init__(self, tag: int):
        self.tag = tag
        self.lru = 0


def _accesses(sets):
    x = 1
    tick = 0
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = x % SPAN
        bucket = sets[addr % SETS]
        line = bucket.get(addr)
        tick += 1
        if line is None:
            if len(bucket) >= WAYS:
                bucket.pop(next(iter(bucket)))
            bucket[addr] = line = _Line(addr)
        line.lru = tick
        yield tick & 7


def _work() -> float:
    sets = [{} for _ in range(SETS)]
    cpu0 = time.process_time()
    accesses = _accesses(sets)
    queue = []
    for step in range(STEPS):
        heapq.heappush(queue, (step + next(accesses), step))
        if len(queue) > 64:
            heapq.heappop(queue)
    return time.process_time() - cpu0


def reference_loop() -> float:
    """CPU seconds of the fixed reference work, run in a forked process."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the forked process: measure, report, exit at once
        try:
            os.close(read_end)
            gc.disable()
            os.write(write_end, struct.pack("d", _work()))
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != 8:
        raise RuntimeError(f"reference loop failed (wait status {status})")
    return struct.unpack("d", data)[0]


def normalize(measured: float, reference: float) -> float:
    return measured * REFERENCE_S / reference
