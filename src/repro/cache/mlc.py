"""Private mid-level cache (MLC / L2) model.

Plain set-associative LRU.  In the non-inclusive hierarchy modelled here the
MLC is where demand fills land first; its evictions are what the paper calls
*DMA bloat* when they carry consumed I/O data back into the LLC.

Each set is a dict kept in recency order, which is the whole LRU state:
a fill appends its line and a hit moves its line to the end of its set,
so the first key is always the least recently used line and picking a
victim needs no scan.  Lines carry no recency stamp.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cache.line import MlcLine
from repro.platform import DEFAULT_PLATFORM


class MidLevelCache:
    """One core's private L2."""

    __slots__ = ("core_id", "sets", "ways", "_sets")

    def __init__(
        self,
        core_id: int,
        sets: int = DEFAULT_PLATFORM.mlc_sets,
        ways: int = DEFAULT_PLATFORM.mlc_ways,
    ):
        if sets <= 0 or ways <= 0:
            raise ValueError("MLC geometry must be positive")
        self.core_id = core_id
        self.sets = sets
        self.ways = ways
        self._sets: list[dict[int, MlcLine]] = [dict() for _ in range(sets)]

    @property
    def capacity_lines(self) -> int:
        return self.sets * self.ways

    def _set_for(self, addr: int) -> dict[int, MlcLine]:
        return self._sets[addr % self.sets]

    def lookup(self, addr: int) -> Optional[MlcLine]:
        bucket = self._sets[addr % self.sets]
        line = bucket.get(addr)
        if line is not None:
            del bucket[addr]
            bucket[addr] = line
        return line

    def peek(self, addr: int) -> Optional[MlcLine]:
        """Lookup without perturbing LRU (for inspection and invalidation)."""
        return self._sets[addr % self.sets].get(addr)

    def insert(self, line: MlcLine) -> Optional[MlcLine]:
        """Install ``line``; returns the evicted victim, if any."""
        bucket = self._sets[line.addr % self.sets]
        if line.addr in bucket:
            raise ValueError(f"addr {line.addr:#x} already resident")
        victim = None
        if len(bucket) >= self.ways:
            victim = bucket.pop(next(iter(bucket)))
        bucket[line.addr] = line
        return victim

    def invalidate(self, addr: int) -> Optional[MlcLine]:
        """Drop ``addr`` if resident, returning the dropped line."""
        return self._sets[addr % self.sets].pop(addr, None)

    def resident(self) -> Iterable[MlcLine]:
        for bucket in self._sets:
            yield from bucket.values()

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)
