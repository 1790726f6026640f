"""Private mid-level cache (MLC / L2) model.

Plain set-associative LRU.  In the non-inclusive hierarchy modelled here the
MLC is where demand fills land first; its evictions are what the paper calls
*DMA bloat* when they carry consumed I/O data back into the LLC.

Each set is a dict kept in recency order, which is the whole LRU state:
a fill appends its line and a hit moves its line to the end of its set,
so the first key is always the least recently used line and picking a
victim needs no scan.  Lines carry no recency stamp.  Fills and hits are
:class:`~repro.cache.hierarchy.CacheHierarchy`'s job (``cpu_access`` and
``_fill_mlc`` work on the set dicts directly); this class holds the sets
and answers peeks and invalidation.
"""

from __future__ import annotations

from typing import Optional

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

    def peek(self, addr: int) -> Optional[MlcLine]:
        """Lookup without perturbing LRU (for inspection and invalidation)."""
        return self._sets[addr % self.sets].get(addr)

    def invalidate(self, addr: int) -> Optional[MlcLine]:
        """Drop ``addr`` if resident, returning the dropped line."""
        return self._sets[addr % self.sets].pop(addr, None)
