"""Extended directory (snoop filter) for MLC-resident lines.

Per Yan et al. (S&P'19), each Skylake LLC set is backed by 11 traditional
directory ways (one per data way) plus 12 *extended* directory ways that
track lines living in MLCs.  Two entries are shared between the groups and
coupled one-to-one with the two right-most data ways — which is why a line
present in both an MLC and the LLC (an *inclusive* line) can only occupy
those data ways.

This module models the extended group: a per-set, 12-entry tracker of
MLC-resident lines.  Entries that correspond to inclusive lines are pinned
(their lifetime is governed by the coupled data way instead); when the
non-pinned portion overflows, the LRU entry is evicted and the caller must
back-invalidate the MLCs holding it.  Each set is a dict kept in recency
order, which is its whole LRU state: a new entry is appended and an entry
that gains a holder moves to the end, so the LRU non-pinned entry is the
first non-pinned one in key order.  Entries are made, refreshed and
evicted by :class:`~repro.cache.hierarchy.CacheHierarchy`'s MLC fill,
which works on the set dicts directly.

An entry's ``holders`` is a core bitmask (bit ``c`` set while core ``c``'s
MLC holds the line, see :mod:`repro.cache.line`); an entry whose last
holder leaves is removed, so a tracked entry never holds 0.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.line import holder_cores
from repro.platform import DEFAULT_PLATFORM


class DirectoryEntry:
    """One extended-directory record (a plain __slots__ hot-path object)."""

    __slots__ = ("addr", "holders", "inclusive")

    def __init__(self, addr: int, holders: int = 0, inclusive: bool = False):
        self.addr = addr
        self.holders = holders
        self.inclusive = inclusive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectoryEntry(addr={self.addr:#x}, "
            f"holders={holder_cores(self.holders)}, "
            f"inclusive={self.inclusive})"
        )


class SnoopFilter:
    """Extended-directory model, one bucket per LLC set."""

    __slots__ = ("sets", "ways", "_sets", "back_invalidations")

    def __init__(
        self,
        sets: int = DEFAULT_PLATFORM.llc_sets,
        ways: int = DEFAULT_PLATFORM.extended_dir_ways,
        min_inclusive: int = len(DEFAULT_PLATFORM.inclusive_ways),
    ):
        if ways < min_inclusive:
            raise ValueError("extended directory smaller than shared ways")
        self.sets = sets
        self.ways = ways
        self._sets: list[dict[int, DirectoryEntry]] = [dict() for _ in range(sets)]
        self.back_invalidations = 0

    def _bucket(self, addr: int) -> dict[int, DirectoryEntry]:
        return self._sets[addr % self.sets]

    def entry(self, addr: int) -> Optional[DirectoryEntry]:
        return self._sets[addr % self.sets].get(addr)

    def _choose_victim(self, bucket: dict[int, DirectoryEntry]) -> DirectoryEntry:
        """The least recently tracked non-pinned entry of ``bucket``."""
        for entry in bucket.values():
            if not entry.inclusive:
                return entry
        # All entries pinned to data ways; structurally impossible with
        # only two inclusive ways, but guard against misuse.
        raise RuntimeError("snoop filter set has no evictable entry")

    def set_inclusive(self, addr: int, inclusive: bool) -> None:
        entry = self.entry(addr)
        if entry is not None:
            entry.inclusive = inclusive

    def drop_holder(self, addr: int, core: int) -> None:
        """``core``'s MLC no longer holds ``addr``."""
        bucket = self._sets[addr % self.sets]
        entry = bucket.get(addr)
        if entry is None:
            return
        entry.holders &= ~(1 << core)
        if not entry.holders:
            del bucket[addr]

    def remove(self, addr: int) -> Optional[DirectoryEntry]:
        return self._bucket(addr).pop(addr, None)

    def occupancy(self, addr_set: int) -> int:
        return len(self._sets[addr_set % self.sets])
