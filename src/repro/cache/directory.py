"""Extended directory (snoop filter) for MLC-resident lines.

Per Yan et al. (S&P'19), each Skylake LLC set is backed by 11 traditional
directory ways (one per data way) plus 12 *extended* directory ways that
track lines living in MLCs.  Two entries are shared between the groups and
coupled one-to-one with the two right-most data ways — which is why a line
present in both an MLC and the LLC (an *inclusive* line) can only occupy
those data ways.

This module models the extended group: a per-set, 12-entry tracker of
MLC-resident lines.  Each set is a dict from a line address to its
*holder mask* (bit ``c`` set while core ``c``'s MLC holds the line, see
:mod:`repro.cache.line`); that mask is the only record of who holds a
line.  An address whose last holder leaves is removed, so a tracked
address never maps to 0.  The directory shares its set index with the
LLC, and an entry is *pinned* exactly when its address is LLC-resident:
its lifetime is then governed by the coupled data way, so nothing marks
it.

The dict is kept in recency order, which is its whole LRU state: a new
address is appended and one that gains a holder moves to the end.  When
a set overflows, its first non-pinned address is evicted and the MLCs
holding it are back-invalidated.  Addresses are added, refreshed and
evicted by :class:`~repro.cache.hierarchy.CacheHierarchy`'s MLC fill,
which works on the set dicts directly.
"""

from __future__ import annotations

from repro.platform import DEFAULT_PLATFORM


class SnoopFilter:
    """Extended-directory model, one set per LLC set."""

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
        self._sets: list[dict[int, int]] = [dict() for _ in range(sets)]
        self.back_invalidations = 0

    def holders(self, addr: int) -> int:
        """The holder mask of ``addr`` (0 when the directory does not
        track it); an LLC line's holders are its address's mask."""
        return self._sets[addr % self.sets].get(addr, 0)
