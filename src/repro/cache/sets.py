"""Way-organised cache set used by the LLC.

Every set holds one slot per way plus a tag index mapping address directly
to the resident line for O(1) lookup on the hot path.  The index is kept
in recency order, like an MLC set or a directory set: a fill inserts its
address at the end, and a hit that leaves its line resident moves the
address to the end (under LRU and the RRIP family; NRU keeps no recency,
so its sets stay in fill order).  The first key is therefore the least
recent line, and lines carry no recency stamp.

Victim selection lives in the replacement policies
(:mod:`repro.cache.replacement`), which pick victims only among an
*allowed* subset of ways — that is how both CAT way masks (CPU fills) and
the DDIO way mask (DMA fills) are enforced.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.cache.line import LlcLine


class WaySet:
    """One LLC set: ``ways`` slots, each holding at most one line."""

    __slots__ = ("slots", "index")

    def __init__(self, ways: int):
        self.slots: list[Optional[LlcLine]] = [None] * ways
        self.index: dict[int, LlcLine] = {}

    def remove(self, line: LlcLine) -> None:
        if self.slots[line.way] is not line:
            raise ValueError("line is not resident where it claims to be")
        self.slots[line.way] = None
        del self.index[line.addr]

    def touch(self, line: LlcLine) -> None:
        """Make resident ``line`` the most recent line of the set."""
        index = self.index
        del index[line.addr]
        index[line.addr] = line

    def empty_way(self, allowed: Sequence[int]) -> int:
        """The first way of ``allowed`` whose slot is empty, or -1."""
        slots = self.slots
        if len(self.index) < len(slots):
            for way in allowed:
                if slots[way] is None:
                    return way
        return -1

    def occupants(self) -> Iterable[LlcLine]:
        return (line for line in self.slots if line is not None)
