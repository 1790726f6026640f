"""Non-inclusive last-level cache with DCA and inclusive ways.

Geometry follows the paper's Skylake-SP part: 11 ways, of which the two
left-most are the DDIO (*DCA*) ways and the two right-most are the hidden
*inclusive* ways coupled with the shared directory entries.  The LLC itself
is policy-free: victim masks are supplied per call (by CAT for CPU fills,
by the IIO agent for DMA fills), and the hierarchy layer decides what an
eviction means.  Each set keeps its lines in recency order (see
:mod:`repro.cache.sets`); these methods go through the replacement policy,
while :class:`~repro.cache.hierarchy.CacheHierarchy`'s hot paths work on
the sets directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.cache.line import LlcLine
from repro.cache.replacement import make_policy
from repro.cache.sets import WaySet
from repro.platform import DEFAULT_PLATFORM, PlatformSpec


@dataclass(frozen=True)
class LlcConfig:
    """Geometry and behavioural switches of the LLC model."""

    sets: int = DEFAULT_PLATFORM.llc_sets
    ways: int = DEFAULT_PLATFORM.llc_ways
    dca_ways: Tuple[int, ...] = DEFAULT_PLATFORM.dca_ways
    inclusive_ways: Tuple[int, ...] = DEFAULT_PLATFORM.inclusive_ways
    inclusive_migration: bool = True
    """When True (real hardware), a line that becomes resident in both an MLC
    and the LLC migrates into the inclusive ways.  Exposed for the ablation
    bench showing Fig. 3b's third contention group vanish without it."""
    replacement: str = "lru"
    """Replacement policy: 'lru' (default), 'srrip', 'brrip', or 'nru' —
    the RRIP family are the §8 hardware alternatives to pseudo bypassing."""

    def __post_init__(self) -> None:
        for way in (*self.dca_ways, *self.inclusive_ways):
            if not 0 <= way < self.ways:
                raise ValueError(f"way {way} outside 0..{self.ways - 1}")
        if set(self.dca_ways) & set(self.inclusive_ways):
            raise ValueError("DCA and inclusive ways overlap")

    @property
    def standard_ways(self) -> Tuple[int, ...]:
        special = set(self.dca_ways) | set(self.inclusive_ways)
        return tuple(w for w in range(self.ways) if w not in special)

    @classmethod
    def for_platform(cls, platform: PlatformSpec, **overrides) -> "LlcConfig":
        """LLC geometry of ``platform`` (behavioural switches overridable)."""
        return cls(
            sets=platform.llc_sets,
            ways=platform.llc_ways,
            dca_ways=platform.dca_ways,
            inclusive_ways=platform.inclusive_ways,
            **overrides,
        )


class LastLevelCache:
    """The shared LLC data array."""

    __slots__ = ("cfg", "_sets", "_nsets", "policy", "dca_ways")

    def __init__(self, cfg: Optional[LlcConfig] = None):
        self.cfg = cfg or LlcConfig()
        self._sets = [WaySet(self.cfg.ways) for _ in range(self.cfg.sets)]
        self._nsets = self.cfg.sets
        self.policy = make_policy(self.cfg.replacement)
        self.dca_ways: Tuple[int, ...] = tuple(self.cfg.dca_ways)
        """The ways DDIO write-allocates into.  Runtime-mutable through the
        IIO LLC WAYS register (``repro.uncore.msr``), as on real Skylake-SP
        where the 0xC8B MSR widens/narrows DDIO capacity."""

    def set_dca_ways(self, ways: Sequence[int]) -> None:
        """Reprogram the DDIO way mask (existing lines stay where they are,
        exactly like reprogramming the real MSR)."""
        mask = tuple(sorted(set(ways)))
        if not mask:
            raise ValueError("DDIO needs at least one way")
        for way in mask:
            if not 0 <= way < self.cfg.ways:
                raise ValueError(f"way {way} outside 0..{self.cfg.ways - 1}")
        self.dca_ways = mask

    # -- basic operations ---------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[LlcLine]:
        wayset = self._sets[addr % self._nsets]
        line = wayset.index.get(addr)
        if line is not None and touch:
            self.policy.on_hit(wayset, line)
        return line

    def allocate(
        self,
        addr: int,
        stream: str,
        allowed_ways: Sequence[int],
        dirty: bool = False,
        io: bool = False,
        consumed: bool = False,
    ) -> Tuple[LlcLine, Optional[LlcLine]]:
        """Install ``addr`` into one of ``allowed_ways``.

        Returns ``(new_line, victim)``; the caller owns victim disposal.
        """
        wayset = self._sets[addr % self._nsets]
        slots = wayset.slots
        index = wayset.index
        if addr in index:
            raise ValueError(f"addr {addr:#x} already resident in LLC")
        way = self.policy.victim_way(wayset, allowed_ways)
        victim = slots[way]
        if victim is not None:
            # Inlined WaySet.remove: slots[way] is overwritten just below.
            del index[victim.addr]
        line = LlcLine(
            addr=addr,
            stream=stream,
            way=way,
            dirty=dirty,
            io=io,
            consumed=consumed,
        )
        self.policy.on_fill(line)
        slots[way] = line
        index[addr] = line
        return line, victim

    def remove(self, line: LlcLine) -> None:
        self._sets[line.addr % self._nsets].remove(line)

    def migrate_to_inclusive(self, line: LlcLine) -> Optional[LlcLine]:
        """Relocate ``line`` into an inclusive way of its set.

        Models the shared-directory coupling: a line resident in both MLC and
        LLC may only occupy the inclusive ways.  Returns the displaced victim
        (None if an inclusive way was free).  The line counts as referenced;
        it stays put if already there.
        """
        wayset = self._sets[line.addr % self._nsets]
        self.policy.on_hit(wayset, line)
        if line.way in self.cfg.inclusive_ways:
            return None
        slots = wayset.slots
        way = self.policy.victim_way(wayset, self.cfg.inclusive_ways)
        victim = slots[way]
        if victim is not None:
            del wayset.index[victim.addr]
        # Relocate in place: the line keeps its index entry, only the slot
        # and way change.
        slots[line.way] = None
        line.way = way
        slots[way] = line
        return victim

    # -- inspection -----------------------------------------------------------

    def resident(self) -> Iterable[LlcLine]:
        for wayset in self._sets:
            yield from wayset.occupants()

    def occupancy_by_way(self) -> Dict[int, int]:
        counts = {w: 0 for w in range(self.cfg.ways)}
        for line in self.resident():
            counts[line.way] += 1
        return counts

    def occupancy_by_stream(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for line in self.resident():
            counts[line.stream] = counts.get(line.stream, 0) + 1
        return counts
