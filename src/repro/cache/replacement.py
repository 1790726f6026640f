"""Pluggable LLC replacement policies.

The paper's related-work section (§8) positions re-reference-interval
prediction (RRIP) and friends as the *hardware* alternatives to A4's
software-only pseudo LLC bypassing: both try to keep dead (DMA-bloated,
streaming) lines from wasting LLC capacity.  Implementing them here lets the
ablation benches compare "change the replacement policy" against "change
the way allocation" on identical workloads.

Policies:

* :class:`LruPolicy`    — least-recently-used (the default; Skylake's LLC
  is closer to an undocumented quasi-LRU, but LRU captures the allocation
  behaviour the paper's contentions depend on);
* :class:`SrripPolicy`  — Static RRIP (Jaleel et al., ISCA'10): insert with
  a long re-reference prediction, promote on hit, age on miss — streaming
  lines are evicted before re-referenced ones;
* :class:`BrripPolicy`  — Bimodal RRIP: like SRRIP but inserts with a
  distant prediction most of the time, which resists thrashing;
* :class:`DeadBlockHintPolicy` — SRRIP that inserts consumed I/O lines
  as predicted dead;
* :class:`NruPolicy`    — not-recently-used single-bit approximation.

A policy owns the per-line metadata (``line.meta``: the RRIP
re-reference value, the NRU bit) and decides victims within an allowed
way set.  Recency is not metadata: each LLC set's index is kept in
recency order (see :mod:`repro.cache.sets`), and a policy's ``on_hit``
moves the line to the end when the policy reads that order.  LRU is that
order and nothing else; the RRIP family breaks ties by it.
"""

from __future__ import annotations

import abc
from typing import Dict, Sequence

from repro.cache.line import LlcLine
from repro.cache.sets import WaySet


class ReplacementPolicy(abc.ABC):
    """Victim selection + per-line metadata for one cache."""

    name = "abstract"

    @abc.abstractmethod
    def on_fill(self, line: LlcLine) -> None:
        """A new line was installed (at the end of its set's index)."""

    @abc.abstractmethod
    def on_hit(self, wayset: WaySet, line: LlcLine) -> None:
        """Resident ``line`` of ``wayset`` was referenced."""

    @abc.abstractmethod
    def victim_way(self, wayset: WaySet, allowed: Sequence[int]) -> int:
        """Pick the way to evict among ``allowed`` (empty ways preferred)."""


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: the set's index order is the whole state.
    :class:`~repro.cache.hierarchy.CacheHierarchy` inlines this policy on
    its hot paths."""

    name = "lru"

    def on_fill(self, line: LlcLine) -> None:
        pass

    def on_hit(self, wayset: WaySet, line: LlcLine) -> None:
        wayset.touch(line)

    def victim_way(self, wayset: WaySet, allowed: Sequence[int]) -> int:
        """The first empty way of ``allowed``, else that of the first line
        in key order (the least recent) whose way is allowed."""
        way = wayset.empty_way(allowed)
        if way >= 0:
            return way
        for line in wayset.index.values():
            if line.way in allowed:
                return line.way
        raise ValueError("no candidate ways for victim selection")


class _RripBase(ReplacementPolicy):
    """Common RRIP machinery: per-line RRPV in ``line.meta['rrpv']``; ties
    go to the least recent line."""

    def __init__(self, max_rrpv: int = 3):
        if max_rrpv < 1:
            raise ValueError("max_rrpv must be >= 1")
        self.max_rrpv = max_rrpv

    def _insertion_rrpv(self) -> int:
        raise NotImplementedError

    def on_fill(self, line: LlcLine) -> None:
        line.meta["rrpv"] = self._insertion_rrpv()

    def on_hit(self, wayset: WaySet, line: LlcLine) -> None:
        line.meta["rrpv"] = 0
        wayset.touch(line)

    def victim_way(self, wayset: WaySet, allowed: Sequence[int]) -> int:
        way = wayset.empty_way(allowed)
        if way >= 0:
            return way
        max_rrpv = self.max_rrpv
        # Index order is recency order, least recent first.
        lines = [line for line in wayset.index.values() if line.way in allowed]
        if not lines:
            raise ValueError("no candidate ways for victim selection")
        top = max(line.meta.get("rrpv", max_rrpv) for line in lines)
        if top < max_rrpv:
            # Age every candidate until one reaches the distant value.
            age = max_rrpv - top
            for line in lines:
                line.meta["rrpv"] = line.meta.get("rrpv", max_rrpv) + age
        for line in lines:
            if line.meta.get("rrpv", max_rrpv) >= max_rrpv:
                return line.way


class SrripPolicy(_RripBase):
    """Static RRIP: insert at max_rrpv - 1 ("long" re-reference)."""

    name = "srrip"

    def _insertion_rrpv(self) -> int:
        return self.max_rrpv - 1


class BrripPolicy(_RripBase):
    """Bimodal RRIP: insert at max_rrpv ("distant") except 1-in-32."""

    name = "brrip"

    def __init__(self, max_rrpv: int = 3, long_interval: int = 32):
        super().__init__(max_rrpv)
        if long_interval < 1:
            raise ValueError("long_interval must be >= 1")
        self.long_interval = long_interval
        self._fills = 0

    def _insertion_rrpv(self) -> int:
        self._fills += 1
        if self._fills % self.long_interval == 0:
            return self.max_rrpv - 1
        return self.max_rrpv


class DeadBlockHintPolicy(_RripBase):
    """SRRIP plus a dead-block hint for consumed I/O lines (§8's
    dead-block-prediction alternative to pseudo bypassing).

    In a strict victim-cache LLC every line is re-referenced at most once
    at this level, so plain RRIP cannot tell DMA-bloated lines from live
    victim-cache lines.  A dead-block predictor can: a *consumed* I/O line
    entering the LLC is dead almost surely, so it is inserted with the
    distant re-reference value and becomes the preferred victim."""

    name = "deadblock"

    def _insertion_rrpv(self) -> int:
        return self.max_rrpv - 1

    def on_fill(self, line: LlcLine) -> None:
        if line.io and line.consumed:
            line.meta["rrpv"] = self.max_rrpv  # predicted dead
        else:
            super().on_fill(line)


class NruPolicy(ReplacementPolicy):
    """Single reference bit; evict a not-recently-used line, clearing the
    bits when all candidates are recently used.  Keeps no recency order."""

    name = "nru"

    def on_fill(self, line: LlcLine) -> None:
        line.meta["nru"] = 1

    def on_hit(self, wayset: WaySet, line: LlcLine) -> None:
        line.meta["nru"] = 1

    def victim_way(self, wayset: WaySet, allowed: Sequence[int]) -> int:
        way = wayset.empty_way(allowed)
        if way >= 0:
            return way
        if not allowed:
            raise ValueError("no candidate ways for victim selection")
        slots = wayset.slots
        for way in allowed:
            if not slots[way].meta.get("nru", 0):
                return way
        for way in allowed:
            slots[way].meta["nru"] = 0
        return allowed[0]


_POLICIES: Dict[str, type] = {
    "lru": LruPolicy,
    "srrip": SrripPolicy,
    "brrip": BrripPolicy,
    "nru": NruPolicy,
    "deadblock": DeadBlockHintPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name ('lru', 'srrip', ...)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; have {sorted(_POLICIES)}"
        ) from None
