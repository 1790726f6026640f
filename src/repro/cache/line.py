"""Cache-line records for the MLC and LLC models.

Rather than a full MESIF protocol, lines carry the placement and provenance
bits the paper's contentions hinge on:

* ``io``            — the line was DMA-written by an I/O device;
* ``consumed``      — an ``io`` line that a CPU core has since read.  An
  *unconsumed* ``io`` line evicted from the LLC is a **DMA leak**;
* ``dirty``         — holds data newer than memory;
* LLC lines also know which way they occupy and which stream (workload)
  allocated them, for attribution of evictions and leaks.

Which MLCs hold a line is a *holder mask*: an ``int`` with bit ``c`` set
for each core ``c`` (``holders |= 1 << core`` to add one, ``&= ~(1 <<
core)`` to drop one, ``0`` for none); :func:`holder_cores` lists them.
Lines do not carry it: the extended directory maps each MLC-resident
address to its mask (see :mod:`repro.cache.directory`), so an LLC line's
holders are its address's mask there, and the line is **LLC-inclusive**
(also resident in some MLC — such lines may only occupy the two inclusive
ways) exactly when that mask is non-zero.  Neither line carries a recency
stamp: each MLC set and each LLC set is kept in recency order (see
:mod:`repro.cache.mlc` and :mod:`repro.cache.sets`).

Both classes are plain ``__slots__`` records rather than dataclasses:
millions of them are allocated per run, and the closed attribute set plus
the skipped instance ``__dict__`` are worth a measurable share of the
simulation's wall time.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def holder_cores(holders: int) -> List[int]:
    """The core ids set in the holder mask ``holders``, lowest first."""
    cores = []
    while holders:
        low = holders & -holders
        cores.append(low.bit_length() - 1)
        holders ^= low
    return cores


class MlcLine:
    """A line resident in a private mid-level cache."""

    __slots__ = ("addr", "stream", "dirty", "io")

    def __init__(
        self,
        addr: int,
        stream: str,
        dirty: bool = False,
        io: bool = False,
    ):
        self.addr = addr
        self.stream = stream
        self.dirty = dirty
        self.io = io

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MlcLine(addr={self.addr:#x}, stream={self.stream!r}, "
            f"dirty={self.dirty}, io={self.io})"
        )


class LlcLine:
    """A line resident in the shared last-level cache."""

    __slots__ = (
        "addr",
        "stream",
        "way",
        "dirty",
        "io",
        "consumed",
        "meta",
    )

    def __init__(
        self,
        addr: int,
        stream: str,
        way: int,
        dirty: bool = False,
        io: bool = False,
        consumed: bool = False,
        meta: Optional[Dict[str, int]] = None,
    ):
        self.addr = addr
        self.stream = stream
        self.way = way
        self.dirty = dirty
        self.io = io
        self.consumed = consumed
        self.meta: Dict[str, int] = {} if meta is None else meta
        """Replacement-policy metadata (e.g. the RRIP re-reference value)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LlcLine(addr={self.addr:#x}, stream={self.stream!r}, "
            f"way={self.way}, dirty={self.dirty}, io={self.io}, "
            f"consumed={self.consumed})"
        )
