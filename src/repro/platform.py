"""Explicit, swappable microarchitecture specification.

A4's whole premise is that LLC management must be *microarchitecture-aware*:
which ways are DCA (DDIO) ways, which double as the hidden inclusive
(shared-directory) ways, how big the private MLC is relative to one LLC way.
Historically this repository hard-coded exactly one platform — the paper's
Skylake-SP Xeon Gold 6140 — as module-level constants.

:class:`PlatformSpec` turns that ambient global state into an explicit,
frozen value threaded through every layer (caches, RDT, uncore, devices,
workloads, experiments).  The ``skylake-sp`` preset is numerically identical
to the old constants, so default behaviour is preserved bit-for-bit; other
presets and the :func:`custom` builder unlock the sensitivity studies the
paper could not run on fixed silicon (vary associativity, DCA-way count,
inclusive-way placement — see ``docs/platforms.md``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

MAX_CBM_BITS = 32
"""Widest capacity bitmask the RDT model supports (IA32 CBM registers are
32 bits wide on every part we model); caps ``llc_ways``."""


@dataclass(frozen=True)
class PlatformSpec:
    """One microarchitecture: LLC/MLC geometry, way roles, timing, I/O rates.

    Frozen and hashable; every field is validated in ``__post_init__`` so an
    invalid platform cannot be constructed.  All capacities are expressed in
    64-byte-line units via ``line_bytes``; ``paper_llc_way_bytes`` anchors
    the capacity-scaling rule (DESIGN.md §1) that maps paper-quoted byte
    sizes onto the simulated geometry.
    """

    name: str

    # -- geometry ----------------------------------------------------------
    cores: int = 18
    """Cores sharing the LLC (one socket) — the server's core budget."""
    line_bytes: int = 64
    llc_ways: int = 11
    llc_sets: int = 256
    dca_ways: Tuple[int, ...] = (0, 1)
    inclusive_ways: Tuple[int, ...] = (9, 10)
    extended_dir_ways: int = 12
    mlc_sets: int = 32
    mlc_ways: int = 4
    paper_llc_way_bytes: int = 25 * 1024 * 1024 // 11

    # -- timing (abstract cycles) -----------------------------------------
    mlc_hit_cycles: int = 12
    llc_hit_cycles: int = 44
    memory_cycles: int = 200
    epoch_cycles: int = 50_000
    warmup_epochs: int = 2

    # -- bandwidth / I/O rates (lines per cycle) --------------------------
    memory_bandwidth_lines_per_cycle: float = 1.2
    nic_line_rate_lines_per_cycle: float = 0.16
    ssd_bandwidth_lines_per_cycle: float = 0.11
    ssd_command_overhead_cycles: float = 120.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("platform name must be non-empty")
        for attr in ("cores", "line_bytes", "llc_ways", "llc_sets",
                     "mlc_sets", "mlc_ways", "paper_llc_way_bytes",
                     "epoch_cycles"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        for attr in ("mlc_hit_cycles", "llc_hit_cycles", "memory_cycles"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        for attr in ("memory_bandwidth_lines_per_cycle",
                     "nic_line_rate_lines_per_cycle",
                     "ssd_bandwidth_lines_per_cycle"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.ssd_command_overhead_cycles < 0:
            raise ValueError("ssd_command_overhead_cycles must be >= 0")
        if self.llc_ways > MAX_CBM_BITS:
            raise ValueError(
                f"llc_ways={self.llc_ways} exceeds the {MAX_CBM_BITS}-bit "
                "CBM width the RDT model supports"
            )
        # Way-role layout.  A4 assumes the DCA ways are the left-most ways
        # and the inclusive (shared-directory) ways the right-most ways —
        # the zone geometry in core/zones.py is derived from exactly that.
        for label, ways in (("dca_ways", self.dca_ways),
                            ("inclusive_ways", self.inclusive_ways)):
            if not ways:
                raise ValueError(f"{label} must be non-empty")
            if any(w < 0 or w >= self.llc_ways for w in ways):
                raise ValueError(f"{label}={ways} outside 0..{self.llc_ways - 1}")
            if tuple(ways) != tuple(range(ways[0], ways[-1] + 1)):
                raise ValueError(f"{label}={ways} must be contiguous ascending")
        if self.dca_ways[0] != 0:
            raise ValueError("dca_ways must start at way 0 (left-most ways)")
        if self.inclusive_ways[-1] != self.llc_ways - 1:
            raise ValueError(
                "inclusive_ways must end at the last way (right-most ways)"
            )
        if set(self.dca_ways) & set(self.inclusive_ways):
            raise ValueError(
                f"dca_ways={self.dca_ways} and inclusive_ways="
                f"{self.inclusive_ways} overlap"
            )
        if not self.standard_ways:
            raise ValueError(
                "no standard ways left between dca_ways and inclusive_ways"
            )
        if self.extended_dir_ways < len(self.inclusive_ways):
            raise ValueError(
                f"extended_dir_ways={self.extended_dir_ways} must cover at "
                f"least the {len(self.inclusive_ways)} inclusive ways"
            )

    # -- derived geometry --------------------------------------------------

    @property
    def llc_way_lines(self) -> int:
        """Lines per LLC way (one line per set per way)."""
        return self.llc_sets

    @property
    def standard_ways(self) -> Tuple[int, ...]:
        """Ways that are neither DCA nor inclusive ways."""
        reserved = set(self.dca_ways) | set(self.inclusive_ways)
        return tuple(w for w in range(self.llc_ways) if w not in reserved)

    @property
    def mlc_lines(self) -> int:
        return self.mlc_sets * self.mlc_ways

    @property
    def capacity_scale(self) -> float:
        """Simulated bytes per paper byte (~1/145 on ``skylake-sp``)."""
        return self.llc_way_lines * self.line_bytes / self.paper_llc_way_bytes

    @property
    def dca_capacity_lines(self) -> int:
        """Total lines the DCA (DDIO) ways can hold."""
        return len(self.dca_ways) * self.llc_way_lines

    # -- capacity conversion helpers --------------------------------------

    def lines_for_paper_bytes(self, paper_bytes: int, minimum: int = 1) -> int:
        """Convert a capacity quoted in the paper into simulated cache lines.

        E.g. the 4 MB X-Mem working set maps to ~460 lines on ``skylake-sp``,
        preserving the paper's constraint of being larger than two MLCs but
        smaller than two LLC ways.
        """
        lines = int(round(paper_bytes * self.capacity_scale / self.line_bytes))
        return max(minimum, lines)

    def packet_lines(self, packet_bytes: int) -> int:
        """Lines occupied by one network packet.

        Packet payloads are *not* capacity-scaled (a 64 B packet is one
        line, a 1514 B packet 24 lines); ring-entry counts are scaled
        instead, so the ring-footprint : DCA-capacity ratio matches the
        paper.
        """
        return max(1, math.ceil(packet_bytes / self.line_bytes))

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> Dict[str, object]:
        """Stable identity dict: every field, plus a short content hash.

        Folded into run-cache keys and obsv trace/audit headers so each
        artifact records which microarchitecture produced it.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        blob = json.dumps(payload, sort_keys=True, default=list,
                          separators=(",", ":"))
        payload["sha"] = hashlib.sha256(blob.encode()).hexdigest()[:12]
        return payload

    @property
    def token(self) -> str:
        """Short ``name@sha`` identity string for logs and headers."""
        return f"{self.name}@{self.fingerprint()['sha']}"

    # -- derivation --------------------------------------------------------

    def with_dca_ways(self, count: int) -> "PlatformSpec":
        """A variant of this platform with ``count`` DCA ways (ways
        ``0..count-1``), for DCA-way sensitivity sweeps."""
        return replace(
            self,
            name=f"{self.name}+dca{count}",
            dca_ways=tuple(range(count)),
        )

    @classmethod
    def presets(cls) -> Dict[str, "PlatformSpec"]:
        """Name -> spec for every registered preset (fresh dict per call)."""
        return dict(_PRESETS)


SKYLAKE_SP = PlatformSpec(name="skylake-sp")
"""The paper's testbed — Intel Xeon Gold 6140: a 25 MiB, 11-way,
non-inclusive LLC shared by 18 cores, 1 MiB private MLCs, two DCA ways
(0, 1), two inclusive ways (9, 10).  Numerically identical to the historic
module-level constants; the default platform everywhere."""

CASCADELAKE_SP = PlatformSpec(
    name="cascadelake-sp",
    # Same 11-way layout as Skylake-SP (Cascade Lake kept the cache
    # microarchitecture); a Xeon Gold 6248-class part has 20 cores, a
    # 27.5 MiB LLC, and faster DDR4-2933 memory.
    cores=20,
    paper_llc_way_bytes=int(27.5 * 1024 * 1024) // 11,
    memory_cycles=190,
    memory_bandwidth_lines_per_cycle=1.4,
)
"""Cascade Lake-SP refresh: identical way roles, larger LLC ways and more
memory bandwidth — separates way-*layout* effects from capacity effects."""

ICELAKE_SP = PlatformSpec(
    name="icelake-sp",
    # Hypothetical Ice Lake-SP-style part: 28 cores, 12-way non-inclusive
    # LLC with a 16-way extended directory, bigger private MLCs
    # (1.25 MiB-class), and DDR4-3200.  Way roles keep A4's shape: DCA
    # left-most, inclusive right-most, with one extra standard way.
    cores=28,
    llc_ways=12,
    inclusive_ways=(10, 11),
    extended_dir_ways=16,
    mlc_sets=40,
    paper_llc_way_bytes=30 * 1024 * 1024 // 12,
    llc_hit_cycles=48,
    memory_cycles=190,
    memory_bandwidth_lines_per_cycle=1.6,
)
"""Hypothetical ``icelake-sp``-style 12/16-way part — exercises a different
associativity, inclusive-way placement, and MLC:LLC-way ratio."""

_PRESETS: Dict[str, PlatformSpec] = {
    spec.name: spec for spec in (SKYLAKE_SP, CASCADELAKE_SP, ICELAKE_SP)
}

DEFAULT_PLATFORM = SKYLAKE_SP
"""Used whenever a ``platform`` parameter is omitted; keeps the historic
single-platform behaviour (and its outputs) bit-identical."""


def get_platform(name_or_spec) -> PlatformSpec:
    """Resolve a preset name (or pass a spec through; ``None`` -> default).

    Accepts ``name+dcaN`` suffixes for DCA-way variants of any preset,
    e.g. ``skylake-sp+dca3``.
    """
    if name_or_spec is None:
        return DEFAULT_PLATFORM
    if isinstance(name_or_spec, PlatformSpec):
        return name_or_spec
    name = str(name_or_spec)
    if name in _PRESETS:
        return _PRESETS[name]
    base, sep, suffix = name.rpartition("+dca")
    if sep and base in _PRESETS and suffix.isdigit():
        return _PRESETS[base].with_dca_ways(int(suffix))
    raise KeyError(
        f"unknown platform {name!r}; presets: {sorted(_PRESETS)} "
        "(or '<preset>+dcaN' for a DCA-way variant)"
    )


def custom(base: str = "skylake-sp", **overrides) -> PlatformSpec:
    """Build a one-off platform for sweeps: start from a preset, override
    any field.  ``custom(llc_ways=16, inclusive_ways=(14, 15), name="big")``.
    Validation applies as usual."""
    spec = get_platform(base)
    if "name" not in overrides:
        overrides["name"] = f"{spec.name}+custom"
    return replace(spec, **overrides)
