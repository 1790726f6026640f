"""Cache Allocation Technology (CAT) model.

Mirrors the real constraint set of Intel CAT on the paper's CPU:

* a fixed number of classes of service (CLOS);
* each CLOS has a capacity bitmask over the 11 LLC ways that must be
  **contiguous** and non-empty;
* each core is associated with exactly one CLOS;
* masks constrain only *allocation* (victim selection) — hits anywhere in
  the LLC still succeed, and DDIO fills ignore CAT entirely (they use the
  IIO way mask).  Both properties are load-bearing for the paper: the former
  makes "changing way affinity only affects newly allocated lines" (§5.5)
  true, the latter is why latent contention exists at all.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro import obsv
from repro.platform import DEFAULT_PLATFORM, MAX_CBM_BITS


class ClosConfigError(ValueError):
    """Raised for invalid CLOS masks or associations."""


class TransientClosError(ClosConfigError):
    """A CLOS write that failed in transit (a glitched ``pqos`` invocation,
    an MSR write that did not stick).  Unlike its parent this does not mean
    the request was invalid — the previous mask stays active and the write
    is safe to retry.  Raised only by the fault-injection layer."""


def contiguous_mask(first_way: int, last_way: int) -> Tuple[int, ...]:
    """Build the inclusive way range [first_way, last_way], like way[m:n]
    in the paper's notation."""
    if first_way > last_way:
        raise ClosConfigError(f"empty way range [{first_way}:{last_way}]")
    return tuple(range(first_way, last_way + 1))


class CacheAllocation:
    """Per-socket CAT state: CLOS masks plus core associations."""

    __slots__ = ("ways", "num_clos", "_masks", "_core_clos")

    def __init__(self, ways: int = DEFAULT_PLATFORM.llc_ways, num_clos: int = 16):
        if ways > MAX_CBM_BITS:
            raise ClosConfigError(
                f"CBM width {ways} exceeds the {MAX_CBM_BITS}-bit register"
            )
        self.ways = ways
        self.num_clos = num_clos
        full = tuple(range(ways))
        self._masks: Dict[int, Tuple[int, ...]] = {c: full for c in range(num_clos)}
        self._core_clos: Dict[int, int] = {}

    # -- mask management -----------------------------------------------------

    def set_mask(self, clos: int, ways: Sequence[int]) -> None:
        mask = self.validate_mask(clos, ways)
        self._masks[clos] = mask
        if obsv.TRACER is not None:
            obsv.TRACER.emit(
                obsv.KIND_MASK,
                f"clos{clos}",
                {"clos": clos, "first": mask[0], "last": mask[-1]},
            )

    def validate_mask(self, clos: int, ways: Sequence[int]) -> Tuple[int, ...]:
        """Check a prospective mask without committing it.

        Returns the normalized mask tuple or raises :class:`ClosConfigError`.
        Split out from :meth:`set_mask` so layers that defer or fail commits
        (the fault injector) can still reject invalid requests immediately —
        an invalid mask is a caller bug, never a transient condition.
        """
        self._validate_clos(clos)
        mask = tuple(sorted(set(ways)))
        if not mask:
            raise ClosConfigError("CLOS mask may not be empty")
        if mask[0] < 0 or mask[-1] >= self.ways:
            raise ClosConfigError(f"mask {mask} outside 0..{self.ways - 1}")
        if mask != tuple(range(mask[0], mask[-1] + 1)):
            raise ClosConfigError(f"CAT requires contiguous masks, got {mask}")
        return mask

    def mask(self, clos: int) -> Tuple[int, ...]:
        self._validate_clos(clos)
        return self._masks[clos]

    def _validate_clos(self, clos: int) -> None:
        if not 0 <= clos < self.num_clos:
            raise ClosConfigError(f"CLOS {clos} outside 0..{self.num_clos - 1}")

    # -- core association ------------------------------------------------------

    def associate(self, core: int, clos: int) -> None:
        self._validate_clos(clos)
        self._core_clos[core] = clos

    def clos_of(self, core: int) -> int:
        return self._core_clos.get(core, 0)

    def ways_for_core(self, core: int) -> Tuple[int, ...]:
        """The ways in which this core's fills may pick victims."""
        return self._masks[self._core_clos.get(core, 0)]

    def associations(self) -> Dict[int, int]:
        return dict(self._core_clos)
