"""A4 configuration: thresholds T1–T5 and timing parameters (Table 1, §5.7).

The threshold *names* follow the paper; note Table 1 and §5.7 disagree on
whether T3 is the I/O-throughput share or the LLC miss rate — we therefore
expose semantic names and document the paper values:

* T1 ``HPW_LLC_HIT_THR``  = 20% — tolerated relative drop in an HPW's LLC
  hit rate before LP Zone expansion stops / reallocation triggers;
* T2 ``DMALK_DCA_MS_THR`` = 40% — DCA miss rate marking frequent eviction
  of I/O lines before consumption;
* T3 ``DMALK_IO_TP_THR``  = 35% — storage share of PCIe write throughput
  attributing the leak to storage;
* T4 ``DMALK_LLC_MS_THR`` = 40% — LLC miss rate of the storage workload
  confirming significant DMA leak;
* T5 ``ANT_CACHE_MISS_THR`` = 90% — MLC *and* LLC miss rates above which a
  non-I/O workload is presumed to gain nothing from the LLC.

Feature flags map to the staged variants evaluated in §7.2: A4-a (priority
zones only) → A4-b (+ I/O-buffer safeguarding) → A4-c (+ selective DCA
disabling) → A4-d (+ pseudo LLC bypassing) = full A4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platform import DEFAULT_PLATFORM, PlatformSpec


@dataclass
class A4Policy:
    """Tunable thresholds, timing, and feature flags of the A4 daemon."""

    # -- thresholds (Table 1) -------------------------------------------
    hpw_llc_hit_thr: float = 0.20
    dmalk_dca_ms_thr: float = 0.40
    dmalk_io_tp_thr: float = 0.35
    dmalk_llc_ms_thr: float = 0.40
    ant_cache_miss_thr: float = 0.90

    # -- timing (in monitoring epochs; 1 epoch = the paper's 1 second) ---
    expand_interval: int = 2
    stable_interval: int = 10
    revert_interval: int = 1

    # -- pseudo-bypass guardrails (§5.5) ---------------------------------
    instability_thr: float = 0.10
    """Relative fluctuation that halts trash-way reduction."""
    storage_restore_thr: float = 0.40
    """Relative storage-throughput swing that signals a phase change and
    restores the workload's original QoS + DCA (§5.6)."""

    # -- way-layout constants --------------------------------------------
    total_ways: int = DEFAULT_PLATFORM.llc_ways
    dca_last_way: int = DEFAULT_PLATFORM.dca_ways[-1]
    inclusive_first_way: int = DEFAULT_PLATFORM.inclusive_ways[0]

    # -- feature flags (variants A4-a..d) ---------------------------------
    safeguard_io_buffers: bool = True
    selective_dca_disable: bool = True
    pseudo_llc_bypass: bool = True

    # -- robustness hardening (fault tolerance; see core/guard.py) --------
    apply_retry_limit: int = 3
    """Immediate same-epoch retries for a transiently failed CAT/DCA
    write before it is deferred to the per-epoch backoff path."""
    apply_backoff_epochs: int = 1
    """Initial epochs between deferred retry attempts (doubles per
    failure, capped at 8)."""
    watchdog_window: int = 12
    """Sliding window (epochs) over which reallocation flip-flop is
    counted."""
    watchdog_reallocs: int = 4
    """Fluctuation-driven reallocations within the window that trip the
    oscillation watchdog."""
    watchdog_cooldown: int = 10
    """Epochs the watchdog pins the safe static layout once tripped."""

    # -- §1 extension: network DMA-bloat treatment -------------------------
    network_bloat_bypass: bool = False
    """Opt-in extension: when a network-I/O workload DMA-bloats heavily,
    point its CAT mask at the trash ways.  Because CAT only affects *new
    allocations* (its MLC evictions), the workload keeps using the DCA and
    inclusive ways for fresh packets while its consumed packets stop
    polluting the standard ways."""
    net_bloat_thr: float = 0.20
    """Bloated lines per inbound DMA write above which the extension
    engages (and half of which releases it)."""

    def __post_init__(self) -> None:
        for name in (
            "hpw_llc_hit_thr",
            "dmalk_dca_ms_thr",
            "dmalk_io_tp_thr",
            "dmalk_llc_ms_thr",
            "ant_cache_miss_thr",
            "instability_thr",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be within (0, 1], got {value}")
        if self.expand_interval < 1 or self.stable_interval < 1:
            raise ValueError("timing intervals must be >= 1 epoch")
        if self.apply_retry_limit < 0 or self.apply_backoff_epochs < 1:
            raise ValueError("apply retry/backoff parameters out of range")
        if (
            self.watchdog_window < 1
            or self.watchdog_reallocs < 2
            or self.watchdog_cooldown < 1
        ):
            raise ValueError("watchdog parameters out of range")

    @classmethod
    def for_platform(cls, platform: PlatformSpec, **overrides) -> "A4Policy":
        """A policy whose way-layout constants match ``platform``; every
        threshold/flag remains overridable."""
        return cls(
            total_ways=platform.llc_ways,
            dca_last_way=platform.dca_ways[-1],
            inclusive_first_way=platform.inclusive_ways[0],
            **overrides,
        )

    @property
    def trash_way(self) -> int:
        """The right-most standard way (way[8] on the paper's CPU)."""
        return self.inclusive_first_way - 1

    @property
    def min_lp_left(self) -> int:
        """LP Zone may expand leftward at most to the first standard way."""
        return self.dca_last_way + 1
