"""IOCA-style per-tenant LLC partitioning controller.

The competing design point from IOCA ("I/O-Aware LLC Management for
Network-Centric Multi-Tenant Platforms", PAPERS.md), reproduced as a
baseline: where A4 classifies *workloads* into priority groups and manages
way zones microarchitecturally (DCA leak/bloat, trash way, inclusive-way
avoidance), IOCA partitions the LLC *per tenant* and feeds back on each
tenant's service-level signal.

The reproduction keeps IOCA's three load-bearing ideas and none of A4's:

* **Per-tenant partitions.**  Every tenant owns one contiguous way span;
  all of the tenant's workloads (each with its own CLOS) share that span.
* **I/O awareness at placement.**  Tenants running I/O workloads are laid
  out left-most, overlapping the platform's DCA ways, so device DMA lands
  inside the owning tenant's partition instead of thrashing a neighbour —
  IOCA's answer to leaky DMA.  (It has no equivalent of A4's inclusive-way
  avoidance or trash way; that *is* the comparison.)
* **A conservative feedback FSM.**  Per epoch the controller checks each
  latency-critical tenant against its SLO (p99 latency when declared, an
  LLC hit-rate floor otherwise).  Sustained pressure — ``patience``
  consecutive bad epochs — triggers exactly one way move from the widest
  best-effort tenant to the most pressured tenant, followed by a
  ``cooldown`` during which the new partition must prove itself.  The FSM
  (:meth:`IocaManager.fsm_step`) is a pure function of its small state so
  it can be unit-tested without a server.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obsv
from repro.core.manager import LlcManager
from repro.platform import DEFAULT_PLATFORM, PlatformSpec
from repro.telemetry.pcm import EpochSample

STATE_MONITOR = "MONITOR"
STATE_ADJUST = "ADJUST"
STATE_COOLDOWN = "COOLDOWN"

DEFAULT_HIT_FLOOR = 0.5
"""Fallback pressure signal for latency-critical tenants without an
explicit p99 SLO: average LLC hit rate below this counts as pressure."""


class IocaManager(LlcManager):
    """Per-tenant partitioning with SLO feedback (the IOCA baseline)."""

    name = "ioca"

    def __init__(
        self,
        platform: PlatformSpec = DEFAULT_PLATFORM,
        min_ways: int = 1,
        patience: int = 2,
        cooldown: int = 3,
        hit_floor: float = DEFAULT_HIT_FLOOR,
    ):
        super().__init__()
        self.platform = platform
        self.total_ways = platform.llc_ways
        self.min_ways = min_ways
        self.patience = patience
        self.cooldown = cooldown
        self.hit_floor = hit_floor
        # FSM state (all of it — fsm_step reads/writes nothing else).
        self.state = STATE_MONITOR
        self.streak = 0
        self.cooldown_left = 0
        self.transitions: List[Tuple[str, str]] = []
        """(from_state, to_state) log of the feedback FSM, for tests; the
        way moves it fires are :attr:`decisions` (``ioca_adjust``)."""
        self.adjustments = 0
        # Partition layout.
        self._order: List[str] = []
        """Tenant names, left to right across the LLC."""
        self._spans: Dict[str, int] = {}
        """Tenant name -> way count."""

    # -- placement ---------------------------------------------------------

    def on_attach(self) -> None:
        tenants = list(self.server.tenants())
        io_tenants = {
            w.tenant.name for w in self.server.workloads if w.info().is_io
        }
        # I/O tenants first so their partitions overlap the DCA ways at
        # the left edge; launch order preserved within each group.
        ordered = [t for t in tenants if t.name in io_tenants]
        ordered += [t for t in tenants if t.name not in io_tenants]
        total_cores = sum(t.core_budget for t in ordered) or 1
        shares = [
            max(
                self.min_ways,
                round(t.core_budget / total_cores * self.total_ways),
            )
            for t in ordered
        ]
        while sum(shares) > self.total_ways and max(shares) > self.min_ways:
            shares[shares.index(max(shares))] -= 1
        while sum(shares) < self.total_ways:
            shares[shares.index(min(shares))] += 1
        self._order = [t.name for t in ordered]
        self._spans = dict(zip(self._order, shares))
        self._apply_layout()

    def on_workload_change(self) -> None:
        self.on_attach()

    def _apply_layout(self) -> None:
        cursor = 0
        for tenant in self._order:
            span = self._spans[tenant]
            first = min(cursor, self.total_ways - 1)
            last = min(cursor + span - 1, self.total_ways - 1)
            for workload in self.server.tenant_workloads(tenant):
                self.set_ways(workload.name, first, last)
            cursor = last + 1
        if obsv.TRACER is not None:
            obsv.TRACER.emit(
                obsv.KIND_TENANT,
                "ioca_layout",
                {"spans": dict(self._spans), "order": list(self._order)},
            )

    # -- feedback ----------------------------------------------------------

    def fsm_step(self, pressured: bool) -> bool:
        """Advance the controller FSM one epoch; True = fire an adjustment.

        Pure in the FSM state (``state``/``streak``/``cooldown_left``):
        MONITOR accumulates a streak of pressured epochs and fires through
        a transient ADJUST once the streak reaches ``patience``; COOLDOWN
        ignores pressure for ``cooldown`` epochs so the moved way's effect
        is observed before the next move.
        """
        if self.state == STATE_COOLDOWN:
            self.cooldown_left -= 1
            if self.cooldown_left <= 0:
                self._transition(STATE_MONITOR)
            return False
        # MONITOR
        if not pressured:
            self.streak = 0
            return False
        self.streak += 1
        if self.streak < self.patience:
            return False
        self.streak = 0
        self._transition(STATE_ADJUST)
        self._transition(STATE_COOLDOWN)
        self.cooldown_left = self.cooldown
        return True

    def _transition(self, to_state: str) -> None:
        self.transitions.append((self.state, to_state))
        self.state = to_state

    def _pressure(self, sample: EpochSample) -> Dict[str, float]:
        """Pressure score per latency-critical tenant (0 = within SLO).

        With a p99 SLO: relative overshoot of the worst stream's p99.
        Without: shortfall of the tenant's average hit rate below the
        floor.  Only positive scores are returned.
        """
        scores: Dict[str, float] = {}
        groups = self.tenant_streams(sample)
        for tenant in self.server.tenants():
            if not tenant.latency_critical:
                continue
            streams = groups.get(tenant.name)
            if not streams:
                continue
            if tenant.slo_p99_latency is not None:
                worst = max(
                    (s.latency.p99 for s in streams if s.latency.count),
                    default=0.0,
                )
                if worst > tenant.slo_p99_latency:
                    scores[tenant.name] = (
                        worst / tenant.slo_p99_latency - 1.0
                    )
            else:
                hit = sum(s.llc_hit_rate for s in streams) / len(streams)
                if hit < self.hit_floor:
                    scores[tenant.name] = self.hit_floor - hit
        return scores

    def on_epoch(self, sample: EpochSample) -> None:
        self._epoch_index = sample.index
        self.retry_pending()
        scores = self._pressure(sample)
        if not self.fsm_step(bool(scores)):
            return
        victim = max(scores, key=scores.get)
        donor = self._donor(victim)
        if donor is None:
            return
        self._spans[donor] -= 1
        self._spans[victim] += 1
        self.adjustments += 1
        self._apply_layout()
        self._decide(
            "ioca_adjust",
            f"{victim}: sustained SLO pressure; one way from {donor}",
            {
                "victim": victim,
                "donor": donor,
                "score": scores[victim],
                "spans": dict(self._spans),
            },
        )

    def _donor(self, victim: str) -> Optional[str]:
        """Widest best-effort tenant still above ``min_ways`` (falling back
        to any non-victim tenant with slack when every tenant is LC)."""
        tenants = self.server.tenants()
        best_effort = {t.name for t in tenants.best_effort()}
        candidates = [
            name
            for name in self._order
            if name != victim and self._spans[name] > self.min_ways
        ]
        preferred = [n for n in candidates if n in best_effort]
        pool = preferred or candidates
        if not pool:
            return None
        return max(pool, key=lambda n: self._spans[n])

    # -- reporting ---------------------------------------------------------

    def tenant_spans(self) -> Dict[str, int]:
        return dict(self._spans)

    def robustness_stats(self) -> Dict[str, int]:
        stats = super().robustness_stats()
        stats["ioca_adjustments"] = self.adjustments
        return stats
