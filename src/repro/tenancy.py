"""First-class tenancy: who owns each workload, and what they were promised.

The paper evaluates A4 against fixed HPW/LPW co-runs, so historically a
"tenant" existed only as the binary ``PRIORITY_HIGH``/``PRIORITY_LOW``
string on each workload.  Production co-location needs more: per-tenant
core budgets, per-tenant CLOS mask policies, and per-tenant SLOs (p99
latency, minimum throughput) that reports and controllers can check.

:class:`TenantSpec` is the frozen, validated identity of one tenant —
the same move :class:`repro.platform.PlatformSpec` made for the
microarchitecture — and :class:`TenantSet` is the validated collection a
server hosts.  Every workload now carries a ``tenant``; its legacy
``priority`` string is a *derived view* of the tenant class
(latency-critical -> ``HPW``, best-effort -> ``LPW``), so every manager,
figure, and detector that reads ``workload.priority`` behaves exactly as
before.

Workloads constructed the historic way (``priority=...``, no tenant) get
an *implicit* tenant named after their priority class (``hpw`` / ``lpw``);
:meth:`TenantSet.from_workloads` merges those per-workload implicits into
the **canonical two-tenant set** — the paper's fixed workload lists seen
through the tenancy lens, bit-identical by construction.

This module sits below the workload layer (no repro imports except
telemetry constants) so every layer can use it without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW

CLASS_LATENCY_CRITICAL = "latency-critical"
"""Serving tenants with latency SLOs; their workloads are HPWs."""

CLASS_BEST_EFFORT = "best-effort"
"""Batch/background tenants; their workloads are LPWs."""

TENANT_CLASSES = (CLASS_LATENCY_CRITICAL, CLASS_BEST_EFFORT)

CLOS_POLICY_SHARED = "shared"
"""The tenant's CLOS masks are owned by the attached manager (the
default — what every paper scenario does)."""

CLOS_POLICY_RESERVED = "reserved"
"""The tenant brings a fixed way span (``clos_mask``) that is applied at
launch and that :class:`TenantSet` guarantees never overlaps another
reserved tenant's span."""

CLOS_POLICIES = (CLOS_POLICY_SHARED, CLOS_POLICY_RESERVED)

_PRIORITY_OF_CLASS = {
    CLASS_LATENCY_CRITICAL: PRIORITY_HIGH,
    CLASS_BEST_EFFORT: PRIORITY_LOW,
}
_CLASS_OF_PRIORITY = {v: k for k, v in _PRIORITY_OF_CLASS.items()}

IMPLICIT_TENANT_NAMES = {PRIORITY_HIGH: "hpw", PRIORITY_LOW: "lpw"}
"""Tenant names synthesized for workloads built with a bare priority."""


class TenantConfigError(ValueError):
    """An invalid tenant specification or tenant-set combination."""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: identity, class, resource budget, and SLO targets.

    Frozen and hashable; every field is validated in ``__post_init__`` so
    an invalid tenant cannot be constructed.  SLO targets are optional —
    ``None`` means "no promise on this axis" (all paper-era tenants).
    """

    name: str
    tenant_class: str = CLASS_LATENCY_CRITICAL
    core_budget: int = 1
    """Cores the tenant may occupy in total, across all its workloads."""
    clos_policy: str = CLOS_POLICY_SHARED
    clos_mask: Optional[Tuple[int, int]] = None
    """Inclusive way span ``(first, last)`` for the ``reserved`` policy."""
    slo_p99_latency: Optional[float] = None
    """Target p99 request latency in simulated cycles (lower is better)."""
    slo_min_throughput: Optional[float] = None
    """Minimum completed requests per monitoring epoch."""
    implicit: bool = False
    """True for tenants synthesized from a bare workload priority."""

    def __post_init__(self) -> None:
        if not self.name:
            raise TenantConfigError("tenant name must be non-empty")
        if self.tenant_class not in TENANT_CLASSES:
            raise TenantConfigError(
                f"unknown tenant class {self.tenant_class!r}; "
                f"expected one of {TENANT_CLASSES}"
            )
        if self.core_budget <= 0:
            raise TenantConfigError(
                f"tenant {self.name!r}: core_budget must be positive "
                f"(zero-core tenants cannot run anything)"
            )
        if self.clos_policy not in CLOS_POLICIES:
            raise TenantConfigError(
                f"tenant {self.name!r}: unknown clos_policy "
                f"{self.clos_policy!r}; expected one of {CLOS_POLICIES}"
            )
        if self.clos_policy == CLOS_POLICY_RESERVED:
            if self.clos_mask is None:
                raise TenantConfigError(
                    f"tenant {self.name!r}: reserved clos_policy needs a "
                    "clos_mask span"
                )
        if self.clos_mask is not None:
            if len(self.clos_mask) != 2:
                raise TenantConfigError(
                    f"tenant {self.name!r}: clos_mask must be a "
                    f"(first, last) pair, got {self.clos_mask!r}"
                )
            first, last = self.clos_mask
            if first < 0 or last < first:
                raise TenantConfigError(
                    f"tenant {self.name!r}: clos_mask span "
                    f"({first}, {last}) must satisfy 0 <= first <= last"
                )
        for label, value in (
            ("slo_p99_latency", self.slo_p99_latency),
            ("slo_min_throughput", self.slo_min_throughput),
        ):
            if value is not None and value <= 0:
                raise TenantConfigError(
                    f"tenant {self.name!r}: {label} must be positive when "
                    f"set, got {value!r}"
                )

    # -- derived views ----------------------------------------------------

    @property
    def priority(self) -> str:
        """The legacy HPW/LPW string every manager and detector reads."""
        return _PRIORITY_OF_CLASS[self.tenant_class]

    @property
    def latency_critical(self) -> bool:
        return self.tenant_class == CLASS_LATENCY_CRITICAL

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> Dict[str, object]:
        """Stable identity dict: every field plus a short content hash
        (the shape :class:`~repro.platform.PlatformSpec` established)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        blob = json.dumps(payload, sort_keys=True, default=list,
                          separators=(",", ":"))
        payload["sha"] = hashlib.sha256(blob.encode()).hexdigest()[:12]
        return payload

    @property
    def token(self) -> str:
        return f"{self.name}@{self.fingerprint()['sha']}"

    # -- derivation --------------------------------------------------------

    @classmethod
    def implicit_for(cls, priority: str, cores: int) -> "TenantSpec":
        """The tenant synthesized for a bare-priority workload."""
        if priority not in _CLASS_OF_PRIORITY:
            raise TenantConfigError(f"unknown priority {priority!r}")
        return cls(
            name=IMPLICIT_TENANT_NAMES[priority],
            tenant_class=_CLASS_OF_PRIORITY[priority],
            core_budget=cores,
            implicit=True,
        )


class TenantSet:
    """A validated, ordered collection of tenants sharing one server.

    Construction validates global invariants a single spec cannot see:
    duplicate names and overlapping *reserved* CLOS way spans."""

    def __init__(self, tenants: Iterable[TenantSpec]):
        self._tenants: Tuple[TenantSpec, ...] = tuple(tenants)
        if not self._tenants:
            raise TenantConfigError("a tenant set needs at least one tenant")
        seen: Dict[str, TenantSpec] = {}
        for tenant in self._tenants:
            if tenant.name in seen:
                raise TenantConfigError(
                    f"duplicate tenant name {tenant.name!r}"
                )
            seen[tenant.name] = tenant
        reserved = [
            t for t in self._tenants
            if t.clos_policy == CLOS_POLICY_RESERVED
        ]
        for i, a in enumerate(reserved):
            for b in reserved[i + 1:]:
                if a.clos_mask[0] <= b.clos_mask[1] and \
                        b.clos_mask[0] <= a.clos_mask[1]:
                    raise TenantConfigError(
                        f"tenants {a.name!r} and {b.name!r} reserve "
                        f"overlapping CLOS mask spans {a.clos_mask} and "
                        f"{b.clos_mask}"
                    )

    # -- container protocol ------------------------------------------------

    def __iter__(self) -> Iterator[TenantSpec]:
        return iter(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return any(t.name == name for t in self._tenants)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TenantSet) and self._tenants == other._tenants
        )

    def __hash__(self) -> int:
        return hash(self._tenants)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TenantSet {', '.join(self.names())}>"

    # -- accessors ---------------------------------------------------------

    def names(self) -> List[str]:
        return [t.name for t in self._tenants]

    def get(self, name: str) -> TenantSpec:
        for tenant in self._tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(name)

    def latency_critical(self) -> List[TenantSpec]:
        return [t for t in self._tenants if t.latency_critical]

    def best_effort(self) -> List[TenantSpec]:
        return [t for t in self._tenants if not t.latency_critical]

    @property
    def total_core_budget(self) -> int:
        return sum(t.core_budget for t in self._tenants)

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> Dict[str, object]:
        """Stable identity for run-cache keys and trace headers."""
        payload = {
            "tenants": [t.fingerprint() for t in self._tenants],
        }
        blob = json.dumps(payload, sort_keys=True, default=list,
                          separators=(",", ":"))
        payload["sha"] = hashlib.sha256(blob.encode()).hexdigest()[:12]
        return payload

    @property
    def token(self) -> str:
        return f"{len(self._tenants)}t@{self.fingerprint()['sha']}"

    # -- derivation --------------------------------------------------------

    @classmethod
    def from_workloads(cls, workloads: Sequence) -> "TenantSet":
        """The tenant set a workload list implies.

        Explicit tenants pass through (duplicate names must be the *same*
        spec); per-workload implicit tenants merge by name with their core
        budgets summed — so the paper's fixed HPW/LPW lists collapse to
        the canonical two-tenant set."""
        order: List[str] = []
        merged: Dict[str, TenantSpec] = {}
        for workload in workloads:
            tenant = workload.tenant
            if tenant.name not in merged:
                order.append(tenant.name)
                merged[tenant.name] = tenant
                continue
            existing = merged[tenant.name]
            if tenant.implicit and existing.implicit:
                merged[tenant.name] = replace(
                    existing,
                    core_budget=existing.core_budget + tenant.core_budget,
                )
            elif tenant != existing:
                raise TenantConfigError(
                    f"conflicting specs for tenant {tenant.name!r}: "
                    f"{existing} vs {tenant}"
                )
        return cls(merged[name] for name in order)


def canonical_pair(hpw_cores: int = 1, lpw_cores: int = 1) -> TenantSet:
    """The canonical two-tenant view of a legacy HPW/LPW workload list."""
    return TenantSet(
        (
            TenantSpec.implicit_for(PRIORITY_HIGH, hpw_cores),
            TenantSpec.implicit_for(PRIORITY_LOW, lpw_cores),
        )
    )
