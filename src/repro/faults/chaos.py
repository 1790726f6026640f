"""The chaos harness: sweep fault intensity against the hardened A4 FSM.

Each sweep point runs the :func:`~repro.experiments.scenarios.chaos_workloads`
mix under a :class:`~repro.faults.plan.FaultPlan` scaled to that intensity
and checks three safety properties:

1. **No crash** — the controller survives every injected fault (a raised
   exception fails the sweep);
2. **No invalid CLOS mask** — after every epoch, every committed mask is
   non-empty, in-bounds, and contiguous (:func:`repro.faults.check_masks`);
3. **Bounded performance penalty** — system mean IPC under chaos stays
   above ``ipc_floor`` x the fault-free run's (the hardening must degrade
   gracefully, not fall off a cliff).

The sweep additionally runs a **watchdog probe** at the highest
intensity: the same mix under an A4-a-style policy (antagonist detection
off) so the bare EXPAND/REVERT state machine faces the corrupted
telemetry.  That run must show the oscillation watchdog *engaging*
(``degraded_entries > 0``) — proof the fallback is reachable, not dead
code.  (Under the full-featured policy, detection keeps restarting the
FSM before the expand/revert loop can flip-flop — antagonist churn is
already hysteresis-bounded by the detection cooldown, so the watchdog
legitimately stays quiet there.)

Driven by ``tools/chaos.py`` and ``tests/test_faults.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policy import A4Policy
from repro.faults.inject import check_masks
from repro.faults.plan import FaultPlan
from repro.obsv.counts import counts_of, merge_counts

DEFAULT_INTENSITIES: Tuple[float, ...] = (0.25, 0.5, 1.0)
DEFAULT_EPOCHS = 80
DEFAULT_SEED = 0xC4A05
DEFAULT_IPC_FLOOR = 0.4
"""Chaos may cost performance (storms and stalls are real work) but never
more than this fraction of fault-free IPC."""


class ChaosError(AssertionError):
    """A safety property failed at some sweep point."""


def chaos_policy() -> A4Policy:
    """The sweep's controller configuration: paper defaults with a shorter
    stable interval and a wider watchdog window, so a short run cycles the
    FSM often enough to be interesting."""
    return A4Policy(
        stable_interval=4,
        watchdog_window=24,
        watchdog_reallocs=4,
        watchdog_cooldown=8,
    )


def fsm_policy() -> A4Policy:
    """The watchdog probe's configuration: A4-a-style (detection features
    off) so corrupted telemetry drives the EXPAND/REVERT loop directly."""
    return A4Policy(
        selective_dca_disable=False,
        pseudo_llc_bypass=False,
        stable_interval=3,
        expand_interval=1,
        watchdog_window=24,
        watchdog_reallocs=4,
        watchdog_cooldown=8,
    )


@dataclass
class ChaosResult:
    """One sweep point's outcome."""

    intensity: float
    epochs: int
    seed: int
    mean_ipc: float
    faults: Dict[str, int] = field(default_factory=dict)
    robustness: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    label: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


def run_chaos(
    intensity: float,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = DEFAULT_SEED,
    policy: Optional[A4Policy] = None,
    label: str = "",
    fault_tenant: str = "",
) -> ChaosResult:
    """One sweep point: run the chaos mix at ``intensity``, checking the
    mask invariant after every epoch.  ``intensity=0`` is the fault-free
    reference run.  ``fault_tenant`` restricts telemetry and device
    faults to that tenant's streams and workloads (the chaos mix carries
    the implicit ``hpw``/``lpw`` tenants)."""
    from repro.experiments.scenarios import build_server, chaos_workloads

    plan = (
        FaultPlan.scaled(intensity, target_tenant=fault_tenant)
        if intensity > 0
        else None
    )
    if plan is not None and not plan.enabled:
        plan = None
    server = build_server(
        chaos_workloads(),
        scheme="a4",
        seed=seed,
        policy=policy or chaos_policy(),
        fault_plan=plan,
    )
    violations: List[str] = []

    def invariant(srv, sample) -> None:
        problem = check_masks(srv.cat)
        if problem is not None:
            epoch = len(violations)
            violations.append(f"epoch {epoch}: {problem}")

    result = server.run(epochs, epoch_hook=invariant)
    aggregates = result.aggregates()
    ipcs = [agg.ipc for agg in aggregates.values()]
    mean_ipc = sum(ipcs) / len(ipcs) if ipcs else 0.0
    faults = server.faults.counters if server.faults is not None else None
    return ChaosResult(
        intensity=intensity,
        epochs=epochs,
        seed=seed,
        mean_ipc=mean_ipc,
        faults=counts_of(faults) if faults is not None else {},
        robustness=result.robustness(),
        violations=violations,
        label=label,
    )


@dataclass
class SweepReport:
    """A full intensity sweep plus the fault-free reference and the
    watchdog probe."""

    baseline: ChaosResult
    results: List[ChaosResult]
    probe: Optional[ChaosResult] = None
    ipc_floor: float = DEFAULT_IPC_FLOOR

    def all_results(self) -> List[ChaosResult]:
        rows = [self.baseline] + list(self.results)
        if self.probe is not None:
            rows.append(self.probe)
        return rows

    def fault_totals(self) -> Dict[str, int]:
        """Injected-fault counts summed over the whole sweep (shared merge
        helper with the run cache's worker-stats aggregation)."""
        totals: Dict[str, int] = {}
        for res in self.all_results():
            merge_counts(totals, res.faults)
        return totals

    def check(self) -> None:
        """Raise :class:`ChaosError` on any violated safety property."""
        problems: List[str] = []
        for res in self.all_results():
            for violation in res.violations:
                problems.append(
                    f"intensity {res.intensity:g}{res.label and ' ' + res.label}: "
                    f"invalid mask — {violation}"
                )
        if self.baseline.mean_ipc > 0:
            for res in self.results:
                ratio = res.mean_ipc / self.baseline.mean_ipc
                if ratio < self.ipc_floor:
                    problems.append(
                        f"intensity {res.intensity:g}: mean IPC fell to "
                        f"{ratio:.2f}x fault-free (floor {self.ipc_floor:g})"
                    )
        if self.probe is not None and not self.probe.robustness.get(
            "degraded_entries"
        ):
            problems.append(
                f"watchdog probe (intensity {self.probe.intensity:g}): "
                "oscillation watchdog never engaged (degraded_entries == 0)"
            )
        if problems:
            raise ChaosError("; ".join(problems))

    def table(self) -> str:
        lines = [
            f"{'point':>12} {'mean IPC':>9} {'vs clean':>9} {'faults':>7} "
            f"{'retries':>8} {'deferred':>9} {'held':>6} {'degraded':>9} "
            f"{'bad masks':>10}"
        ]
        for res in self.all_results():
            ratio = (
                res.mean_ipc / self.baseline.mean_ipc
                if self.baseline.mean_ipc
                else 0.0
            )
            rob = res.robustness
            point = f"{res.intensity:g}{' ' + res.label if res.label else ''}"
            lines.append(
                f"{point:>12} {res.mean_ipc:>9.3f} {ratio:>8.2f}x "
                f"{sum(res.faults.values()):>7} "
                f"{rob.get('apply_retries', 0):>8} "
                f"{rob.get('apply_deferred', 0):>9} "
                f"{rob.get('held_over', 0):>6} "
                f"{rob.get('degraded_entries', 0):>9} "
                f"{len(res.violations):>10}"
            )
        totals = self.fault_totals()
        injected = ", ".join(
            f"{name}={count}" for name, count in sorted(totals.items()) if count
        )
        lines.append(f"faults injected: {injected or 'none'}")
        return "\n".join(lines)


def run_sweep(
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = DEFAULT_SEED,
    ipc_floor: float = DEFAULT_IPC_FLOOR,
    policy: Optional[A4Policy] = None,
    fault_tenant: str = "",
) -> SweepReport:
    """Run the fault-free reference, every sweep point, and the watchdog
    probe at the highest intensity.

    When ``fault_tenant`` is set the watchdog probe is skipped: faults
    confined to one tenant may never corrupt the telemetry that drives
    the bare EXPAND/REVERT loop, so "the watchdog engages" is not a
    meaningful property of a targeted sweep (the crash/mask/IPC
    properties still hold point by point).
    """
    baseline = run_chaos(0.0, epochs=epochs, seed=seed, policy=policy)
    results = [
        run_chaos(
            intensity,
            epochs=epochs,
            seed=seed,
            policy=policy,
            fault_tenant=fault_tenant,
        )
        for intensity in intensities
    ]
    probe = None
    if not fault_tenant:
        probe = run_chaos(
            max(intensities),
            epochs=epochs,
            seed=seed,
            policy=fsm_policy(),
            label="probe",
        )
    return SweepReport(
        baseline=baseline, results=results, probe=probe, ipc_floor=ipc_floor
    )
