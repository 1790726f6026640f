"""The A4 runtime LLC-management controller (paper §5, Fig. 9).

Per monitoring epoch (the paper's 1 second), the controller:

1. **Restores** workloads whose antagonistic phase ended (§5.6);
2. **Detects** storage-driven DMA leak (§5.4: T2/T3/T4 → disable that
   device's DCA via its PCIe port register, demote the workload to LPW) and
   non-I/O antagonists (§5.5: T5 → pseudo LLC bypassing);
3. Runs the **allocation state machine**:

   * ``baseline``  — the epoch right after (re)allocation to the *initial
     partitions*; HPW LLC hit rates recorded here are the T1 reference;
   * ``expanding`` — every ``expand_interval`` epochs LP Zone grows one way
     leftward until an HPW's hit rate drops more than T1 (then one step is
     rolled back) or the leftmost extent is reached;
   * ``stable``    — monitors for phase changes (hit-rate fluctuations
     beyond T1); after ``stable_interval`` epochs it temporarily
   * ``reverting`` — re-applies the initial partitions for
     ``revert_interval`` epoch(s) to measure the *highest attainable* hit
     rate; a gap beyond T1 triggers full reallocation, otherwise the stable
     allocation is restored.

4. Advances **pseudo LLC bypassing**: each identified antagonist is squeezed
   one way per epoch from LP Zone toward the right-most standard way
   (way[8]), ceasing on >10% instability in its own metric or system memory
   bandwidth.

The controller is hardened against glitchy telemetry and flaky control
writes (see :mod:`repro.core.guard` and :mod:`repro.faults`): every epoch
sample passes a :class:`~repro.core.guard.SampleSanitizer` before the
detectors see it, failed CAT/DCA applies follow the base-class
retry/backoff contract, and an
:class:`~repro.core.guard.OscillationWatchdog` catches reallocation
flip-flop — when fluctuation-driven reallocations re-trigger faster than
any real phase change would, the FSM enters a ``degraded`` phase that pins
the safe initial partitions (an Isolate-style static layout) for a
cooldown window before re-deriving a fresh allocation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import obsv
from repro.core import detectors
from repro.core.detectors import AntagonistState, RestoreChecker
from repro.core.guard import OscillationWatchdog, SampleSanitizer
from repro.core.manager import LlcManager
from repro.core.policy import A4Policy
from repro.core.zones import ZoneLayout
from repro.telemetry.pcm import (
    EpochSample,
    KIND_STORAGE,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    StreamSample,
)

PHASE_BASELINE = "baseline"
PHASE_EXPANDING = "expanding"
PHASE_STABLE = "stable"
PHASE_REVERTING = "reverting"
PHASE_DEGRADED = "degraded"


class A4Manager(LlcManager):
    """Share more, interfere less."""

    name = "a4"

    def __init__(self, policy: Optional[A4Policy] = None):
        super().__init__()
        self.policy = policy or A4Policy()
        self.apply_retry_limit = self.policy.apply_retry_limit
        self.apply_backoff_epochs = self.policy.apply_backoff_epochs
        self.sanitizer = SampleSanitizer()
        self.watchdog = OscillationWatchdog(
            window=self.policy.watchdog_window,
            threshold=self.policy.watchdog_reallocs,
            cooldown=self.policy.watchdog_cooldown,
        )
        self.layout: ZoneLayout = None
        self.antagonists: Dict[str, AntagonistState] = {}
        self.demoted: set = set()
        self.restore_checker = RestoreChecker(self.policy)
        self.phase = PHASE_BASELINE
        self.baseline_hits: Dict[str, float] = {}
        self.stable_hits: Dict[str, float] = {}
        self.reallocations = 0
        self.reverts = 0
        self._epochs_in_phase = 0
        self._stable_epochs = 0
        self._saved_lp_left: Optional[int] = None
        self._detect_cooldown: Dict[str, int] = {}
        """Epochs left before a just-restored workload may be re-detected —
        hysteresis against detect/restore ping-pong on borderline cases."""
        self.bloat_treated: set = set()
        """Network workloads under the §1 network-bloat extension: their CAT
        mask points at the trash ways (affecting only their MLC evictions)."""

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------

    def _set_phase(self, phase: str) -> None:
        """FSM transition; emits one ``phase`` trace event per change."""
        if phase == self.phase:
            return
        if obsv.TRACER is not None:
            obsv.TRACER.emit(
                obsv.KIND_PHASE, phase, {"from": self.phase, "to": phase}
            )
        self.phase = phase

    # ------------------------------------------------------------------
    # Workload classification
    # ------------------------------------------------------------------

    def _effective_priority(self, workload) -> str:
        if workload.name in self.demoted:
            return PRIORITY_LOW
        return workload.priority

    def _hpws(self) -> List:
        return [
            w
            for w in self.server.workloads
            if self._effective_priority(w) == PRIORITY_HIGH
        ]

    def _io_hpw_present(self) -> bool:
        return any(w.kind != "non-io" for w in self._hpws())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_attach(self) -> None:
        self.layout = ZoneLayout(self.policy, self._io_hpw_present())
        self._begin_reallocation(
            "attach",
            inputs={
                "workloads": sorted(w.name for w in self.server.workloads),
                "io_hpw_present": self.layout.io_hpw_present,
            },
        )

    def on_workload_change(self) -> None:
        """§5.6 condition (1): new HPW combinations at launch/termination."""
        live = {w.name for w in self.server.workloads}
        for name in list(self.antagonists):
            if name not in live:
                del self.antagonists[name]
                self.demoted.discard(name)
        for name in list(self._pending_ways):
            if name not in live:
                self.discard_pending(name)
        self.sanitizer.prune(live)
        if self.watchdog.degraded:
            # A new workload combination voids the oscillation evidence.
            self.watchdog.reset()
            self._decide(
                "degraded_exit",
                "workload change voids oscillation evidence",
                {"live_workloads": sorted(live)},
            )
        self._begin_reallocation(
            "workload launched or terminated",
            inputs={"live_workloads": sorted(live)},
        )

    def _begin_reallocation(
        self,
        reason: str,
        inputs: Dict[str, Any],
        counted: bool = False,
    ) -> None:
        """Apply the initial partitions and restart the state machine.

        ``counted`` marks fluctuation-driven reallocations (the ones the
        oscillation watchdog guards against); structural ones — attach,
        launch/termination, antagonist detection — are exempt.
        ``inputs`` is the evidence behind the decision (the telemetry
        values and thresholds the caller compared), recorded alongside.
        """
        if counted and self.watchdog.note_reallocation():
            self._enter_degraded(reason, inputs)
            return
        self.reallocations += 1
        self._decide("reallocate", reason, inputs)
        self.layout.io_hpw_present = self._io_hpw_present()
        self.layout.reset_lp()
        self.baseline_hits = {}
        self.stable_hits = {}
        self._set_phase(PHASE_BASELINE)
        self._epochs_in_phase = 0
        self._stable_epochs = 0
        for state in self.antagonists.values():
            # The reallocation perturbs everyone's operating point; re-base
            # restoration references once things settle.
            state.grace_epochs = max(state.grace_epochs, 2)
        self._apply_layout()

    def _apply_layout(self) -> None:
        """Push the current zone decision into CAT masks."""
        for workload in self.server.workloads:
            state = self.antagonists.get(workload.name)
            if workload.name in self.bloat_treated:
                first, last = self.layout.trash_span(self.policy.trash_way)
            elif state is not None and self.policy.pseudo_llc_bypass:
                first, last = self.layout.trash_span(state.span_left)
            elif self._effective_priority(workload) == PRIORITY_LOW:
                first, last = self.layout.lp_span()
            elif workload.kind == "non-io":
                first, last = self.layout.non_io_hpw_span()
            else:
                first, last = self.layout.io_hpw_span()
            self.set_ways(workload.name, first, last)

    def _enter_degraded(self, reason: str, inputs: Dict[str, Any]) -> None:
        """Oscillation watchdog tripped: pin the safe static layout (the
        initial partitions, Isolate-style) for the cooldown window."""
        self._set_phase(PHASE_DEGRADED)
        evidence = {
            "trigger": reason,
            "reallocations_in_window": self.watchdog.reallocations_in_window,
            "watchdog": {
                "window": self.watchdog.window,
                "threshold": self.watchdog.threshold,
                "cooldown": self.watchdog.cooldown,
            },
        }
        if inputs:
            evidence["trigger_inputs"] = inputs
        self._decide(
            "degraded_enter",
            "oscillation watchdog tripped; pin static layout",
            evidence,
        )
        self.layout.io_hpw_present = self._io_hpw_present()
        self.layout.reset_lp()
        self.baseline_hits = {}
        self.stable_hits = {}
        self._epochs_in_phase = 0
        self._stable_epochs = 0
        self._apply_layout()

    # ------------------------------------------------------------------
    # Epoch handler
    # ------------------------------------------------------------------

    def on_epoch(self, sample: EpochSample) -> None:
        self._epoch_index = sample.index
        self.retry_pending()
        view = self.sanitizer.sanitize(
            sample, [w.name for w in self.server.workloads]
        )
        if view is None:
            return
        sample = view

        if self.watchdog.note_epoch():
            self._decide(
                "degraded_exit",
                "watchdog cooldown complete",
                {
                    "degraded_epochs": self.watchdog.degraded_epochs,
                    "cooldown": self.watchdog.cooldown,
                },
            )
            self._begin_reallocation(
                "watchdog cooldown complete",
                inputs={"cooldown": self.watchdog.cooldown},
            )
            return
        if self.watchdog.degraded:
            return

        if self.phase == PHASE_REVERTING:
            self._finish_revert(sample)
            return

        for name in list(self._detect_cooldown):
            self._detect_cooldown[name] -= 1
            if self._detect_cooldown[name] <= 0:
                del self._detect_cooldown[name]

        triggers = []
        if self._check_restorations(sample):
            triggers.append("restoration")
        if self._check_storage_antagonists(sample):
            triggers.append("storage_antagonist")
        if self.phase != PHASE_BASELINE and self._check_cpu_antagonists(sample):
            triggers.append("cpu_antagonist")
        self._check_network_bloat(sample)
        if triggers:
            self._begin_reallocation(
                "workload set changed", inputs={"triggers": triggers}
            )
            return

        if self.phase == PHASE_BASELINE:
            self._record_baseline(sample)
            self._set_phase(PHASE_EXPANDING)
            self._epochs_in_phase = 0
            return

        self._advance_bypass(sample)

        if self.phase == PHASE_EXPANDING:
            self._expand_step(sample)
        elif self.phase == PHASE_STABLE:
            self._stable_step(sample)

    # ------------------------------------------------------------------
    # Baseline & expansion (§5.2)
    # ------------------------------------------------------------------

    def _record_baseline(self, sample: EpochSample) -> None:
        for workload in self._hpws():
            stream = sample.streams.get(workload.name)
            if stream is not None:
                self.baseline_hits[workload.name] = stream.llc_hit_rate

    def _t1_crossings(
        self, sample: EpochSample
    ) -> Dict[str, Dict[str, float]]:
        """HPWs whose LLC hit rate dropped beyond T1 of their baseline,
        each with its baseline and current hit rate."""
        crossed: Dict[str, Dict[str, float]] = {}
        for workload in self._hpws():
            stream = sample.streams.get(workload.name)
            baseline = self.baseline_hits.get(workload.name, 0.0)
            if stream is not None and detectors.hpw_hit_rate_degraded(
                self.policy, baseline, stream.llc_hit_rate
            ):
                crossed[workload.name] = {
                    "baseline_hit_rate": baseline,
                    "hit_rate": stream.llc_hit_rate,
                }
        return crossed

    def _expand_step(self, sample: EpochSample) -> None:
        self._epochs_in_phase += 1
        if self._epochs_in_phase % self.policy.expand_interval:
            return
        crossed = self._t1_crossings(sample)
        if crossed:
            # The last expansion hurt an HPW: roll it back and settle.
            if self.layout.lp_left < self.layout.initial_lp_left:
                self.layout.contract()
                self._apply_layout()
            self._enter_stable(
                "HPW hit rate dropped beyond T1",
                {
                    "crossed": crossed,
                    "hpw_llc_hit_thr": self.policy.hpw_llc_hit_thr,
                },
            )
            return
        if self.layout.can_expand():
            self.layout.expand()
            first, last = self.layout.lp_span()
            self._decide(
                "expand",
                f"HPW hit rates within T1; LP zone to way[{first}:{last}]",
                {"lp_span": [first, last]},
            )
            self._apply_layout()
        else:
            self._enter_stable("leftmost LP extent reached", {})

    def _enter_stable(self, why: str, inputs: Dict[str, Any]) -> None:
        """Stop expanding: ``why`` and ``inputs`` say what stopped it."""
        self._set_phase(PHASE_STABLE)
        self._stable_epochs = 0
        first, last = self.layout.lp_span()
        inputs["lp_span"] = [first, last]
        self._decide(
            "stable", f"{why}; LP zone stable at way[{first}:{last}]", inputs
        )

    # ------------------------------------------------------------------
    # Stable phase, periodic revert (§5.6)
    # ------------------------------------------------------------------

    def _stable_step(self, sample: EpochSample) -> None:
        crossed: Dict[str, Dict[str, float]] = {}
        for workload in self._hpws():
            stream = sample.streams.get(workload.name)
            baseline = self.baseline_hits.get(workload.name, 0.0)
            if stream is None:
                continue
            prior = self.stable_hits.get(workload.name)
            smoothed = (
                stream.llc_hit_rate
                if prior is None
                else 0.5 * prior + 0.5 * stream.llc_hit_rate
            )
            self.stable_hits[workload.name] = smoothed
            if detectors.hpw_hit_rate_degraded(self.policy, baseline, smoothed):
                crossed[workload.name] = {
                    "baseline_hit_rate": baseline,
                    "smoothed_hit_rate": smoothed,
                    "raw_hit_rate": stream.llc_hit_rate,
                }
        if crossed:
            self._begin_reallocation(
                "HPW hit-rate fluctuation beyond T1",
                counted=True,
                inputs={
                    "crossed": crossed,
                    "hpw_llc_hit_thr": self.policy.hpw_llc_hit_thr,
                },
            )
            return
        self._stable_epochs += 1
        if self._stable_epochs >= self.policy.stable_interval:
            self._start_revert()

    def _start_revert(self) -> None:
        self.reverts += 1
        self._saved_lp_left = self.layout.lp_left
        self.layout.reset_lp()
        self._apply_layout()
        self._set_phase(PHASE_REVERTING)
        self._epochs_in_phase = 0
        self._decide(
            "revert",
            "periodic revert to measure attainable hit rates",
            {
                "saved_lp_left": self._saved_lp_left,
                "stable_interval": self.policy.stable_interval,
            },
        )

    def _finish_revert(self, sample: EpochSample) -> None:
        self._epochs_in_phase += 1
        if self._epochs_in_phase < self.policy.revert_interval:
            return
        # ``sample`` was measured under the initial partitions: the highest
        # attainable hit rates at this moment.
        gaps: Dict[str, Dict[str, float]] = {}
        for workload in self._hpws():
            stream = sample.streams.get(workload.name)
            if stream is None:
                continue
            attainable = stream.llc_hit_rate
            stable = self.stable_hits.get(workload.name, attainable)
            if attainable > 0 and (
                (attainable - stable) / attainable > self.policy.hpw_llc_hit_thr
            ):
                gaps[workload.name] = {
                    "attainable_hit_rate": attainable,
                    "stable_hit_rate": stable,
                    "gap": (attainable - stable) / attainable,
                }
        if gaps:
            self._begin_reallocation(
                "uncapturable phase change found by revert",
                counted=True,
                inputs={
                    "gaps": gaps,
                    "hpw_llc_hit_thr": self.policy.hpw_llc_hit_thr,
                },
            )
            return
        self._decide(
            "revert_verdict",
            "attainable within T1 of stable; restoring stable allocation",
            {"restored_lp_left": self._saved_lp_left},
        )
        self.layout.lp_left = self._saved_lp_left
        self._apply_layout()
        self._set_phase(PHASE_STABLE)
        self._stable_epochs = 0

    # ------------------------------------------------------------------
    # Antagonist detection, bypass, restoration (§5.4–§5.6)
    # ------------------------------------------------------------------

    def _check_storage_antagonists(self, sample: EpochSample) -> bool:
        if not self.policy.selective_dca_disable:
            return False
        changed = False
        for workload in self.server.workloads:
            if (
                workload.kind != KIND_STORAGE
                or workload.name in self.antagonists
                or workload.name in self._detect_cooldown
            ):
                continue
            stream = sample.streams.get(workload.name)
            if stream is None:
                continue
            if detectors.storage_leak_detected(self.policy, sample, stream):
                self.antagonists[workload.name] = AntagonistState(
                    name=workload.name,
                    kind="storage",
                    original_priority=workload.priority,
                    detection_metric=stream.io_throughput_lines_per_cycle,
                    span_left=min(
                        self.layout.lp_span()[0], self.policy.trash_way
                    ),
                )
                self.demoted.add(workload.name)
                if workload.port_id is not None:
                    self.set_port_dca(workload.port_id, enabled=False)
                self._decide(
                    "detect_storage",
                    f"{workload.name}: DMA leak (T2/T3/T4); DCA off, demote",
                    {
                        "workload": workload.name,
                        "dca_miss_rate": stream.dca_miss_rate,
                        "llc_miss_rate": stream.llc_miss_rate,
                        "storage_io_share": sample.storage_io_share(),
                        "thresholds": {
                            "dmalk_dca_ms_thr": self.policy.dmalk_dca_ms_thr,
                            "dmalk_llc_ms_thr": self.policy.dmalk_llc_ms_thr,
                            "dmalk_io_tp_thr": self.policy.dmalk_io_tp_thr,
                        },
                    },
                )
                changed = True
        return changed

    def _check_cpu_antagonists(self, sample: EpochSample) -> bool:
        if not self.policy.pseudo_llc_bypass:
            return False
        changed = False
        for workload in self.server.workloads:
            if (
                workload.kind != "non-io"
                or workload.name in self.antagonists
                or workload.name in self._detect_cooldown
            ):
                continue
            stream = sample.streams.get(workload.name)
            if stream is None:
                continue
            if detectors.cpu_antagonist_detected(self.policy, stream):
                self.antagonists[workload.name] = AntagonistState(
                    name=workload.name,
                    kind="cpu",
                    original_priority=workload.priority,
                    detection_metric=stream.llc_miss_rate,
                    span_left=min(
                        self.layout.lp_span()[0], self.policy.trash_way
                    ),
                )
                self.demoted.add(workload.name)
                self._decide(
                    "detect_cpu",
                    f"{workload.name}: non-I/O antagonist (T5); pseudo bypass",
                    {
                        "workload": workload.name,
                        "mlc_miss_rate": stream.mlc_miss_rate,
                        "llc_miss_rate": stream.llc_miss_rate,
                        "ant_cache_miss_thr": self.policy.ant_cache_miss_thr,
                    },
                )
                changed = True
        return changed

    def _advance_bypass(self, sample: EpochSample) -> None:
        if not self.policy.pseudo_llc_bypass:
            return
        membw = sample.mem_total_bw
        for state in self.antagonists.values():
            if state.settled:
                continue
            stream = sample.streams.get(state.name)
            if stream is None:
                continue
            metric = (
                stream.llc_miss_rate
                if state.kind == "cpu"
                else stream.io_throughput_lines_per_cycle
            )
            if state.last_reduction_metric is not None:
                unstable = (
                    detectors.relative_change(metric, state.last_reduction_metric)
                    > self.policy.instability_thr
                    or detectors.relative_change(membw, state.last_reduction_membw)
                    > self.policy.instability_thr
                )
                if unstable:
                    # Undo the last squeeze and freeze (§5.5 guardrail).
                    state.span_left = max(
                        self.layout.lp_span()[0], state.span_left - 1
                    )
                    state.settled = True
                    self._apply_layout()
                    self._decide(
                        "bypass_halt",
                        f"{state.name}: >10% instability; undo last squeeze",
                        {
                            "workload": state.name,
                            "metric": metric,
                            "last_reduction_metric": state.last_reduction_metric,
                            "mem_bw": membw,
                            "last_reduction_membw": state.last_reduction_membw,
                            "instability_thr": self.policy.instability_thr,
                            "span_left": state.span_left,
                        },
                    )
                    continue
            if state.span_left < self.policy.trash_way:
                state.span_left += 1
                state.last_reduction_metric = metric
                state.last_reduction_membw = membw
                self._apply_layout()
            else:
                state.settled = True

    def _check_network_bloat(self, sample: EpochSample) -> None:
        """§1 extension: trash-way the MLC evictions of bloating network
        workloads (no demotion, no reallocation — mask change only)."""
        if not self.policy.network_bloat_bypass:
            return
        for workload in self.server.workloads:
            if workload.kind != "network-io":
                continue
            stream = sample.streams.get(workload.name)
            if stream is None or stream.counters.dma_writes < 100:
                continue
            rate = stream.counters.dma_bloats / stream.counters.dma_writes
            if workload.name not in self.bloat_treated:
                if rate > self.policy.net_bloat_thr:
                    self.bloat_treated.add(workload.name)
                    self._decide(
                        "bloat_treat",
                        f"{workload.name}: DMA bloat above threshold",
                        {
                            "workload": workload.name,
                            "bloat_rate": rate,
                            "net_bloat_thr": self.policy.net_bloat_thr,
                        },
                    )
                    self._apply_layout()
            elif rate < self.policy.net_bloat_thr / 2:
                self.bloat_treated.discard(workload.name)
                self._decide(
                    "bloat_restore",
                    f"{workload.name}: bloat subsided below half threshold",
                    {
                        "workload": workload.name,
                        "bloat_rate": rate,
                        "net_bloat_thr": self.policy.net_bloat_thr,
                    },
                )
                self._apply_layout()

    def _check_restorations(self, sample: EpochSample) -> bool:
        changed = False
        for name in list(self.antagonists):
            state = self.antagonists[name]
            stream = sample.streams.get(name)
            if stream is None:
                continue
            if self.restore_checker.should_restore(state, stream):
                del self.antagonists[name]
                self.demoted.discard(name)
                self._detect_cooldown[name] = 5
                workload = self.server.workload(name)
                if state.kind == "storage" and workload.port_id is not None:
                    self.set_port_dca(workload.port_id, enabled=True)
                self._decide(
                    "restore",
                    f"{name}: antagonistic phase ended; original treatment",
                    {
                        "workload": name,
                        "kind": state.kind,
                        "detection_metric": state.detection_metric,
                        "current_metric": (
                            stream.llc_miss_rate
                            if state.kind == "cpu"
                            else stream.io_throughput_lines_per_cycle
                        ),
                    },
                )
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def robustness_stats(self) -> Dict[str, int]:
        stats = super().robustness_stats()
        stats.update(self.sanitizer.stats())
        stats.update(self.watchdog.stats())
        return stats
