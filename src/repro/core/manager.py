"""Interface every LLC-management scheme implements.

A manager sees exactly what the paper's daemon sees: launch-time workload
metadata, per-epoch PCM samples, CAT, and the PCIe port registers.  It never
touches the cache models directly.

The two write surfaces — :meth:`LlcManager.set_ways` and
:meth:`LlcManager.set_port_dca` — are hardened against *transient* apply
failures (a glitched ``pqos`` run, a config-space write that did not stick;
injected by :mod:`repro.faults`): a failed write is retried up to
``apply_retry_limit`` times in place, then parked and re-attempted each
epoch with doubling backoff via :meth:`retry_pending`.  Permanent errors
(an actually invalid mask) are caller bugs and propagate unchanged.  On a
failed write the previously committed state stays active, so the hardware
invariant — every CLOS mask valid at all times — holds regardless.

Every consequential controller action goes through :meth:`LlcManager._decide`
into :attr:`LlcManager.decisions`: *when* (the index of the sample being
handled), *what* (the action), *why* (the reason) and *on what evidence*
(the telemetry values and thresholds compared).  With tracing on, each
decision is also a ``decision`` trace event, so a JSONL trace carries the
same list and ``tools/obsv.py explain-epoch`` works from the file alone.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro import obsv
from repro.obsv.audit import Decision
from repro.rdt.cat import TransientClosError
from repro.telemetry.pcm import EpochSample
from repro.uncore.pcie import TransientPortError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import Server

TRANSIENT_APPLY_ERRORS = (TransientClosError, TransientPortError)

_MAX_BACKOFF_EPOCHS = 8


class LlcManager(abc.ABC):
    """Base class for Default / Isolate / A4 managers."""

    name = "manager"

    apply_retry_limit = 3
    """Immediate retries for a transiently failed apply (A4 overrides
    this from its policy)."""
    apply_backoff_epochs = 1
    """Initial deferred-retry interval (doubles per failure, capped)."""

    def __init__(self) -> None:
        self.server: "Server" = None
        self.apply_retries = 0
        """Transient failures recovered by an immediate retry."""
        self.apply_deferred = 0
        """Applies that exhausted immediate retries and were parked."""
        self.apply_recovered = 0
        """Parked applies that later committed via :meth:`retry_pending`."""
        self._pending_ways: Dict[str, List[int]] = {}
        """name -> [first, last, epochs_until_retry, current_interval]"""
        self._pending_dca: Dict[int, List[int]] = {}
        """port_id -> [enabled, epochs_until_retry, current_interval]"""
        self.decisions: List[Decision] = []
        """Every controller decision with its evidence, in the order taken."""
        self._epoch_index = -1
        """Index of the sample being handled (-1 before the first epoch):
        the epoch tag of :attr:`decisions`."""

    def _decide(
        self, action: str, reason: str, inputs: Dict[str, Any]
    ) -> None:
        """Record one decision; mirror it as a ``decision`` trace event
        when tracing is on.

        ``inputs`` must stay JSON-round-trippable — it rides along into
        the trace event and out through the JSONL export."""
        self.decisions.append(
            Decision(self._epoch_index, action, reason, inputs)
        )
        if obsv.TRACER is not None:
            obsv.TRACER.emit(
                obsv.KIND_DECISION,
                action,
                {"reason": reason, "inputs": inputs},
            )

    def _trace_control(self, name: str, **data) -> None:
        """Control-plane incident (parked / recovered apply) trace event."""
        if obsv.TRACER is not None:
            obsv.TRACER.emit(obsv.KIND_CONTROL, name, data)

    def attach(self, server: "Server") -> None:
        """Bind to a server after all workloads are added; apply the initial
        allocation."""
        self.server = server
        self.on_attach()

    def on_attach(self) -> None:
        """Set the initial CAT masks / DCA state.  Default: no-op."""

    def on_workload_change(self) -> None:
        """A workload was launched or terminated (paper Fig. 9, step 1).
        Default: no reaction (the Default model); overridden by schemes
        that must re-derive their allocation."""

    @abc.abstractmethod
    def on_epoch(self, sample: EpochSample) -> None:
        """React to one monitoring interval's counters."""

    # -- convenience accessors (the daemon's 'system call' surface) -------

    @staticmethod
    def tenant_streams(sample: EpochSample) -> Dict[str, List]:
        """Group one epoch's stream samples by owning tenant.

        Streams registered pre-tenancy (empty ``info.tenant``) land under
        ``""``; managers that never look at tenants pay nothing."""
        groups: Dict[str, List] = {}
        for stream in sample.streams.values():
            groups.setdefault(stream.info.tenant, []).append(stream)
        return groups

    def set_ways(self, workload_name: str, first: int, last: int) -> bool:
        """Point the workload's CLOS at way[first:last] (paper notation).

        Returns True when the write was accepted (committed, or accepted
        for a delayed commit); False when every immediate retry failed
        transiently and the apply was parked for :meth:`retry_pending`.
        """
        server = self.server
        clos = server.clos_of(workload_name)
        ways = range(first, last + 1)
        for attempt in range(1 + self.apply_retry_limit):
            try:
                server.cat.set_mask(clos, ways)
            except TransientClosError:
                continue
            if attempt:
                self.apply_retries += attempt
            self._pending_ways.pop(workload_name, None)
            return True
        self.apply_deferred += 1
        interval = self.apply_backoff_epochs
        self._pending_ways[workload_name] = [first, last, interval, interval]
        self._trace_control(
            "ways_parked", workload=workload_name, first=first, last=last
        )
        return False

    def ways_of(self, workload_name: str):
        server = self.server
        return server.cat.mask(server.clos_of(workload_name))

    def set_port_dca(self, port_id: int, enabled: bool) -> bool:
        """Steer the port's inbound writes (DCA on/off), with the same
        retry/backoff contract as :meth:`set_ways`."""
        port = self.server.pcie.port(port_id)
        for attempt in range(1 + self.apply_retry_limit):
            try:
                if enabled:
                    port.enable_dca()
                else:
                    port.disable_dca()
            except TransientPortError:
                continue
            if attempt:
                self.apply_retries += attempt
            self._pending_dca.pop(port_id, None)
            return True
        self.apply_deferred += 1
        interval = self.apply_backoff_epochs
        self._pending_dca[port_id] = [int(enabled), interval, interval]
        self._trace_control("dca_parked", port=port_id, enabled=enabled)
        return False

    # -- deferred-apply bookkeeping ---------------------------------------

    @property
    def pending_applies(self) -> int:
        """Writes parked after exhausting their immediate retries."""
        return len(self._pending_ways) + len(self._pending_dca)

    def retry_pending(self) -> None:
        """One epoch tick of the deferred-apply queue: attempt every entry
        whose backoff expired; double the interval on another transient
        failure.  Managers that react per epoch call this first."""
        for name, entry in list(self._pending_ways.items()):
            first, last, wait, interval = entry
            if wait > 1:
                entry[2] = wait - 1
                continue
            try:
                self.server.cat.set_mask(
                    self.server.clos_of(name), range(first, last + 1)
                )
            except TransientClosError:
                entry[2] = entry[3] = min(interval * 2, _MAX_BACKOFF_EPOCHS)
                continue
            del self._pending_ways[name]
            self.apply_recovered += 1
            self._trace_control(
                "ways_recovered", workload=name, first=first, last=last
            )
        for port_id, entry in list(self._pending_dca.items()):
            enabled, wait, interval = entry
            if wait > 1:
                entry[1] = wait - 1
                continue
            port = self.server.pcie.port(port_id)
            try:
                if enabled:
                    port.enable_dca()
                else:
                    port.disable_dca()
            except TransientPortError:
                entry[1] = entry[2] = min(interval * 2, _MAX_BACKOFF_EPOCHS)
                continue
            del self._pending_dca[port_id]
            self.apply_recovered += 1
            self._trace_control(
                "dca_recovered", port=port_id, enabled=bool(enabled)
            )

    def discard_pending(self, workload_name: Optional[str] = None) -> None:
        """Drop parked way-applies (all, or one workload's) — used when a
        newer layout supersedes them or the workload terminated."""
        if workload_name is None:
            self._pending_ways.clear()
        else:
            self._pending_ways.pop(workload_name, None)

    def robustness_stats(self) -> Dict[str, int]:
        """Hardening counters, for run reports and figures."""
        return {
            "apply_retries": self.apply_retries,
            "apply_deferred": self.apply_deferred,
            "apply_recovered": self.apply_recovered,
            "pending_applies": self.pending_applies,
        }
