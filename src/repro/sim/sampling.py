"""Representative-interval sampling for long-horizon runs.

SMARTS/SimPoint-style acceleration of :meth:`Server.run`: every simulated
("detailed") epoch is reduced to a *signature* — per-stream rate vector
plus the manager's FSM phase — and signatures are clustered online.  Once
the recent past is stable (the last ``stability_window`` detailed epochs
all landed in one cluster), the executor stops simulating: it fast-forwards
the clock epoch-by-epoch, synthesizing each skipped epoch's sample from the
cluster representative, then drops back to detailed simulation for a few
functional-warmup epochs before deciding whether to skip again.  Phase
changes, workload churn, or any signature drifting out of the cluster
tolerance automatically revert the run to detailed mode until stability
re-establishes.

Because the engine's :meth:`~repro.sim.engine.Simulator.fast_forward` is a
pure time relabeling (all microarchitectural state — cache contents, ring
occupancies, in-flight commands — survives a skip untouched), the error of
a sampled run comes only from labeling cluster-mean statistics onto the
skipped epochs, not from state loss.  The per-stream standard error of
that substitution is tracked per cluster and surfaced in the
:class:`SamplingReport` attached to the :class:`RunResult`.

Exact mode is the default everywhere; sampling only runs when a
:class:`SamplingPlan` is passed explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Metrics the signature/estimator tracks per stream, in order.  These are
#: the rates the figure suite aggregates; anything the clusterer cannot
#: see it also cannot promise error bounds on.
SIGNATURE_METRICS = ("ipc", "llc_hit_rate", "mlc_miss_rate", "io_throughput")

_EPS = 1e-9


@dataclass(frozen=True)
class SamplingPlan:
    """Knobs of the interval sampler (all epochs counts are in epochs)."""

    error_budget: float = 0.02
    """Target relative error of extrapolated per-stream aggregates; the
    report's :meth:`~SamplingReport.max_rel_err` is checked against it."""
    warm_epochs: int = 1
    """Detailed epochs simulated after every skip block before the next
    skip decision (functional warmup: lets the manager re-converge after
    acting on synthesized samples)."""
    max_skip: int = 8
    """Longest run of consecutive synthesized epochs."""
    stability_window: int = 3
    """Consecutive same-cluster detailed epochs required before skipping."""
    tolerance: float = 0.10
    """Signature distance within which two epochs are the same interval
    class: the *mean* over components of the absolute difference, each
    scaled by that component's running magnitude across the run.  A mean
    (not max) distance keeps one noisy antagonist metric from shattering
    an otherwise stationary regime into singleton clusters."""

    def __post_init__(self) -> None:
        if not (0.0 < self.error_budget < 1.0):
            raise ValueError("error_budget must be in (0, 1)")
        if self.warm_epochs < 1:
            raise ValueError("warm_epochs must be >= 1")
        if self.max_skip < 1:
            raise ValueError("max_skip must be >= 1")
        if self.stability_window < 2:
            raise ValueError("stability_window must be >= 2")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


def epoch_signature(sample, server) -> Tuple[str, Tuple[float, ...]]:
    """Reduce one :class:`EpochSample` to ``(phase_key, rate_vector)``.

    The vector is per-stream metric rates (streams sorted by name, so the
    layout is stable) plus machine memory bandwidth; the phase key is the
    manager FSM phase — epochs in different controller phases are never
    the same interval, whatever their rates say."""
    values: List[float] = []
    for name in sorted(sample.streams):
        stream = sample.streams[name]
        values.append(stream.ipc)
        values.append(stream.llc_hit_rate)
        values.append(stream.mlc_miss_rate)
        values.append(stream.io_throughput_lines_per_cycle)
    values.append(sample.mem_total_bw)
    phase = getattr(server.manager, "phase", None) if server.manager else None
    return (str(phase), tuple(values))


class _Welford:
    """Streaming mean/variance (per cluster, per stream metric)."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        if self.n < 2:
            return 0.0
        return self.m2 / (self.n - 1)


class _Cluster:
    """One interval class: centroid, member stats, and the representative
    (most recent member) sample used to synthesize skipped epochs."""

    __slots__ = ("cluster_id", "phase", "centroid", "count", "stats",
                 "representative")

    def __init__(self, cluster_id: int, phase: str, vector) -> None:
        self.cluster_id = cluster_id
        self.phase = phase
        self.centroid = list(vector)
        self.count = 0
        self.stats: Dict[Tuple[str, str], _Welford] = {}
        self.representative = None

    def distance(self, vector, scales) -> float:
        """Scaled mean relative distance from the centroid (see
        :attr:`SamplingPlan.tolerance`)."""
        total = 0.0
        for value, center, scale in zip(vector, self.centroid, scales):
            total += abs(value - center) / max(scale, 1e-3)
        return total / max(1, len(vector))

    def matches(self, phase: str, vector, scales, tolerance: float) -> bool:
        if phase != self.phase or len(vector) != len(self.centroid):
            return False
        return self.distance(vector, scales) <= tolerance

    def absorb(self, vector, sample) -> None:
        self.count += 1
        for i, value in enumerate(vector):
            self.centroid[i] += (value - self.centroid[i]) / self.count
        self.representative = sample
        for name in sample.streams:
            stream = sample.streams[name]
            for metric in SIGNATURE_METRICS:
                key = (name, metric)
                w = self.stats.get(key)
                if w is None:
                    w = self.stats[key] = _Welford()
                w.add(_stream_metric(stream, metric))


def _stream_metric(stream, metric: str) -> float:
    if metric == "io_throughput":
        return stream.io_throughput_lines_per_cycle
    return getattr(stream, metric)


class _OnlineClusters:
    """Leader clustering over epoch signatures (online, order-dependent —
    which is fine: the stream of epochs *is* ordered)."""

    def __init__(self, plan: SamplingPlan) -> None:
        self.plan = plan
        self.clusters: List[_Cluster] = []
        self.recent: List[int] = []
        self._scales: List[float] = []
        self._observed = 0

    def _update_scales(self, vector) -> None:
        """Running mean magnitude per component — the normalizer that puts
        IPC (~0.1), hit rates (~1), and bandwidths (~0.3) on one scale."""
        if len(self._scales) != len(vector):
            self._scales = [abs(v) for v in vector]
            self._observed = 1
            return
        self._observed += 1
        for i, value in enumerate(vector):
            self._scales[i] += (abs(value) - self._scales[i]) / self._observed

    def observe(self, signature, sample) -> _Cluster:
        phase, vector = signature
        self._update_scales(vector)
        best = None
        best_distance = None
        for cluster in self.clusters:
            if not cluster.matches(
                phase, vector, self._scales, self.plan.tolerance
            ):
                continue
            d = cluster.distance(vector, self._scales)
            if best_distance is None or d < best_distance:
                best, best_distance = cluster, d
        if best is None:
            best = _Cluster(len(self.clusters), phase, vector)
            self.clusters.append(best)
        best.absorb(vector, sample)
        self._push_recent(best.cluster_id)
        return best

    def _push_recent(self, cluster_id: int) -> None:
        self.recent.append(cluster_id)
        if len(self.recent) > self.plan.stability_window:
            self.recent.pop(0)

    def reset_stability(self) -> None:
        """Called on workload churn or after a deviation — the run must
        re-earn stability before skipping again."""
        self.recent.clear()

    def stable_cluster(self) -> Optional[_Cluster]:
        window = self.plan.stability_window
        if len(self.recent) < window:
            return None
        if len(set(self.recent)) != 1:
            return None
        return self.clusters[self.recent[0]]


@dataclass
class StreamEstimate:
    """Extrapolated mean ± standard error for one stream metric."""

    name: str
    metric: str
    mean: float
    stderr: float

    @property
    def rel_err(self) -> float:
        if abs(self.mean) < _EPS:
            return 0.0
        return self.stderr / abs(self.mean)


@dataclass
class SamplingReport:
    """What the sampler did, and how much to trust the result."""

    plan: SamplingPlan
    total_epochs: int
    detailed_epochs: int
    skipped_epochs: int
    warm_epochs: int
    clusters: int
    skipped_indices: List[int] = field(default_factory=list)
    estimates: Dict[str, Dict[str, StreamEstimate]] = field(
        default_factory=dict
    )

    @property
    def speedup_estimate(self) -> float:
        """Structural speedup: epochs covered per epoch simulated."""
        return self.total_epochs / max(1, self.detailed_epochs)

    def max_rel_err(self) -> float:
        worst = 0.0
        for metrics in self.estimates.values():
            for estimate in metrics.values():
                worst = max(worst, estimate.rel_err)
        return worst

    def within_budget(self) -> bool:
        return self.max_rel_err() <= self.plan.error_budget

    def summary(self) -> str:
        lines = [
            f"sampled run: {self.detailed_epochs} detailed + "
            f"{self.skipped_epochs} synthesized of {self.total_epochs} epochs "
            f"({self.clusters} interval classes, "
            f"~{self.speedup_estimate:.1f}x structural speedup)",
            f"estimated max relative error {100 * self.max_rel_err():.2f}% "
            f"(budget {100 * self.plan.error_budget:.1f}%)",
        ]
        return "\n".join(lines)


class SampledRun:
    """Drives one server through a sampled long-horizon run.

    Invoked by :meth:`Server.run` when a :class:`SamplingPlan` is passed;
    not constructed directly by experiment code."""

    def __init__(self, server, plan: SamplingPlan) -> None:
        self.server = server
        self.plan = plan

    def run(
        self,
        epochs: int,
        warmup: int,
        epoch_hook=None,
    ):
        from repro import obsv
        from repro.experiments.harness import RunResult

        server = self.server
        plan = self.plan
        clusters = _OnlineClusters(plan)
        tracer = obsv.TRACER
        samples = []
        skipped_indices: List[int] = []
        synth_cluster: Dict[int, _Cluster] = {}
        warm_counted = 0
        # Detailed epochs still owed as functional warmup after a skip.
        warm_left = 0
        detailed = 0
        skipped = 0
        i = 0
        ctx = server._begin_run()
        while i < epochs:
            remaining = epochs - i
            stable = clusters.stable_cluster()
            # Always keep enough detailed epochs at the tail to re-measure,
            # and never skip during warmup or a pending functional warm.
            can_skip = (
                stable is not None
                and stable.representative is not None
                and warm_left == 0
                and i >= warmup
                and remaining > plan.warm_epochs
            )
            if can_skip:
                block = min(plan.max_skip, remaining - plan.warm_epochs)
                if tracer is not None:
                    tracer.epoch = server.epochs_completed
                    tracer.now = server.sim.now
                    tracer.emit(
                        obsv.KIND_SAMPLE,
                        "skip",
                        {
                            "cluster": stable.cluster_id,
                            "epochs": block,
                            "members": stable.count,
                        },
                    )
                for _ in range(block):
                    sample = self._synthesize_epoch(stable)
                    samples.append(sample)
                    skipped_indices.append(i)
                    synth_cluster[i] = stable
                    skipped += 1
                    if epoch_hook is not None:
                        epoch_hook(server, sample)
                    i += 1
                warm_left = plan.warm_epochs
                continue
            sample = server._run_epoch(ctx)
            samples.append(sample)
            detailed += 1
            if warm_left > 0:
                # Functional warmup: simulated and reported, but its
                # signature is withheld from the clusterer — the manager
                # may still be digesting synthesized epochs.
                warm_left -= 1
                warm_counted += 1
            elif i >= warmup:
                clusters.observe(epoch_signature(sample, server), sample)
            if epoch_hook is not None:
                epoch_hook(server, sample)
            i += 1
        if tracer is not None:
            tracer.epoch = -1
        report = self._report(
            clusters,
            samples,
            warmup,
            detailed=detailed,
            skipped=skipped,
            warm=warm_counted,
            skipped_indices=skipped_indices,
            synth_cluster=synth_cluster,
        )
        return RunResult(
            samples=samples, warmup=warmup, server=server, sampling=report
        )

    # -- synthesis -----------------------------------------------------------

    def _synthesize_epoch(self, cluster: _Cluster):
        """Advance the clock one epoch without simulating and fabricate the
        sample from the cluster representative.

        The representative's stream samples are *shared* (they are
        immutable from the consumers' perspective); only the envelope —
        index and timestamp — is new.  The PCM sampler's index/history
        advance so downstream per-epoch series stay contiguous, while its
        counter snapshots are untouched: no counters moved, so the next
        detailed epoch's delta stays correct."""
        from repro.telemetry.pcm import EpochSample

        server = self.server
        rep = cluster.representative
        server.time_shift(server.epoch_cycles)
        pcm = server.pcm
        sample = EpochSample(
            index=pcm._index,
            time=server.sim.now,
            epoch_cycles=rep.epoch_cycles,
            streams=rep.streams,
            mem_read_lines=rep.mem_read_lines,
            mem_write_lines=rep.mem_write_lines,
        )
        pcm._index += 1
        pcm.history.append(sample)
        server.epochs_completed += 1
        if server.manager is not None:
            server.manager.on_epoch(sample)
        return sample

    # -- error accounting ----------------------------------------------------

    def _report(
        self,
        clusters: _OnlineClusters,
        samples,
        warmup: int,
        detailed: int,
        skipped: int,
        warm: int,
        skipped_indices: List[int],
        synth_cluster: Dict[int, "_Cluster"],
    ) -> SamplingReport:
        """Extrapolated window means + standard errors.

        Detailed epochs contribute their exact value; each synthesized
        epoch contributes its cluster's member variance (the substitution
        uncertainty), inflated by ``1/n`` for the uncertainty of the
        cluster mean itself.  Streams and metrics follow
        :data:`SIGNATURE_METRICS`."""
        window = samples[warmup:]
        n = len(window)
        # Window position -> fabricating cluster for synthesized epochs.
        synth_by_pos = {
            i - warmup: cluster
            for i, cluster in synth_cluster.items()
            if i >= warmup
        }
        estimates: Dict[str, Dict[str, StreamEstimate]] = {}
        if n:
            names: List[str] = []
            for sample in window:
                for name in sample.streams:
                    if name not in names:
                        names.append(name)
            for name in names:
                per_metric: Dict[str, StreamEstimate] = {}
                for metric in SIGNATURE_METRICS:
                    total = 0.0
                    var_sum = 0.0
                    for pos, sample in enumerate(window):
                        stream = sample.streams.get(name)
                        if stream is None:
                            continue
                        total += _stream_metric(stream, metric)
                        cluster = synth_by_pos.get(pos)
                        if cluster is not None:
                            w = cluster.stats.get((name, metric))
                            if w is not None and w.n >= 2:
                                var_sum += w.variance * (1.0 + 1.0 / w.n)
                    mean = total / n
                    stderr = math.sqrt(var_sum) / n
                    per_metric[metric] = StreamEstimate(
                        name=name, metric=metric, mean=mean, stderr=stderr
                    )
                estimates[name] = per_metric
        return SamplingReport(
            plan=self.plan,
            total_epochs=len(samples),
            detailed_epochs=detailed,
            skipped_epochs=skipped,
            warm_epochs=warm,
            clusters=len(clusters.clusters),
            skipped_indices=skipped_indices,
            estimates=estimates,
        )
