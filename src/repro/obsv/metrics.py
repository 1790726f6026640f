"""Process-wide metrics registry: counters, gauges, histograms with labels.

Naming conventions (enforced by habit, checked by review, documented in
``docs/observability.md``):

* every metric is prefixed ``repro_``;
* second token is the owning subsystem (``runcache``, ``manager``,
  ``faults``, ``epoch``, ``trace``, ``profile``);
* monotonically increasing counts end in ``_total``; point-in-time
  values carry a unit suffix (``_seconds``, ``_events``) where one
  exists;
* labels are few and low-cardinality (``manager``, ``phase``, ``kind``).

The registry is always importable and always cheap: metrics are plain
attribute bumps, and nothing walks the registry until an exporter
(:func:`repro.obsv.export.render_prometheus` or :meth:`snapshot`) asks.

This module also hosts the shared **stats-dict merge helpers**
(:func:`counts_of` / :func:`merge_counts` / :func:`diff_counts`) that the
run cache's worker-stats merge and the chaos sweep's fault aggregation
both use — previously each had its own hand-rolled field loop.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

LabelValue = Union[str, int, float, bool]
Labels = Tuple[Tuple[str, str], ...]

DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Histogram bucket upper bounds (seconds-flavoured, Prometheus style)."""


# -- shared stats-dict helpers ---------------------------------------------


def counts_of(stats: Any) -> Dict[str, Union[int, float]]:
    """The numeric fields of a stats carrier as a plain dict.

    Accepts a mapping or a dataclass instance (``CacheStats``,
    ``FaultCounters``, ``DispatchStats``, ...); non-numeric fields are
    skipped, bools are not treated as numbers."""
    if is_dataclass(stats) and not isinstance(stats, type):
        items = [(f.name, getattr(stats, f.name)) for f in fields(stats)]
    elif isinstance(stats, Mapping):
        items = list(stats.items())
    else:
        raise TypeError(f"cannot extract counts from {type(stats).__name__}")
    return {
        name: value
        for name, value in items
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def merge_counts(target: Any, source: Any) -> Any:
    """Add ``source``'s numeric stats into ``target`` and return it.

    Both sides may be mappings or dataclass instances.  Keys missing from
    ``target`` are created when it is a mapping and ignored when it is a
    dataclass (a dataclass's shape is its contract)."""
    increments = counts_of(source)
    if is_dataclass(target) and not isinstance(target, type):
        own = counts_of(target)
        for name, value in increments.items():
            if name in own:
                setattr(target, name, own[name] + value)
    elif isinstance(target, dict):
        for name, value in increments.items():
            target[name] = target.get(name, 0) + value
    else:
        raise TypeError(f"cannot merge counts into {type(target).__name__}")
    return target


def diff_counts(after: Any, before: Any) -> Dict[str, Union[int, float]]:
    """``after - before`` per shared numeric field (a worker's delta)."""
    a, b = counts_of(after), counts_of(before)
    return {name: value - b.get(name, 0) for name, value in a.items()}


# -- metric primitives ------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value that may go either way."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-shaped)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: Union[int, float]) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    def quantile_bound(self, q: float) -> float:
        """Upper bound of the bucket containing quantile ``q`` (coarse,
        +Inf reported as the largest finite bound)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        for bound, cumulative in zip(self.buckets, self.counts):
            if cumulative >= rank:
                return bound
        return self.buckets[-1]


Metric = Union[Counter, Gauge, Histogram]

_TYPE_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


def _labels_key(labels: Dict[str, LabelValue]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Name + labels -> metric, with get-or-create accessors.

    Re-requesting a name with a different metric type is an error — one
    name, one type, any number of label sets."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], Metric] = {}
        self._types: Dict[str, type] = {}
        self._help: Dict[str, str] = {}

    def _get(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Dict[str, LabelValue],
        **kwargs: Any,
    ) -> Metric:
        known = self._types.get(name)
        if known is not None and known is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{_TYPE_NAMES[known]}, requested {_TYPE_NAMES[cls]}"
            )
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(**kwargs)
            self._types[name] = cls
            if help:
                self._help[name] = help
        elif help and name not in self._help:
            self._help[name] = help
        return metric

    def counter(
        self, name: str, help: str = "", **labels: LabelValue
    ) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: LabelValue) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: LabelValue,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- iteration / export -------------------------------------------------

    def items(self) -> List[Tuple[str, Labels, Metric]]:
        """(name, labels, metric) triples, sorted for stable output."""
        return [
            (name, labels, metric)
            for (name, labels), metric in sorted(self._metrics.items())
        ]

    def type_of(self, name: str) -> str:
        return _TYPE_NAMES[self._types[name]]

    def help_of(self, name: str) -> str:
        return self._help.get(name, "")

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable dump of every metric."""
        out: Dict[str, Any] = {}
        for name, labels, metric in self.items():
            entry = out.setdefault(
                name,
                {
                    "type": self.type_of(name),
                    "help": self.help_of(name),
                    "series": [],
                },
            )
            if isinstance(metric, Histogram):
                value: Any = {
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
            else:
                value = metric.value
            entry["series"].append({"labels": dict(labels), "value": value})
        return out

    def clear(self) -> None:
        self._metrics.clear()
        self._types.clear()
        self._help.clear()


_registry: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-wide registry, created on first use."""
    global _registry
    if _registry is None:
        _registry = MetricsRegistry()
    return _registry


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    """Swap the process-wide registry (tests use this for isolation)."""
    global _registry
    _registry = registry


# -- collectors -------------------------------------------------------------


def collect_process(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Pull the process-wide run-cache hit/miss accounting into the
    registry.  Imports lazily so this low-level module never drags the
    experiment stack in."""
    from repro.experiments import runcache

    registry = registry or get_registry()
    cache = runcache.get_cache()
    for name, value in counts_of(cache.stats).items():
        registry.gauge(
            f"repro_runcache_{name}_total",
            help=f"run-cache {name} this process",
        ).set(value)
    registry.gauge(
        "repro_runcache_enabled", help="1 when the run cache is on"
    ).set(int(cache.enabled))
    return registry


def collect_robustness(
    stats: Mapping[str, Union[int, float]],
    manager: str,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Absorb a manager's ``robustness_stats()`` dict (apply retries,
    sanitizer holdovers, watchdog state) as labeled gauges."""
    registry = registry or get_registry()
    for name, value in stats.items():
        registry.gauge(
            f"repro_manager_{name}",
            help=f"manager robustness counter {name}",
            manager=manager,
        ).set(value)
    return registry


def collect_tenants(
    slos,
    scheme: str,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Absorb per-tenant SLO rows (:class:`~repro.experiments.report.
    TenantSlo`) as tenant-labeled gauges, one series per tenant × scheme —
    the export a fleet dashboard would scrape per co-location cell."""
    registry = registry or get_registry()
    for slo in slos:
        labels = dict(
            tenant=slo.tenant, tenant_class=slo.tenant_class, scheme=scheme
        )
        registry.gauge(
            "repro_tenant_p99_latency_cycles",
            help="measured per-tenant p99 request latency",
            **labels,
        ).set(slo.p99_latency)
        registry.gauge(
            "repro_tenant_throughput_per_epoch",
            help="measured per-tenant completed requests per epoch",
            **labels,
        ).set(slo.throughput)
        registry.gauge(
            "repro_tenant_slo_attainment",
            help="worst declared-axis SLO attainment, capped at 1.0",
            **labels,
        ).set(slo.attainment)
        registry.gauge(
            "repro_tenant_slo_met",
            help="1 when every declared SLO axis is met",
            **labels,
        ).set(1.0 if slo.met else 0.0)
    return registry
