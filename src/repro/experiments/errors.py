"""Typed exceptions for the experiment layer.

Every error raised by the harness, sweep, and figure setup paths derives
from :class:`ExperimentError` so callers — in particular the parallel
runner's per-task error capture — can classify failures without string
matching.  Each concrete class *also* inherits the builtin it replaced
(``ValueError`` / ``RuntimeError``), so pre-existing ``except ValueError``
call sites keep working.

Classification of an arbitrary exception (including one re-hydrated from a
worker traceback) goes through :func:`classify`.
"""

from __future__ import annotations


CATEGORY_POOL = "pool"
"""A worker pool broke underneath a dispatch (dead worker, OOM kill)."""


class ExperimentError(Exception):
    """Base class for all experiment-layer failures."""

    category = "experiment"


class WorkloadConfigError(ExperimentError, ValueError):
    """A workload/figure configuration is invalid — e.g. asking to disable
    DCA for a workload with no I/O device, or an unknown workload name."""

    category = "config"


class InsufficientEpochsError(ExperimentError, ValueError):
    """``epochs`` does not exceed ``warmup``; no measured samples remain."""

    category = "config"


class ConfigError(ExperimentError, ValueError):
    """A scenario configuration violates a platform/tenant budget — e.g.
    workload ``cores=`` sums exceed the platform's core count, or a tenant's
    workloads oversubscribe its declared core budget.  Raised at build time
    so the failure names the offender instead of surfacing mid-setup as a
    generic allocation error."""

    category = "config"


class CoreAllocationError(ExperimentError, RuntimeError):
    """The scenario requests more cores than the simulated server has."""

    category = "resources"


class SweepConfigError(ExperimentError, ValueError):
    """A multi-seed sweep was configured with no seeds."""

    category = "config"


class FigureShapeError(ExperimentError, RuntimeError):
    """A figure runner returned differently-shaped results across seeds;
    runners must be deterministic in shape for seed averaging."""

    category = "figure"


def classify(exc: BaseException) -> str:
    """Return the failure category for ``exc``.

    Typed experiment errors carry their own ``category``; anything else is
    bucketed by builtin family so pool-side tracebacks remain useful.
    RDT/PCIe apply errors get their own ``allocation`` bucket (checked
    before the ``ValueError`` family — :class:`ClosConfigError` *is* a
    ``ValueError``) so a bad mask computed from a sweep config surfaces as
    exactly that, not as a generic config failure.
    """
    from concurrent.futures.process import BrokenProcessPool

    from repro.rdt.cat import ClosConfigError
    from repro.uncore.pcie import PortConfigError

    if isinstance(exc, ExperimentError):
        return exc.category
    if isinstance(exc, BrokenProcessPool):
        return CATEGORY_POOL
    if isinstance(exc, (ClosConfigError, PortConfigError)):
        return "allocation"
    if isinstance(exc, (ValueError, TypeError)):
        return "config"
    if isinstance(exc, MemoryError):
        return "resources"
    return "runtime"


def classify_name(exc_type_name: str) -> str:
    """Best-effort category from an exception *type name* alone.

    The process-pool runner serializes worker failures as
    ``(type_name, message, traceback)`` strings; this maps the name back to
    a category without needing the original object.
    """
    mapping = {
        "WorkloadConfigError": "config",
        "InsufficientEpochsError": "config",
        "SweepConfigError": "config",
        "ConfigError": "config",
        "TenantConfigError": "config",
        "ValueError": "config",
        "TypeError": "config",
        "CoreAllocationError": "resources",
        "MemoryError": "resources",
        "FigureShapeError": "figure",
        "ClosConfigError": "allocation",
        "TransientClosError": "allocation",
        "PortConfigError": "allocation",
        "TransientPortError": "allocation",
        "BrokenProcessPool": CATEGORY_POOL,
    }
    return mapping.get(exc_type_name, "runtime")
