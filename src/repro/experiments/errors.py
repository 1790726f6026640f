"""Typed exceptions for the experiment layer.

Every error raised by the harness, sweep, and figure setup paths derives
from :class:`ExperimentError`, so callers can catch experiment failures
without string matching.  Each concrete class *also* inherits the builtin
it replaced (``ValueError`` / ``RuntimeError``), so pre-existing
``except ValueError`` call sites keep working.
"""

from __future__ import annotations


class ExperimentError(Exception):
    """Base class for all experiment-layer failures."""


class WorkloadConfigError(ExperimentError, ValueError):
    """A workload/figure configuration is invalid — e.g. asking to disable
    DCA for a workload with no I/O device, or an unknown workload name."""


class InsufficientEpochsError(ExperimentError, ValueError):
    """``epochs`` does not exceed ``warmup``; no measured samples remain."""


class ConfigError(ExperimentError, ValueError):
    """A scenario configuration violates a platform/tenant budget — e.g.
    workload ``cores=`` sums exceed the platform's core count, or a tenant's
    workloads oversubscribe its declared core budget.  Raised at build time
    so the failure names the offender instead of surfacing mid-setup as a
    generic allocation error."""


class CoreAllocationError(ExperimentError, RuntimeError):
    """The scenario requests more cores than the simulated server has."""


class SweepConfigError(ExperimentError, ValueError):
    """A multi-seed sweep was configured with no seeds."""


class FigureShapeError(ExperimentError, RuntimeError):
    """A figure runner returned differently-shaped results across seeds;
    runners must be deterministic in shape for seed averaging."""
