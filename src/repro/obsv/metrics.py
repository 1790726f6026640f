"""Shared stats-dict merge helpers.

:func:`counts_of` / :func:`merge_counts` / :func:`diff_counts` are what
the run cache's worker-stats merge, the process pool's per-worker deltas
and the chaos sweep's fault aggregation use, instead of each keeping a
hand-rolled field loop.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Dict, Mapping, Union


def counts_of(stats: Any) -> Dict[str, Union[int, float]]:
    """The numeric fields of a stats carrier as a plain dict.

    Accepts a mapping or a dataclass instance (``CacheStats``,
    ``FaultCounters``, ...); non-numeric fields are skipped, bools are
    not treated as numbers."""
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
