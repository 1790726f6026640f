"""Content-addressed run cache.

The figure suite re-executes identical ``(config, seed)`` simulations many
times — across figures (every motivation figure shares baselines) and even
within one (``fig15`` computes the Default-model baseline three times).
This module makes a completed run addressable by *what it computes*: a
SHA-256 fingerprint over the canonicalized configuration (workloads, CAT
masks, policy parameters), the seed, the epoch/warm-up counts, and a
code-version salt derived from the ``repro`` source tree.  Any change to
any of those — including editing simulator source — changes the key, so a
hit is always safe to reuse and invalidation is automatic.

Entries are pickles under ``.repro-cache/`` (override with
``--cache-dir`` / ``$REPRO_CACHE_DIR``), wrapped with a schema version and
a key echo; an entry that is corrupt, truncated, version-skewed, or fails
wrapper validation after unpickling is treated as a miss **and deleted**,
so one bad file costs one recompute instead of an error on every future
lookup.  ``--no-cache`` / ``$REPRO_CACHE_DISABLE=1`` turns
the layer off entirely, in which case every call is a plain re-run.

Usage::

    from repro.experiments import runcache

    cache = runcache.get_cache()
    value = cache.memo(("fig15_baseline", epochs, warmup, seed), compute)
    print(cache.stats)   # CacheStats(hits=2, misses=1, stores=1, errors=0)

Keys are built with :func:`fingerprint`, which canonicalizes nested
dataclasses, dicts, tuples, and callables (module + qualname + a hash of
the code object, so editing a builder function invalidates its runs).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import types
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.obsv.counts import merge_counts

SCHEMA_VERSION = 5
"""Bumped to 5 when tenancy became first-class: every workload now
carries a :class:`~repro.tenancy.TenantSpec` instead of a bare priority
string, so workload fingerprints (serialized via ``vars``) changed shape
— ``priority`` became a derived property and ``tenant`` (the frozen spec,
with class, core budget, CLOS policy, and SLO targets) entered the
canonical payload.  v4 entries, keyed on the old shape, are evicted on
first lookup.  (v4 added the sampling plan to the key payloads; v3 the
platform fingerprint.)"""
DEFAULT_CACHE_DIR = ".repro-cache"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_DISABLE = "REPRO_CACHE_DISABLE"
ENV_FAULT_INTENSITY = "REPRO_FAULT_INTENSITY"
"""Mirrors :data:`repro.faults.plan.ENV_FAULT_INTENSITY` (kept literal here
to keep this low-level module import-free of the fault layer).  Folded into
every fingerprint: results computed under env-selected fault injection can
never alias fault-free ones."""

_code_salt: Optional[str] = None


def code_salt() -> str:
    """Hash of the ``repro`` source tree (the code-version salt).

    Any edit to any ``repro`` module yields a different salt, so cached
    results can never outlive the code that produced them.  Computed once
    per process.
    """
    global _code_salt
    if _code_salt is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt = digest.hexdigest()
    return _code_salt


def _hash_code(digest, code: types.CodeType) -> None:
    """Feed a code object into ``digest`` without process-specific parts.

    ``repr(co_consts)`` is not usable directly: nested code objects (inner
    functions, comprehensions) repr with their memory address, which
    changes every interpreter run.  Recurse into them instead."""
    digest.update(code.co_code)
    digest.update(repr(code.co_names).encode())
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _hash_code(digest, const)
        else:
            digest.update(repr(const).encode())


def callable_token(fn: Callable) -> list:
    """Stable identity for a callable: module, qualname, and a hash of its
    code object, so editing the function's logic invalidates keys built
    from it even when the function lives outside the ``repro`` tree."""
    explicit = getattr(fn, "__cache_token__", None)
    if explicit is not None:
        return ["callable", *explicit]
    token = ["callable", getattr(fn, "__module__", "?"),
             getattr(fn, "__qualname__", repr(fn))]
    code = getattr(fn, "__code__", None)
    if code is not None:
        digest = hashlib.sha256()
        _hash_code(digest, code)
        token.append(digest.hexdigest()[:16])
    return token


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serializable form.

    Handles the config vocabulary of this repo: dataclasses (policy
    objects), plain config objects (workloads — type name + public
    attributes), mappings with sorted keys, sequences, sets, callables
    (via :func:`callable_token`), and scalars.  Anything unrecognized
    falls back to ``repr`` — deterministic for every config type used
    here, and at worst it only widens the key (a spurious miss, never a
    wrong hit)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__qualname__,
            {f.name: canonical(getattr(obj, f.name)) for f in fields(obj)},
        ]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(canonical(v)) for v in obj)
    if callable(obj):
        return callable_token(obj)
    if hasattr(obj, "__dict__"):
        public = {
            k: canonical(v)
            for k, v in sorted(vars(obj).items())
            if not k.startswith("_")
        }
        return [type(obj).__qualname__, public]
    return repr(obj)


def fingerprint(payload: Any) -> str:
    """SHA-256 key for ``payload``: canonical JSON + schema + code salt +
    the ambient fault-injection selection (if any)."""
    blob = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "salt": code_salt(),
            "faults": os.environ.get(ENV_FAULT_INTENSITY, ""),
            "payload": canonical(payload),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, surfaced in the figures CLI run report."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def merge(self, other) -> None:
        """Fold another stats carrier in (a worker's delta dict or another
        ``CacheStats``); shared helper with the chaos sweep's aggregation."""
        merge_counts(self, other)

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.errors} errors"
        )


MISS = object()
"""Sentinel returned by :meth:`RunCache.get` on a miss (distinguishes a
miss from a legitimately cached ``None``)."""


@dataclass
class RunCache:
    """Content-addressed pickle store under ``root``.

    ``enabled=False`` turns every lookup into a miss and every store into
    a no-op, so call sites never need their own cache-off branches.
    """

    root: Path = field(default_factory=lambda: Path(DEFAULT_CACHE_DIR))
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Return the cached value for ``key``, or the ``MISS`` sentinel.

        An entry that cannot be unpickled, or whose wrapper fails
        validation (wrong shape, schema skew, key echo mismatch, missing
        value) counts as a miss, bumps ``stats.errors``, and is deleted on
        the spot — a landed bit-flip costs one recompute, not a permanent
        error source."""
        if not self.enabled:
            self.stats.misses += 1
            return MISS
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                wrapper = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return MISS
        except Exception:
            # Truncated write, unreadable pickle, unpicklable payload.
            self._evict(path)
            self.stats.errors += 1
            self.stats.misses += 1
            return MISS
        if (
            not isinstance(wrapper, dict)
            or wrapper.get("schema") != SCHEMA_VERSION
            or wrapper.get("key") != key
            or "value" not in wrapper
        ):
            self._evict(path)
            self.stats.errors += 1
            self.stats.misses += 1
            return MISS
        self.stats.hits += 1
        return wrapper["value"]

    def discard(self, key: str) -> None:
        """Delete ``key``'s entry: its value failed the caller's own
        check (a checkpoint whose payload digest does not match)."""
        self._evict(self._path(key))

    @staticmethod
    def _evict(path: Path) -> None:
        """Best-effort removal of a bad entry (never fails the run)."""
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, value: Any) -> None:
        if not self.enabled:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with tmp.open("wb") as fh:
                pickle.dump(
                    {"schema": SCHEMA_VERSION, "key": key, "value": value},
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp, path)  # atomic: readers never see partial files
            self.stats.stores += 1
        except OSError:
            # A read-only or full cache dir must never fail the run.
            self.stats.errors += 1

    def memo(self, payload: Any, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``payload``, computing on miss."""
        key = fingerprint(payload)
        value = self.get(key)
        if value is not MISS:
            return value
        value = compute()
        self.put(key, value)
        return value


_cache: Optional[RunCache] = None


def get_cache() -> RunCache:
    """The process-wide cache, configured from the environment on first
    use (workers in a process pool inherit the parent's settings through
    ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_DISABLE``)."""
    global _cache
    if _cache is None:
        root = Path(os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR))
        disabled = os.environ.get(ENV_CACHE_DISABLE, "") not in ("", "0")
        _cache = RunCache(root=root, enabled=not disabled)
    return _cache


def configure(
    cache_dir: Optional[str] = None, enabled: Optional[bool] = None
) -> RunCache:
    """Reconfigure the process-wide cache (the figures CLI calls this for
    ``--cache-dir`` / ``--no-cache``) and export the settings so pool
    workers pick them up."""
    cache = get_cache()
    if cache_dir is not None:
        cache.root = Path(cache_dir)
        os.environ[ENV_CACHE_DIR] = str(cache_dir)
    if enabled is not None:
        cache.enabled = enabled
        os.environ[ENV_CACHE_DISABLE] = "" if enabled else "1"
    return cache


def set_cache(cache: Optional[RunCache]) -> None:
    """Swap the process-wide cache (tests use this for isolation)."""
    global _cache
    _cache = cache


@dataclass
class CachedServer:
    """Stand-in for :class:`~repro.experiments.harness.Server` on a cached
    ``run_setup`` hit.

    A real ``Server`` holds live generators and cannot pickle; the figure
    modules only read ``epoch_cycles`` from ``run.server``, so a cached
    :class:`~repro.experiments.harness.RunResult` carries this stub
    instead.  Any other attribute access raises, which keeps accidental
    dependencies on live-server state from silently reading garbage."""

    epoch_cycles: int


def _normalize_platform(kwargs: dict) -> dict:
    """Key-canonical view of a runner's kwargs.

    A ``platform`` given as ``None``, as a preset name, or as the resolved
    :class:`~repro.platform.PlatformSpec` object must address the same
    cache entry, so the kwarg is replaced by the resolved spec's
    fingerprint — and dropped entirely when it resolves to the default
    platform, keeping keys identical to a call that never passed it."""
    if "platform" not in kwargs:
        return kwargs
    from repro.platform import DEFAULT_PLATFORM, get_platform

    normalized = dict(kwargs)
    spec = get_platform(normalized.pop("platform"))
    if spec != DEFAULT_PLATFORM:
        normalized["platform"] = spec.fingerprint()
    return normalized


class CachedFigure:
    """Picklable cache-through wrapper for a registry figure runner.

    Stores the runner's ``(module, qualname)`` and resolves it lazily, so
    the wrapper survives a trip through a process pool.  Calls are
    memoized on the figure id, the call kwargs, and the underlying
    runner's code identity (plus, as always, the global code salt)."""

    __slots__ = ("figure_id", "module", "qualname", "__dict__")

    def __init__(self, figure_id: str, runner: Callable[..., Any]):
        self.figure_id = figure_id
        self.module = runner.__module__
        self.qualname = runner.__qualname__
        # Deterministic identity for key-building (see callable_token).
        self.__cache_token__ = ("figure", figure_id, self.module, self.qualname)
        self.__name__ = getattr(runner, "__name__", figure_id)
        self.__doc__ = runner.__doc__

    def _resolve(self) -> Callable[..., Any]:
        import importlib

        module = importlib.import_module(self.module)
        fn = module
        for part in self.qualname.split("."):
            fn = getattr(fn, part)
        return fn

    _NON_SEMANTIC_KWARGS = frozenset({"checkpoint_dir"})
    """Kwargs that change how a result is computed, never what it is —
    excluded from the key so a checkpointed run and a straight-through
    run of the same figure address the same cache entry."""

    def _payload(self, runner: Callable[..., Any], kwargs: dict) -> tuple:
        kwargs = {
            name: value
            for name, value in kwargs.items()
            if name not in self._NON_SEMANTIC_KWARGS
        }
        return (
            "figure",
            self.figure_id,
            callable_token(runner),
            sorted(_normalize_platform(kwargs).items()),
        )

    def __call__(self, **kwargs: Any) -> Any:
        runner = self._resolve()
        payload = self._payload(runner, kwargs)
        return get_cache().memo(payload, lambda: runner(**kwargs))

    def __getstate__(self):
        return (self.figure_id, self.module, self.qualname)

    def __setstate__(self, state):
        figure_id, module, qualname = state
        self.figure_id = figure_id
        self.module = module
        self.qualname = qualname
        self.__cache_token__ = ("figure", figure_id, module, qualname)
        self.__name__ = qualname.rsplit(".", 1)[-1]
        self.__doc__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CachedFigure {self.figure_id} -> {self.module}.{self.qualname}>"

