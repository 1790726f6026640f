"""Tests for the content-addressed run cache.

Covers the ISSUE-2 keying contract: identical config+seed hits; any field,
seed, or code-salt change misses; a corrupted entry falls back to a
re-run.  Plus the figure-level wrapper: a warm second invocation does zero
simulation work and returns results identical to the first.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.experiments import runcache
from repro.experiments.figures import REGISTRY
from repro.experiments.figures.base import run_setup
from repro.experiments.runcache import (
    CachedFigure,
    CachedServer,
    CacheStats,
    RunCache,
    fingerprint,
)
from repro.workloads.xmem import xmem


def _cache(tmp_path) -> RunCache:
    return RunCache(root=tmp_path / "cache")


# -- fingerprinting --------------------------------------------------------


def test_fingerprint_stable_for_equal_payloads():
    a = fingerprint(("run", {"x": 1, "y": [2.0, 3]}, 0xA4))
    b = fingerprint(("run", {"y": [2.0, 3], "x": 1}, 0xA4))  # dict order
    assert a == b


def test_fingerprint_changes_on_any_field():
    base = ("run_setup", {"epochs": 8, "warmup": 2}, 0xA4)
    key = fingerprint(base)
    assert fingerprint(("run_setup", {"epochs": 9, "warmup": 2}, 0xA4)) != key
    assert fingerprint(("run_setup", {"epochs": 8, "warmup": 3}, 0xA4)) != key
    assert fingerprint(("run_setup", {"epochs": 8, "warmup": 2}, 0xA5)) != key


def test_fingerprint_changes_with_code_salt(monkeypatch):
    key = fingerprint("payload")
    monkeypatch.setattr(runcache, "_code_salt", "deadbeef")
    assert fingerprint("payload") != key


def test_fingerprint_distinguishes_workload_configs():
    a = fingerprint(xmem("a", 2.0, cores=1, pattern="rand"))
    same = fingerprint(xmem("a", 2.0, cores=1, pattern="rand"))
    other = fingerprint(xmem("a", 2.5, cores=1, pattern="rand"))
    assert a == same
    assert a != other


def test_callable_token_tracks_code_changes():
    def f(x):
        return x + 1

    def g(x):
        return x + 2

    def f2(x):
        return x + 1

    tok_f = runcache.callable_token(f)
    tok_g = runcache.callable_token(g)
    assert tok_f[-1] != tok_g[-1]  # different consts -> different hash
    assert runcache.callable_token(f2)[-1] == tok_f[-1]


def test_callable_token_stable_across_compilations():
    # Functions with nested code objects must hash by content, not by the
    # inner code object's repr (which embeds a memory address and would
    # break warm cache hits across interpreter runs).
    src = "def outer():\n    def inner(x):\n        return x + 1\n    return inner\n"
    ns1, ns2 = {}, {}
    exec(compile(src, "<m1>", "exec"), ns1)
    exec(compile(src, "<m2>", "exec"), ns2)
    assert runcache.callable_token(ns1["outer"]) == runcache.callable_token(ns2["outer"])


# -- the store -------------------------------------------------------------


def test_memo_hits_on_second_call(tmp_path):
    cache = _cache(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return {"value": 42}

    first = cache.memo(("k", 1), compute)
    second = cache.memo(("k", 1), compute)
    assert first == second == {"value": 42}
    assert len(calls) == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1


def test_disabled_cache_always_recomputes(tmp_path):
    cache = RunCache(root=tmp_path / "cache", enabled=False)
    calls = []
    for _ in range(2):
        cache.memo("k", lambda: calls.append(1))
    assert len(calls) == 2
    assert cache.stats.hits == 0
    assert not (tmp_path / "cache").exists()


def test_corrupted_entry_falls_back_to_rerun(tmp_path):
    cache = _cache(tmp_path)
    key = fingerprint("payload")
    cache.put(key, "good")
    path = cache._path(key)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is runcache.MISS
    assert cache.stats.errors == 1
    # memo recomputes and overwrites the bad entry.
    assert cache.memo("payload", lambda: "recomputed") == "recomputed"
    assert cache.memo("payload", lambda: "unused") == "recomputed"


def test_schema_skew_treated_as_miss(tmp_path):
    cache = _cache(tmp_path)
    key = fingerprint("payload")
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"schema": -1, "value": "stale"}))
    assert cache.get(key) is runcache.MISS
    assert cache.stats.errors == 1


def test_cached_none_is_distinguished_from_miss(tmp_path):
    cache = _cache(tmp_path)
    key = fingerprint("none-result")
    cache.put(key, None)
    assert cache.get(key) is None
    assert cache.stats.hits == 1


def test_stats_merge_and_summary():
    stats = CacheStats(hits=1, misses=2, stores=3, errors=0)
    stats.merge(CacheStats(hits=10, misses=0, stores=1, errors=4))
    assert (stats.hits, stats.misses, stats.stores, stats.errors) == (11, 2, 4, 4)
    assert "11 hits" in stats.summary()


def test_env_configuration(tmp_path, monkeypatch):
    monkeypatch.setenv(runcache.ENV_CACHE_DIR, str(tmp_path / "envcache"))
    monkeypatch.setenv(runcache.ENV_CACHE_DISABLE, "1")
    runcache.set_cache(None)
    cache = runcache.get_cache()
    assert cache.root == Path(tmp_path / "envcache")
    assert cache.enabled is False
    runcache.set_cache(None)


# -- run_setup caching -----------------------------------------------------


def _workloads():
    return [xmem("a", 2.0, cores=1, pattern="rand")]


def test_run_setup_second_call_is_a_hit_with_identical_aggregates():
    cache = runcache.get_cache()
    cold = run_setup(_workloads(), epochs=3, warmup=1, seed=9)
    assert cache.stats.stores >= 1
    warm = run_setup(_workloads(), epochs=3, warmup=1, seed=9)
    assert cache.stats.hits >= 1
    # The cached result carries a stub server, no live simulation state...
    assert isinstance(warm.server, CachedServer)
    assert warm.server.epoch_cycles == cold.server.epoch_cycles
    # ...and identical samples/aggregates.
    assert warm.samples == cold.samples
    agg_cold = cold.aggregate("a")
    agg_warm = warm.aggregate("a")
    assert agg_warm.ipc == agg_cold.ipc
    assert agg_warm.llc_hit_rate == agg_cold.llc_hit_rate


def test_run_setup_key_sensitive_to_seed_and_masks():
    run_setup(_workloads(), epochs=3, warmup=1, seed=9)
    cache = runcache.get_cache()
    misses = cache.stats.misses
    run_setup(_workloads(), epochs=3, warmup=1, seed=10)
    run_setup(_workloads(), masks={"a": (0, 3)}, epochs=3, warmup=1, seed=9)
    assert cache.stats.misses == misses + 2


# -- figure-level caching --------------------------------------------------


def test_registry_runners_are_cache_wrapped():
    for figure_id, runner in REGISTRY.items():
        assert isinstance(runner, CachedFigure), figure_id
        assert runner.figure_id == figure_id


@pytest.mark.parametrize("figure_id", ["fig8b", "fig3a"])
def test_cached_figure_zero_simulation_on_warm_hit(figure_id):
    from repro.sim import engine as engine_mod

    runner = REGISTRY[figure_id]
    cache = runcache.get_cache()
    cold = runner(epochs=3, seed=5)
    assert cache.stats.stores >= 1 and cache.stats.hits == 0

    # Count every simulated event during the warm call by patching the
    # Simulator entry points would be invasive; instead rely on the cache
    # stats plus a canary: a warm hit must not construct any Simulator.
    constructed = []
    original_init = engine_mod.Simulator.__init__

    def counting_init(self):
        constructed.append(self)
        original_init(self)

    engine_mod.Simulator.__init__ = counting_init
    try:
        warm = runner(epochs=3, seed=5)
    finally:
        engine_mod.Simulator.__init__ = original_init
    assert constructed == []  # zero simulation work
    assert cache.stats.hits >= 1
    assert warm == cold


def test_cached_figure_pickles_and_keeps_identity():
    runner = REGISTRY["fig8b"]
    clone = pickle.loads(pickle.dumps(runner))
    assert clone.figure_id == runner.figure_id
    assert clone.__cache_token__ == runner.__cache_token__


def test_cached_server_rejects_unknown_attributes():
    stub = CachedServer(epoch_cycles=50_000)
    assert stub.epoch_cycles == 50_000
    with pytest.raises(AttributeError):
        stub.manager  # noqa: B018 - attribute access is the assertion


# -- invalid entries degrade to a miss AND are evicted ----------------------


def _mangle(cache: RunCache, key: str, payload: bytes) -> Path:
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return path


def test_truncated_pickle_is_evicted(tmp_path):
    cache = _cache(tmp_path)
    key = fingerprint("payload")
    cache.put(key, "good")
    path = _mangle(cache, key, pickle.dumps({"schema": 1})[:-3])
    assert cache.get(key) is runcache.MISS
    assert cache.stats.errors == 1
    assert not path.exists()  # the bad entry is gone, not just skipped


def test_key_echo_mismatch_is_evicted(tmp_path):
    cache = _cache(tmp_path)
    key = fingerprint("payload")
    wrapper = {
        "schema": runcache.SCHEMA_VERSION,
        "key": fingerprint("other payload"),  # entry landed in wrong slot
        "value": "stale",
    }
    path = _mangle(cache, key, pickle.dumps(wrapper))
    assert cache.get(key) is runcache.MISS
    assert cache.stats.errors == 1
    assert not path.exists()


def test_wrapper_missing_value_is_evicted(tmp_path):
    cache = _cache(tmp_path)
    key = fingerprint("payload")
    path = _mangle(
        cache,
        key,
        pickle.dumps({"schema": runcache.SCHEMA_VERSION, "key": key}),
    )
    assert cache.get(key) is runcache.MISS
    assert not path.exists()


def test_non_dict_wrapper_is_evicted(tmp_path):
    cache = _cache(tmp_path)
    key = fingerprint("payload")
    path = _mangle(cache, key, pickle.dumps(["bare", "value"]))
    assert cache.get(key) is runcache.MISS
    assert not path.exists()


def test_evicted_entry_recomputes_and_reheals(tmp_path):
    cache = _cache(tmp_path)
    key = fingerprint("payload")
    cache.put(key, "good")
    _mangle(cache, key, pickle.dumps({"schema": runcache.SCHEMA_VERSION}))
    assert cache.memo("payload", lambda: "recomputed") == "recomputed"
    # The re-put entry is valid again: next call is a warm hit.
    assert cache.memo("payload", lambda: "unused") == "recomputed"
    assert cache.get(key) == "recomputed"


def test_fault_intensity_env_changes_fingerprint(monkeypatch):
    monkeypatch.delenv(runcache.ENV_FAULT_INTENSITY, raising=False)
    clean = fingerprint("payload")
    monkeypatch.setenv(runcache.ENV_FAULT_INTENSITY, "0.5")
    faulted = fingerprint("payload")
    assert faulted != clean  # faulted results never alias fault-free ones
    monkeypatch.setenv(runcache.ENV_FAULT_INTENSITY, "1.0")
    assert fingerprint("payload") not in (clean, faulted)


def test_stale_schema_entry_is_evicted_on_first_lookup(tmp_path):
    """Schema v5 embedded the tenant spec in workload fingerprints (the
    ``priority`` attribute became a derived property); an entry written
    under any older schema must be a MISS *and* deleted on first lookup,
    not deserialized into the new shape."""
    assert runcache.SCHEMA_VERSION == 5
    cache = _cache(tmp_path)
    key = fingerprint("payload")
    wrapper = {
        "schema": 4,
        "key": key,
        "value": {"samples": [], "warmup": 0, "epoch_cycles": 1.0},
    }
    path = _mangle(cache, key, pickle.dumps(wrapper))
    assert cache.get(key) is runcache.MISS
    assert cache.stats.errors == 1
    assert not path.exists()  # evicted, so the next run re-simulates
