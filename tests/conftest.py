"""Shared fixtures: a small cache hierarchy and its supporting pieces,
plus run-cache isolation so tests never touch the repo's `.repro-cache/`."""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.llc import LlcConfig
from repro.rdt.cat import CacheAllocation
from repro.telemetry.counters import CounterBank
from repro.uncore.iio import IIOAgent
from repro.uncore.memory import MemoryController
from repro.uncore.pcie import PcieComplex


@pytest.fixture(autouse=True)
def _isolated_run_cache(tmp_path, monkeypatch):
    """Point the content-addressed run cache at a per-test temp dir.

    Keeps test runs from writing into the repository and from observing
    entries another test (or a real figure run) stored."""
    from repro.experiments import runcache

    monkeypatch.setenv(runcache.ENV_CACHE_DIR, str(tmp_path / "repro-cache"))
    monkeypatch.delenv(runcache.ENV_CACHE_DISABLE, raising=False)
    runcache.set_cache(None)  # re-init from env on next use
    yield
    runcache.set_cache(None)


@pytest.fixture(autouse=True)
def _obsv_off():
    """Leave the observability layer off.

    Tests that enable tracing must not leak a live tracer into the next
    test — the layer is process-global by design."""
    from repro import obsv

    yield
    obsv.disable()


@pytest.fixture
def bank() -> CounterBank:
    return CounterBank()


@pytest.fixture
def cat() -> CacheAllocation:
    return CacheAllocation()


@pytest.fixture
def memory(bank) -> MemoryController:
    return MemoryController(bank)


@pytest.fixture
def hierarchy(bank, cat, memory) -> CacheHierarchy:
    return CacheHierarchy(HierarchyConfig(cores=4), cat, memory, bank)


@pytest.fixture
def small_hierarchy(bank, cat, memory) -> CacheHierarchy:
    """A tiny geometry for exhaustive state checks: 8 sets, 11 ways."""
    cfg = HierarchyConfig(
        cores=2,
        llc=LlcConfig(sets=8),
        mlc_sets=2,
        mlc_ways=2,
    )
    return CacheHierarchy(cfg, cat, memory, bank)


@pytest.fixture
def pcie(bank) -> PcieComplex:
    return PcieComplex(bank)


@pytest.fixture
def iio(hierarchy) -> IIOAgent:
    return IIOAgent(hierarchy)
