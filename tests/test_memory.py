"""Tests for the memory controller: accounting and contention latency."""

import pytest

from repro.telemetry.counters import CounterBank
from repro.uncore.memory import MemoryController


def test_traffic_attribution():
    bank = CounterBank()
    mem = MemoryController(bank)
    mem.read(0.0, 3, "a")
    mem.write(0.0, 2, "b")
    assert bank.stream("a").mem_reads == 3
    assert bank.stream("b").mem_writes == 2
    assert bank.stream("a").mem_writes == bank.stream("b").mem_reads == 0


def test_idle_latency_is_base():
    mem = MemoryController(CounterBank(), base_latency=200.0)
    assert mem.access_latency() == 200.0


def test_latency_grows_under_load():
    bank = CounterBank()
    mem = MemoryController(
        bank, bandwidth_lines_per_cycle=1.0, base_latency=200.0, window_cycles=100.0
    )
    # Saturate several windows.
    for t in range(0, 2000, 10):
        mem.read(float(t), 10, "hog")
    assert mem.utilization > 0.5
    assert mem.access_latency() > 200.0


def test_utilization_decays_when_idle():
    bank = CounterBank()
    mem = MemoryController(
        bank, bandwidth_lines_per_cycle=1.0, base_latency=200.0, window_cycles=100.0
    )
    for t in range(0, 1000, 10):
        mem.read(float(t), 10, "hog")
    high = mem.utilization
    # Long quiet period, then one transfer to roll the window.
    mem.read(10_000.0, 1, "hog")
    mem.read(20_000.0, 1, "hog")
    assert mem.utilization < high


def test_bandwidth_must_be_positive():
    with pytest.raises(ValueError):
        MemoryController(CounterBank(), bandwidth_lines_per_cycle=0.0)


def test_latency_bounded_even_when_saturated():
    bank = CounterBank()
    mem = MemoryController(
        bank, bandwidth_lines_per_cycle=0.1, base_latency=200.0, window_cycles=50.0
    )
    for t in range(0, 5000, 5):
        mem.write(float(t), 50, "hog")
    # rho is clamped, so latency stays finite and sane.
    assert mem.access_latency() < 200.0 * 10
