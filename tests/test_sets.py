"""Unit tests for WaySet invariants and the slotted hot-path records.

The fast-path inlining in :mod:`repro.cache.hierarchy` and
:mod:`repro.cache.llc` manipulates ``WaySet.slots``/``WaySet.index``
directly, so these invariants are what that code relies on.
"""

import pytest

from repro.cache.line import LlcLine, MlcLine
from repro.cache.sets import WaySet
from repro.telemetry.counters import COUNTER_FIELDS, StreamCounters


def _line(addr, way=0):
    return LlcLine(addr=addr, stream="s", way=way)


# -- WaySet ----------------------------------------------------------------


def test_install_lookup_remove_round_trip():
    ws = WaySet(4)
    line = _line(0x10)
    ws.install(line, 2)
    assert line.way == 2
    assert ws.slots[2] is line
    assert ws.lookup(0x10) is line
    ws.remove(line)
    assert ws.slots[2] is None
    assert ws.lookup(0x10) is None
    assert list(ws.occupants()) == []


def test_install_into_occupied_way_raises():
    ws = WaySet(2)
    ws.install(_line(0x10), 1)
    with pytest.raises(ValueError):
        ws.install(_line(0x20), 1)


def test_remove_nonresident_line_raises():
    ws = WaySet(2)
    ws.install(_line(0x10), 0)
    stranger = _line(0x20, way=0)  # claims way 0 but was never installed
    with pytest.raises(ValueError):
        ws.remove(stranger)


def test_index_tracks_slots_exactly():
    ws = WaySet(8)
    lines = [_line(0x100 + i) for i in range(5)]
    for i, line in enumerate(lines):
        ws.install(line, i)
    assert set(ws.index) == {line.addr for line in lines}
    assert list(ws.occupants()) == lines
    ws.remove(lines[2])
    assert 0x102 not in ws.index
    assert sum(1 for _ in ws.occupants()) == 4
    # Remaining lines still resident where they claim to be.
    for line in ws.occupants():
        assert ws.slots[line.way] is line
        assert ws.index[line.addr] is line


def test_reinstall_after_remove():
    ws = WaySet(2)
    line = _line(0x10)
    ws.install(line, 0)
    ws.remove(line)
    ws.install(line, 1)
    assert line.way == 1
    assert ws.lookup(0x10) is line


# -- closed __slots__ records ----------------------------------------------


@pytest.mark.parametrize(
    "instance",
    [
        MlcLine(addr=1, stream="s"),
        LlcLine(addr=1, stream="s", way=0),
        WaySet(2),
    ],
    ids=["MlcLine", "LlcLine", "WaySet"],
)
def test_slotted_classes_reject_new_attributes(instance):
    with pytest.raises(AttributeError):
        instance.bogus_attribute = 1


def test_llc_line_inclusive_follows_holders():
    line = LlcLine(addr=1, stream="s", way=0)
    assert not line.inclusive
    line.holders |= 1 << 3
    assert line.inclusive


# -- StreamCounters snapshot/delta -----------------------------------------


def test_snapshot_delta_round_trip():
    counters = StreamCounters()
    counters.llc_hits = 7
    counters.dma_writes = 3
    snap = counters.snapshot()
    assert snap is not counters
    assert snap == counters
    counters.llc_hits += 5
    counters.mem_reads += 2
    assert snap.llc_hits == 7  # snapshot is an independent copy
    diff = counters.delta(snap)
    assert diff.llc_hits == 5
    assert diff.mem_reads == 2
    assert diff.dma_writes == 0
    # Every field participates: snapshot + delta reconstructs the current
    # values exactly.
    for name in COUNTER_FIELDS:
        assert getattr(snap, name) + getattr(diff, name) == getattr(
            counters, name
        )


def test_counters_are_slotted():
    counters = StreamCounters()
    with pytest.raises(AttributeError):
        counters.bogus_counter = 1
