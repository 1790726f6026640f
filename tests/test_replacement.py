"""Tests for the pluggable LLC replacement policies."""

import pytest

from repro.cache.line import LlcLine
from repro.cache.llc import LastLevelCache, LlcConfig
from repro.cache.replacement import (
    BrripPolicy,
    DeadBlockHintPolicy,
    LruPolicy,
    NruPolicy,
    SrripPolicy,
    make_policy,
)
from repro.cache.sets import WaySet

ALL = (0, 1, 2, 3)


def fill_set(n, ways=4):
    """A set whose ways 0..n-1 hold lines 0..n-1, filled in that order."""
    wayset = WaySet(ways)
    lines = []
    for i in range(n):
        line = LlcLine(addr=i, stream="s", way=i)
        wayset.slots[i] = line
        wayset.index[i] = line
        lines.append(line)
    return wayset, lines


def test_factory():
    assert isinstance(make_policy("lru"), LruPolicy)
    assert isinstance(make_policy("srrip"), SrripPolicy)
    assert isinstance(make_policy("brrip"), BrripPolicy)
    assert isinstance(make_policy("nru"), NruPolicy)
    with pytest.raises(ValueError):
        make_policy("plru")


def test_empty_way_always_preferred():
    for name in ("lru", "srrip", "brrip", "nru"):
        policy = make_policy(name)
        wayset, lines = fill_set(2, ways=4)
        for line in lines:
            policy.on_fill(line)
        assert policy.victim_way(wayset, allowed=ALL) in (2, 3)


def test_victim_respects_allowed_set():
    for name in ("lru", "srrip", "brrip", "nru"):
        policy = make_policy(name)
        wayset, lines = fill_set(4, ways=4)
        for line in lines:
            policy.on_fill(line)
        assert policy.victim_way(wayset, allowed=(1, 2)) in (1, 2)


def test_no_candidates_raises():
    for name in ("lru", "srrip", "nru"):
        policy = make_policy(name)
        wayset, _ = fill_set(2)
        with pytest.raises(ValueError):
            policy.victim_way(wayset, allowed=())


def test_lru_evicts_least_recent():
    policy = LruPolicy()
    wayset, lines = fill_set(4)
    for line in lines:
        policy.on_fill(line)
    policy.on_hit(wayset, lines[0])
    assert policy.victim_way(wayset, allowed=ALL) == 1


def test_lru_victim_follows_key_order():
    """The victim is the first line in key order whose way is allowed, not
    the lowest allowed way; a hit makes a line the most recent."""
    policy = LruPolicy()
    wayset = WaySet(4)
    lines = [LlcLine(addr=way, stream="s", way=way) for way in range(4)]
    for way in (2, 0, 3, 1):
        wayset.slots[way] = wayset.index[way] = lines[way]
    assert policy.victim_way(wayset, allowed=ALL) == 2
    assert policy.victim_way(wayset, allowed=(1, 3)) == 3
    policy.on_hit(wayset, lines[2])
    assert list(wayset.index) == [0, 3, 1, 2]
    assert policy.victim_way(wayset, allowed=(1, 2)) == 1


def test_srrip_protects_rereferenced_lines():
    policy = SrripPolicy()
    wayset, lines = fill_set(4)
    for line in lines:
        policy.on_fill(line)
    policy.on_hit(wayset, lines[2])  # rrpv -> 0
    victim = policy.victim_way(wayset, allowed=ALL)
    assert victim != 2


def test_srrip_ages_until_distant_line_exists():
    policy = SrripPolicy()
    wayset, lines = fill_set(4)
    for line in lines:
        policy.on_fill(line)
        policy.on_hit(wayset, line)  # all rrpv 0
    victim = policy.victim_way(wayset, allowed=ALL)
    assert victim in range(4)
    # Ageing must have raised everyone to max rrpv.
    assert all(line.meta["rrpv"] == policy.max_rrpv for line in lines)


def test_brrip_mostly_inserts_distant():
    policy = BrripPolicy(long_interval=32)
    _, lines = fill_set(4)
    distant = 0
    for line in lines:
        policy.on_fill(line)
        if line.meta["rrpv"] == policy.max_rrpv:
            distant += 1
    assert distant >= 3


def test_nru_clears_bits_when_all_recent():
    policy = NruPolicy()
    wayset, lines = fill_set(4)
    for line in lines:
        policy.on_fill(line)
    victim = policy.victim_way(wayset, allowed=ALL)
    assert victim == 0  # all recent -> bits cleared, first candidate
    # Bits cleared for everyone else now.
    assert all(line.meta["nru"] == 0 for line in lines)


def test_deadblock_marks_consumed_io_lines_distant():
    policy = DeadBlockHintPolicy()
    dead = LlcLine(addr=0, stream="io", way=0, io=True, consumed=True)
    live = LlcLine(addr=1, stream="app", way=1)
    policy.on_fill(dead)
    policy.on_fill(live)
    assert dead.meta["rrpv"] == policy.max_rrpv
    assert live.meta["rrpv"] == policy.max_rrpv - 1


def test_deadblock_evicts_bloat_before_live_lines():
    policy = DeadBlockHintPolicy()
    wayset, live = fill_set(3)
    for line in live:
        policy.on_fill(line)
    bloat = LlcLine(addr=9, stream="io", way=3, io=True, consumed=True)
    policy.on_fill(bloat)
    wayset.slots[3] = bloat
    wayset.index[9] = bloat
    assert policy.victim_way(wayset, allowed=ALL) == 3


def test_deadblock_available_from_factory():
    assert isinstance(make_policy("deadblock"), DeadBlockHintPolicy)


def test_rrip_validation():
    with pytest.raises(ValueError):
        SrripPolicy(max_rrpv=0)
    with pytest.raises(ValueError):
        BrripPolicy(long_interval=0)


def test_llc_config_selects_policy():
    llc = LastLevelCache(LlcConfig(sets=4, replacement="srrip"))
    assert isinstance(llc.policy, SrripPolicy)
    with pytest.raises(ValueError):
        LastLevelCache(LlcConfig(sets=4, replacement="bogus"))


def test_srrip_resists_streaming_better_than_lru():
    """A small reused set + a large stream: SRRIP keeps the reused lines."""

    def run(policy_name):
        llc = LastLevelCache(LlcConfig(sets=1, replacement=policy_name))
        hot = []
        for i in range(4):
            line, _ = llc.allocate(i, "hot", allowed_ways=range(11))
            hot.append(i)
        hits = 0
        stream_addr = 1000
        for round_ in range(60):
            for addr in hot:
                if llc.lookup(addr) is not None:
                    hits += 1
                else:
                    llc.allocate(addr, "hot", allowed_ways=range(11))
            for _ in range(8):  # streaming pressure, never re-referenced
                if llc.lookup(stream_addr) is None:
                    llc.allocate(stream_addr, "cold", allowed_ways=range(11))
                stream_addr += 1
        return hits

    assert run("srrip") > run("lru")
