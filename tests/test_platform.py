"""PlatformSpec: validation, preset identity, and two specs coexisting in
one process."""

import pytest

from repro.platform import (
    DEFAULT_PLATFORM,
    ICELAKE_SP,
    MAX_CBM_BITS,
    SKYLAKE_SP,
    PlatformSpec,
    custom,
    get_platform,
)


# -- validation -------------------------------------------------------------


def test_overlapping_dca_and_inclusive_ways_rejected():
    with pytest.raises(ValueError, match="overlap"):
        PlatformSpec(
            name="bad", llc_ways=5, dca_ways=(0, 1, 2), inclusive_ways=(2, 3, 4)
        )


def test_zero_standard_ways_rejected():
    with pytest.raises(ValueError, match="standard ways"):
        PlatformSpec(
            name="bad", llc_ways=4, dca_ways=(0, 1), inclusive_ways=(2, 3)
        )


def test_llc_ways_capped_by_cbm_width():
    too_many = MAX_CBM_BITS + 1
    with pytest.raises(ValueError, match="CBM"):
        PlatformSpec(
            name="bad",
            llc_ways=too_many,
            inclusive_ways=(too_many - 2, too_many - 1),
        )


def test_dca_ways_must_be_leftmost_and_contiguous():
    with pytest.raises(ValueError, match="way 0"):
        PlatformSpec(name="bad", dca_ways=(1, 2))
    with pytest.raises(ValueError, match="contiguous"):
        PlatformSpec(name="bad", llc_ways=11, dca_ways=(0, 2))


def test_inclusive_ways_must_be_rightmost():
    with pytest.raises(ValueError, match="last way"):
        PlatformSpec(name="bad", llc_ways=11, inclusive_ways=(8, 9))


def test_extended_directory_must_cover_inclusive_ways():
    with pytest.raises(ValueError, match="extended_dir_ways"):
        PlatformSpec(name="bad", extended_dir_ways=1)


# -- capacity helpers: parity with the old free functions -------------------
#
# The expected values are what the module-level ``lines_for_paper_bytes``,
# ``packet_lines`` and ``CAPACITY_SCALE`` returned before the platform
# became an explicit value; the skylake-sp preset must keep reproducing them.


def test_lines_for_paper_bytes_matches_old_free_function():
    sizes = (1, 4096, 4 * 1024 * 1024, 25 * 1024 * 1024)
    assert [SKYLAKE_SP.lines_for_paper_bytes(b) for b in sizes] == [
        1, 1, 451, 2816,
    ]
    assert SKYLAKE_SP.lines_for_paper_bytes(1, minimum=7) == 7


def test_packet_lines_matches_old_free_function():
    sizes = (1, 64, 65, 256, 1024, 1514)
    assert [SKYLAKE_SP.packet_lines(b) for b in sizes] == [1, 1, 2, 4, 16, 24]


def test_capacity_scale_bitwise_equal_to_old_constant():
    assert SKYLAKE_SP.capacity_scale == 0.006875000786781401


# -- registry / derivation --------------------------------------------------


def test_presets_registry_and_default():
    presets = PlatformSpec.presets()
    assert set(presets) == {"skylake-sp", "cascadelake-sp", "icelake-sp"}
    assert presets["skylake-sp"] is SKYLAKE_SP
    assert DEFAULT_PLATFORM is SKYLAKE_SP
    assert get_platform(None) is SKYLAKE_SP
    assert get_platform(ICELAKE_SP) is ICELAKE_SP


def test_get_platform_dca_variant_suffix():
    spec = get_platform("skylake-sp+dca3")
    assert spec.dca_ways == (0, 1, 2)
    assert spec.name == "skylake-sp+dca3"
    assert spec.standard_ways == tuple(range(3, 9))
    with pytest.raises(KeyError):
        get_platform("no-such-part")
    with pytest.raises(ValueError):
        get_platform("skylake-sp+dca10")  # would swallow the inclusive ways


def test_custom_builder_and_fingerprint_identity():
    spec = custom(llc_sets=512)
    assert spec.name == "skylake-sp+custom"
    assert spec.llc_way_lines == 512
    assert spec.fingerprint()["sha"] != SKYLAKE_SP.fingerprint()["sha"]
    assert SKYLAKE_SP.fingerprint()["sha"] == SKYLAKE_SP.fingerprint()["sha"]
    assert "@" in spec.token


# -- two specs in one process ----------------------------------------------


def test_two_servers_with_different_specs_side_by_side():
    from repro.experiments.harness import Server
    from repro.workloads.xmem import xmem

    servers = {}
    for name in ("skylake-sp", "icelake-sp"):
        platform = get_platform(name)
        server = Server(cores=4, seed=0xA4, platform=platform)
        server.add_workload(
            xmem("xmem", 4.0, cores=2, platform=platform)
        )
        servers[name] = server

    sky, ice = servers["skylake-sp"], servers["icelake-sp"]
    # Distinct geometry everywhere, no shared module-level state.
    assert sky.cat.ways == 11 and ice.cat.ways == 12
    assert sky.hierarchy.llc.cfg.ways == 11
    assert ice.hierarchy.llc.cfg.ways == 12
    assert sky.hierarchy.sf.ways == 12 and ice.hierarchy.sf.ways == 16
    assert sky.hierarchy.mlcs[0].sets == 32
    assert ice.hierarchy.mlcs[0].sets == 40
    assert ice.hierarchy.llc.cfg.inclusive_ways == (10, 11)

    # Both run in the same process, interleaved, without contaminating
    # each other.
    runs = {name: s.run(epochs=3, warmup=1) for name, s in servers.items()}
    for name, run in runs.items():
        assert run.aggregate("xmem").ipc > 0, name
    assert sky.platform.name == "skylake-sp"
    assert ice.platform.name == "icelake-sp"
