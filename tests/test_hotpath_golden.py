"""Golden lock on the cache hot path: exact outputs pinned by digest.

The parity tests prove bursts and their lines issued one by one agree
with each other; these tests prove neither has drifted from the recorded
behaviour.  Each
case hashes a canonical dump of a finished run, so any change to any
counter, recency order, line placement or latency statistic fails here —
which is the point: a performance change to ``cache/hierarchy.py`` must
leave every digest untouched.  A change that alters results on purpose
must update the digests and say why.

Two kinds of run are pinned:

* fixed randomized op streams (the parity suite's generator) driven
  through small hierarchies of every platform preset, of every
  replacement policy, of the behavioural ablations and of a directory
  small enough to overflow,
  once as issued ("batched") and once with every
  burst, quantum and run split into single-line calls ("scalar");
* the epoch samples of Fig. 11's a4 / 1024 B cell (DPDK-T, FIO and
  X-Mem 1-3 under A4), 3 epochs with 1 warm-up, at two seeds;
* the epoch samples of a seeded 6-tenant population under A4 (the
  phased tenant loop, with per-access latency recording), 3 epochs with
  1 warm-up, at two seeds;
* the epoch samples of the I/O variants Fig. 11's cell never runs — the
  DPDK-NT and forwarding consumers, FIO's buffered copy, a NIC port with
  DCA off, the write-update ablation, an SRRIP LLC, and a manager-less
  DPDK + FIO server under interval sampling (whose skips shift ring and
  NVMe command timestamps) — 3 epochs with 1 warm-up (the sampled run:
  8 epochs, half of them skipped), at two seeds;
* the epoch samples of a Redis-S/C pair, the one workload whose lines
  (the request/response mailbox) are held by two cores' MLCs at once,
  3 epochs with 1 warm-up, at two seeds;
* the epoch samples of each replacement policy's run in the
  ``ablation-replacement`` figure, at its quick length.
"""

import hashlib
import json
import random
from dataclasses import astuple

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.cache.llc import LlcConfig
from repro.experiments.figures.ablation import _bloat_scenario
from repro.experiments.figures.base import run_setup
from repro.experiments.harness import Server
from repro.experiments.scenarios import build_server, microbenchmark_workloads
from repro.experiments.tenants import build_tenant_server
from repro.platform import CASCADELAKE_SP, ICELAKE_SP, SKYLAKE_SP
from repro.sim.sampling import SamplingPlan
from repro.telemetry.counters import COUNTER_FIELDS
from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW
from repro.workloads.dpdk import DpdkWorkload
from repro.workloads.fio import FioWorkload
from repro.workloads.redis import redis_pair
from tests.test_batch_parity import make_ops, run_once


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _state_digest(state) -> str:
    state = dict(state)
    state["counters"] = {
        name: astuple(counters) for name, counters in state["counters"].items()
    }
    return _digest(state)


# case -> (preset, LLC overrides, hierarchy overrides, op-stream seed)
OP_STREAM_CASES = {
    "skylake-sp": (SKYLAKE_SP, {}, {}, 101),
    "icelake-sp": (ICELAKE_SP, {}, {}, 102),
    "cascadelake-sp": (CASCADELAKE_SP, {}, {}, 103),
    "srrip": (SKYLAKE_SP, {"replacement": "srrip"}, {}, 104),
    "no-migration": (SKYLAKE_SP, {"inclusive_migration": False}, {}, 105),
    "self-invalidate": (
        SKYLAKE_SP, {}, {"self_invalidate_consumed": True}, 106
    ),
    "no-write-update": (SKYLAKE_SP, {}, {"ddio_write_update": False}, 107),
    "prefetch": (SKYLAKE_SP, {}, {"next_line_prefetch": True}, 108),
    # Three directory ways per set: the extended directory overflows and
    # back-invalidates MLCs (about 20 times over the stream).
    "small-directory": (SKYLAKE_SP, {}, {"ext_dir_ways": 3}, 109),
    "nru": (SKYLAKE_SP, {"replacement": "nru"}, {}, 110),
    "brrip": (SKYLAKE_SP, {"replacement": "brrip"}, {}, 111),
    "deadblock": (SKYLAKE_SP, {"replacement": "deadblock"}, {}, 112),
}

OP_STREAM_GOLDENS = {
    "skylake-sp":
        "7bdb63d6baab3a9ecaaca105bb8a1e75ad02c3d728162f9420d3b8507d364f7c",
    "icelake-sp":
        "ea296b835bc1baee76f9bc14eb2c3e767331ddb21b048b7addf5a1cf87a898ca",
    "cascadelake-sp":
        "cd510c8a8c18ec5215f043135feb8113f795e9b7b8cd186e3e33f0965eb949f6",
    "srrip":
        "138947a3c60737d608228221675603bfb92c3e035f115ce570741bf331f75da1",
    "no-migration":
        "9362b4aab3d1aaeb6074e32e198ee67079f629f0754a7d6f6cfa8d4285d9b58a",
    "self-invalidate":
        "275cf45df12d3b79b46cbb1bcc5954afc39fb92bc320f9ba96ae618d73008845",
    "no-write-update":
        "5bd183e96e256feeebb1dba572d48fb70f9c22b1d5a8f5c2f4c34e1be7afdb54",
    "prefetch":
        "9ae248fa1086ab77b94928893c4275a69a5d6976eaba5a051ff480001e1395cb",
    "small-directory":
        "568dd794cd8659f7fdfe0b54c3a96c9172e3997b3ae27c07ae01ba5203e9ec24",
    "nru":
        "a00e888acefb719d81dc2298504444e8ea89ffa49545dee5f025d917ef24c187",
    "brrip":
        "e3efdb59243ec269bd842fb777ad55c57d643202855b034e48d7b5fe903d6694",
    "deadblock":
        "4ccacf4329dd100503eca318fe0ff83c15995af85b0192547707bcf43ff1cb5d",
}


@pytest.mark.parametrize("case", sorted(OP_STREAM_CASES))
@pytest.mark.parametrize("per_line", [True, False], ids=["scalar", "batched"])
def test_op_stream_golden(case, per_line):
    spec, llc_overrides, overrides, seed = OP_STREAM_CASES[case]
    ops = make_ops(random.Random(seed), nops=300)
    state, _ = run_once(spec, ops, per_line, llc_overrides, **overrides)
    assert _state_digest(state) == OP_STREAM_GOLDENS[case]


def sample_digest(samples) -> str:
    """SHA-256 of the canonicalized epoch samples: every counter, latency
    statistic and memory count, streams in name order, floats exact."""
    canon = []
    for sample in samples:
        streams = []
        for name in sorted(sample.streams):
            stream = sample.streams[name]
            lat = stream.latency
            streams.append(
                [
                    name,
                    [getattr(stream.counters, f) for f in COUNTER_FIELDS],
                    [lat.count, lat.mean, lat.p50, lat.p99,
                     sorted(lat.components.items())],
                ]
            )
        canon.append(
            [sample.index, sample.time, sample.epoch_cycles,
             sample.mem_read_lines, sample.mem_write_lines, streams]
        )
    text = json.dumps(canon, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


FIG11_GOLDENS = {
    0xA4: "9e79b2bce14f52df948900a5fcfa0cef2ef14de7d37ae4c3f19cfa8f0c882a1c",
    0x5EED: "9263a312567e6a6424f6846ad8a1a09cbb1ee0d41da2cfc49452fbc43b665cae",
}


@pytest.mark.parametrize("seed", sorted(FIG11_GOLDENS), ids=hex)
def test_fig11_cell_golden(seed):
    server = build_server(
        microbenchmark_workloads(packet_bytes=1024), scheme="a4", seed=seed
    )
    result = server.run(epochs=3, warmup=1)
    assert sample_digest(result.samples) == FIG11_GOLDENS[seed]


TENANT_GOLDENS = {
    0xA4: "e254d7ef2b729f6437de2988f5262f34a8a3aac7c923304031a695154252ec40",
    0x5EED: "76dd7fadfdf17e5ed22f8956ec4e7a9e5c409798ef7eff578f0c1efa60998630",
}


@pytest.mark.parametrize("seed", sorted(TENANT_GOLDENS), ids=hex)
def test_tenant_population_golden(seed):
    server = build_tenant_server(6, scheme="a4", seed=seed)
    result = server.run(epochs=3, warmup=1)
    assert sample_digest(result.samples) == TENANT_GOLDENS[seed]


def _dpdk_fio(dpdk=None, fio=None):
    """A small DPDK-T + FIO pair; ``dpdk``/``fio`` override their knobs."""
    return [
        DpdkWorkload(
            **{"name": "dpdk", "touch": True, "cores": 2,
               "packet_bytes": 1024, "priority": PRIORITY_HIGH,
               **(dpdk or {})}
        ),
        FioWorkload(
            **{"name": "fio", "block_bytes": 256 * 1024, "cores": 2,
               "io_depth": 8, "priority": PRIORITY_LOW, **(fio or {})}
        ),
    ]


def _io_server(seed, workloads, **hierarchy):
    """A manager-less server; ``hierarchy`` overrides HierarchyConfig."""
    cfg = (
        HierarchyConfig.for_platform(SKYLAKE_SP, **hierarchy)
        if hierarchy else None
    )
    server = Server(cores=6, seed=seed, hierarchy_cfg=cfg)
    server.add_workloads(workloads)
    return server


def _run_io(seed, workloads, **hierarchy):
    return _io_server(seed, workloads, **hierarchy).run(epochs=3, warmup=1)


IO_VARIANTS = {
    "dpdk-nt": lambda seed: _run_io(seed, _dpdk_fio(dpdk={"touch": False})),
    "dpdk-forward": lambda seed: _run_io(
        seed, _dpdk_fio(dpdk={"forward": True})
    ),
    "fio-buffered": lambda seed: _run_io(
        seed, _dpdk_fio(fio={"io_mode": "buffered"})
    ),
    "nic-dca-off": lambda seed: run_setup(
        _dpdk_fio(), dca_off=("dpdk",), epochs=3, warmup=1, seed=seed
    ),
    "no-write-update": lambda seed: _run_io(
        seed, _dpdk_fio(), ddio_write_update=False
    ),
    "srrip": lambda seed: _run_io(
        seed, _dpdk_fio(),
        llc=LlcConfig.for_platform(SKYLAKE_SP, replacement="srrip"),
    ),
    "sampled": lambda seed: _io_server(seed, _dpdk_fio()).run(
        epochs=8, warmup=1,
        sampling=SamplingPlan(stability_window=2, max_skip=4),
    ),
}

IO_VARIANT_GOLDENS = {
    ("dpdk-forward", 0xA4):
        "c29641f6a7e0968d8671b1890981a4a209c8bc9fd682213ad46eb0c179b1563a",
    ("dpdk-forward", 0x5EED):
        "a55a6e6f1eb58c5ad33c0a81e0afe3954d97fd89a1e13876c8d2e990e4c9cd5e",
    ("dpdk-nt", 0xA4):
        "d18ebbe4de327e4b84ebc1feed7afd507bceb3fb00df7feba2eef07353d6559d",
    ("dpdk-nt", 0x5EED):
        "80e1dbb1bfb146022135c75180f1a63fd76864c95f99f36a75414621437f9992",
    ("fio-buffered", 0xA4):
        "9e2138522e59ea220e518a985025212f5297a1273110e8fc558ce6ddb8f1e3b1",
    ("fio-buffered", 0x5EED):
        "ded7b346438b3905b3a59244ba4b3fb62033d3a2b7a0f549dd1c95f009661c53",
    ("nic-dca-off", 0xA4):
        "7f41222969ce29d71c4a653bfedad88c2c34cc6096cefdab4b39da50ddb0e3ed",
    ("nic-dca-off", 0x5EED):
        "dfec8270eb11b710c516b8a25bc4cc33821d747b78fb788b47ab5ef494ff17c2",
    ("no-write-update", 0xA4):
        "61e94ff835cb48cbca0962b9459d2a78a3437266fd67ca1d2dd94fd751c48599",
    ("no-write-update", 0x5EED):
        "1e6e7e677c50a527f12d81adf1e61e05b72e8b9316a0039135987f8b93c785e3",
    ("sampled", 0xA4):
        "742b1268249304bd1c1e2082b093e0b44049ccb93f593a298f733a78609e242a",
    ("sampled", 0x5EED):
        "5f82aaf89d0ddc7d5e9228d72d825b614bc96c3af1fcd21e286115d2c3a287af",
    ("srrip", 0xA4):
        "05f1aa708941d3f9f6d279ada8786f2b017dd5795fe54af9d7f669e75ec85790",
    ("srrip", 0x5EED):
        "94fb1f15e7ed888959b763cc84ed66cbb7f439549c7864921ad60d39b4b48f62",
}


@pytest.mark.parametrize("seed", [0xA4, 0x5EED], ids=hex)
@pytest.mark.parametrize("variant", sorted(IO_VARIANTS))
def test_io_variant_golden(variant, seed):
    result = IO_VARIANTS[variant](seed)
    if variant == "sampled":
        assert result.sampling.skipped_epochs > 0  # the skips shift time
    assert sample_digest(result.samples) == IO_VARIANT_GOLDENS[(variant, seed)]


SHARED_LINE_GOLDENS = {
    0xA4: "71a3cce05f746bcf8338721b4f29db14dcdbbd7028c767a725e703b927a3e985",
    0x5EED: "f94b78567d757fe270cb65010ab38b5c0954cdd9839c9bec27e55c3b3385a837",
}


@pytest.mark.parametrize("seed", sorted(SHARED_LINE_GOLDENS), ids=hex)
def test_shared_line_golden(seed):
    server = Server(cores=2, seed=seed)
    server.add_workloads(list(redis_pair()))
    result = server.run(epochs=3, warmup=1)
    assert sample_digest(result.samples) == SHARED_LINE_GOLDENS[seed]


REPLACEMENT_GOLDENS = {
    "lru": "4189d9f6ebf51f29abaed18322db3bfd3dae568c9e9d18c6d2080d70c79ec867",
    "nru": "88f6ee6713a509d1e094dd068f3f6322bb681bb93a93cd43866f496641b83405",
    "srrip": "2cc95516dba972c9f094c1aabd73a168c35943b9d5924ff6794089a16bac1efb",
    "brrip": "428ab3c3e012b069001c1d9aed5b70787775b9dfad4602bdd9fc76c88d1f974b",
    "deadblock":
        "ac2aa57cc982f4695c0db170473c8f0dfe31f8fd5a3b0b0536e0225897e77d3e",
}


@pytest.mark.parametrize("policy", sorted(REPLACEMENT_GOLDENS))
def test_replacement_ablation_golden(policy):
    """Each policy's run in the ``ablation-replacement`` figure at its
    quick length (5 epochs, 2 warm-up, seed 0xA4)."""
    cfg = HierarchyConfig(llc=LlcConfig(replacement=policy))
    result = _bloat_scenario(cfg, (5, 6), epochs=5, seed=0xA4)
    assert sample_digest(result.samples) == REPLACEMENT_GOLDENS[policy]
