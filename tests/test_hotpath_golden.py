"""Golden lock on the cache hot path: exact outputs pinned by digest.

The parity tests prove batched and scalar dispatch agree with each other;
these tests prove neither has drifted from the recorded behaviour.  Each
case hashes a canonical dump of a finished run, so any change to any
counter, recency tick, line placement or latency statistic fails here —
which is the point: a performance change to ``cache/hierarchy.py`` must
leave every digest untouched.  A change that alters results on purpose
must update the digests and say why.

Two kinds of run are pinned:

* fixed randomized op streams (the parity suite's generator) driven
  through small hierarchies of every platform preset and of the
  behavioural ablations, once with batching on and once off;
* the epoch samples of Fig. 11's a4 / 1024 B cell (DPDK-T, FIO and
  X-Mem 1-3 under A4), 3 epochs with 1 warm-up, at two seeds.
"""

import hashlib
import json
import random
from dataclasses import astuple

import pytest

from repro.experiments.scenarios import build_server, microbenchmark_workloads
from repro.platform import CASCADELAKE_SP, ICELAKE_SP, SKYLAKE_SP
from repro.telemetry.counters import COUNTER_FIELDS
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
}

OP_STREAM_GOLDENS = {
    "skylake-sp":
        "2baabb59ef5095801eb648a9ace2ca59b87ed283f6fb1fa357129dbe70930ae1",
    "icelake-sp":
        "ca3521a29bce4ad382ab4696962e05effbb16652392a1fdaee8e505fe5f44338",
    "cascadelake-sp":
        "ae9858a69d57eb6240da343b9c34f8984476376b448c1864a7ceef23a1a33f9b",
    "srrip":
        "9857fa55fab8afdc0d35329f8f818d16b0f8d282dabe2eda1f8d39cd29c98e58",
    "no-migration":
        "133c24ad6689f0aa4f5bb0f764aa670a42c72a5ba3a903bdb16fbe5e5bfc3b76",
    "self-invalidate":
        "2c25b4deaa50d0df719745da9f24a412f0018d43d7934b97b9fa3d594115269a",
    "no-write-update":
        "2a4d8d38f1b97992752699a1849311974db7a82057317b533b4a411a3967874a",
    "prefetch":
        "15deecc6969d337991855a20cacf5142379c4fac53490e5029e5e1706526a774",
}


@pytest.mark.parametrize("case", sorted(OP_STREAM_CASES))
@pytest.mark.parametrize("batching", [False, True], ids=["scalar", "batched"])
def test_op_stream_golden(case, batching):
    spec, llc_overrides, overrides, seed = OP_STREAM_CASES[case]
    ops = make_ops(random.Random(seed), nops=300)
    state, _ = run_once(spec, ops, batching, llc_overrides, **overrides)
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
