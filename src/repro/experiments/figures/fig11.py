"""Fig. 11 — X-Mem IPC and LLC hit rate vs network packet size under the
Default, Isolate, and A4 schemes (§7.1, storage blocks fixed at 2 MB).

Expected shape: Default degrades the X-Mems as packets grow (DMA bloat);
Isolate is rigid and leaves cache-sensitive X-Mem 1 under-provisioned; A4
keeps X-Mem 1 (HPW) at a high, packet-size-independent hit rate while the
LPWs stay within acceptable ranges and X-Mem 3 is bypass-treated.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

from repro.experiments import runcache
from repro.experiments.figures.base import resumable_run
from repro.experiments.report import FigureResult
from repro.experiments.scenarios import build_server, microbenchmark_workloads
from repro.platform import PlatformSpec, get_platform

MB = 1024 * 1024

PACKET_SIZES: Tuple[int, ...] = (64, 256, 1024, 1514)
SCHEMES: Tuple[str, ...] = ("default", "isolate", "a4")


def _build_cell(scheme, packet_bytes, seed, platform):
    return build_server(
        microbenchmark_workloads(packet_bytes=packet_bytes, platform=platform),
        scheme=scheme,
        seed=seed,
        platform=platform,
    )


def run(
    epochs: int = 20,
    warmup: int = 5,
    seed: int = 0xA4,
    packet_sizes=PACKET_SIZES,
    schemes=SCHEMES,
    platform: Optional[PlatformSpec] = None,
    sampling=None,
    checkpoint_dir: Optional[str] = None,
) -> FigureResult:
    """Each (scheme, packet size) cell runs through
    :func:`~repro.experiments.figures.base.resumable_run` under its own
    content key, so with a checkpoint directory configured (explicitly or
    via ``$REPRO_CHECKPOINT_DIR``, which ``--checkpoint-dir`` exports) an
    interrupted figure resumes mid-grid *and* mid-cell.  Without one the
    grid runs exactly as before."""
    platform = get_platform(platform)
    result = FigureResult(
        figure="Fig. 11",
        title="X-Mem IPC / LLC hit rate vs packet size (storage blocks 2MB)",
        columns=[
            "scheme",
            "pkt",
            "x1_ipc",
            "x1_hit",
            "x2_ipc",
            "x2_hit",
            "x3_ipc",
            "x3_hit",
        ],
    )
    for scheme in schemes:
        for packet_bytes in packet_sizes:
            cell_key = runcache.fingerprint(
                (
                    "fig11_cell",
                    scheme,
                    packet_bytes,
                    epochs,
                    warmup,
                    seed,
                    platform.fingerprint(),
                    sampling,
                )
            )
            _, run_result = resumable_run(
                partial(_build_cell, scheme, packet_bytes, seed, platform),
                cell_key,
                epochs,
                warmup,
                sampling=sampling,
                checkpoint_dir=checkpoint_dir,
            )
            row = {"scheme": scheme, "pkt": f"{packet_bytes}B"}
            for i in (1, 2, 3):
                agg = run_result.aggregate(f"xmem{i}")
                row[f"x{i}_ipc"] = agg.ipc
                row[f"x{i}_hit"] = agg.llc_hit_rate
            result.add_row(**row)
    result.notes.append(
        "A4 keeps X-Mem 1 (HPW) at stable high hit rates across packet sizes"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
