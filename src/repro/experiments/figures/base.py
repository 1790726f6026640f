"""Shared machinery for the figure runners.

The motivation experiments (Figs. 3–8) all follow one template: build a
small server, pin workloads to way ranges with CAT, optionally flip DCA off
for some devices, run, and read aggregates.  :func:`run_setup` packages
that.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro import obsv
from repro.experiments import runcache
from repro.experiments.errors import WorkloadConfigError
from repro.experiments.harness import RunResult, Server
from repro.platform import PlatformSpec, get_platform
from repro.workloads.base import Workload

DEFAULT_EPOCHS = 8
DEFAULT_WARMUP = 2

ENV_CHECKPOINT_DIR = "REPRO_CHECKPOINT_DIR"
"""Ambient checkpoint directory (the CLI's ``--checkpoint-dir`` exports
it so process-pool workers inherit the setting); an explicit
``checkpoint_dir`` argument always wins."""


def _checkpoint_key(run_key: str, epoch: int) -> str:
    return runcache.fingerprint(("checkpoint", run_key, epoch))


def resumable_run(
    build: Callable[[], Server],
    run_key: str,
    epochs: int,
    warmup: int,
    sampling=None,
    checkpoint_dir: Optional[str] = None,
) -> Tuple[Server, RunResult]:
    """Run ``build()``'s server to ``epochs``, checkpointing and resuming
    under ``run_key`` when a checkpoint directory is configured.

    This is the restore-and-stitch core shared by :func:`run_setup` and
    the per-cell figure runners (``fig11``): with ``checkpoint_dir`` (or
    ``$REPRO_CHECKPOINT_DIR``) set, the run snapshots every quarter-run
    into a :class:`~repro.experiments.runcache.RunCache` rooted there, and
    a rerun with the same ``run_key`` restores the newest intact snapshot
    below ``epochs``, simulates only the remaining epochs, and stitches
    the restored PCM history back onto the fresh segment — the returned
    :class:`RunResult` is bit-identical to an uninterrupted run.  With no
    directory configured nothing changes: ``build()`` then one plain
    ``server.run``, zero extra work.

    Sampled runs never checkpoint: the sampler's clusters live outside
    the server, so a resumed segment would not be the uninterrupted run.

    Returns ``(server, result)`` — callers need the server for
    ``epoch_cycles`` / aggregates.
    """
    if checkpoint_dir is None:
        checkpoint_dir = os.environ.get(ENV_CHECKPOINT_DIR) or None
    if checkpoint_dir is None or sampling is not None:
        server = build()
        result = server.run(epochs=epochs, warmup=warmup, sampling=sampling)
        return server, result

    from repro.sim import checkpoint as ckpt

    store = runcache.RunCache(root=Path(checkpoint_dir))
    every = max(1, epochs // 4)
    server = None
    done = 0
    # Probe the cadence's epochs newest first; a missing entry is skipped
    # and a digest-corrupt one is deleted, so the walk lands on the newest
    # intact snapshot.
    for epoch in range((epochs - 1) // every * every, 0, -every):
        key = _checkpoint_key(run_key, epoch)
        state = store.get(key)
        if state is runcache.MISS:
            continue
        try:
            server = ckpt.restore(state)
        except ckpt.CheckpointError:
            store.discard(key)
            continue
        done = epoch
        tracer = obsv.TRACER
        if tracer is not None:
            tracer.emit(
                obsv.KIND_CHECKPOINT,
                "restore",
                {"run_key": run_key[:16], "epoch": done, "of": epochs},
            )
        break
    if server is None:
        server = build()

    def save(server: Server, sample) -> None:
        """Epoch hook: snapshot every ``every`` completed epochs, short of
        the last one (the probe never restores a finished run)."""
        completed = server.epochs_completed
        if completed % every or completed >= epochs:
            return
        state = ckpt.snapshot(server)
        key = _checkpoint_key(run_key, state.epoch)
        store.put(key, state)
        tracer = obsv.TRACER
        if tracer is not None:
            tracer.now = server.sim.now
            tracer.emit(
                obsv.KIND_CHECKPOINT,
                "snapshot",
                {
                    "epoch": state.epoch,
                    "key": key[:16],
                    "bytes": len(state.payload),
                },
            )

    result = server.run(
        epochs=epochs - done, warmup=max(0, warmup - done), epoch_hook=save
    )
    if done:
        # Stitch the pre-checkpoint epochs (restored inside the server's
        # PCM history) back onto this segment's samples so the result is
        # indistinguishable from an uninterrupted run.
        result = RunResult(
            samples=server.pcm.history[-epochs:],
            warmup=warmup,
            server=server,
        )
    return server, result


def run_setup(
    workloads: Iterable[Workload],
    masks: Optional[Dict[str, Tuple[int, int]]] = None,
    dca_off: Iterable[str] = (),
    epochs: int = DEFAULT_EPOCHS,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 0xA4,
    spare_cores: int = 2,
    platform: Optional[PlatformSpec] = None,
    sampling=None,
    checkpoint_dir: Optional[str] = None,
) -> RunResult:
    """Run a manager-less setup with explicit CAT masks.

    ``masks`` maps workload name to an inclusive way range (the paper's
    way[m:n]); ``dca_off`` names workloads whose device port runs the
    non-allocating flow.  ``platform`` (a spec or preset name) selects the
    microarchitecture; its fingerprint is part of the cache key, so runs
    on different specs never alias.

    ``sampling`` (a :class:`~repro.sim.sampling.SamplingPlan`) switches
    the run to representative-interval mode; the plan — including its
    error budget — is folded into the cache key, so sampled and exact
    results never alias.  ``checkpoint_dir`` makes an exact run snapshot
    every quarter-run under this setup's cache key (see
    :func:`resumable_run`), and an interrupted run restarted with the same
    configuration resumes from the newest checkpoint instead of
    simulating from cycle zero.  The directory does *not* enter the cache
    key — it changes how a result is computed, never what it is.

    Completed runs are memoized in the content-addressed run cache keyed
    on the full canonical configuration; a warm hit rebuilds the
    :class:`RunResult` from stored epoch samples with a
    :class:`~repro.experiments.runcache.CachedServer` stub (no simulation
    work).  The key must be derived *before* the server mutates the
    workload objects (``setup`` assigns cores/ports).
    """
    workloads = list(workloads)
    dca_off = tuple(dca_off)
    platform = get_platform(platform)
    cache = runcache.get_cache()
    key = runcache.fingerprint(
        (
            "run_setup",
            workloads,
            masks or {},
            dca_off,
            epochs,
            warmup,
            seed,
            spare_cores,
            platform.fingerprint(),
            sampling,
        )
    )
    cached = cache.get(key)
    if cached is not runcache.MISS:
        return RunResult(
            samples=cached["samples"],
            warmup=cached["warmup"],
            server=runcache.CachedServer(epoch_cycles=cached["epoch_cycles"]),
            sampling=cached.get("sampling"),
        )
    def build() -> Server:
        cores = sum(w.num_cores for w in workloads) + spare_cores
        server = Server(cores=cores, seed=seed, platform=platform)
        for workload in workloads:
            server.add_workload(workload)
        for name, (first, last) in (masks or {}).items():
            server.cat.set_mask(server.clos_of(name), range(first, last + 1))
        for name in dca_off:
            workload = server.workload(name)
            if workload.port_id is None:
                raise WorkloadConfigError(
                    f"{name} has no I/O device to disable DCA for"
                )
            server.pcie.port(workload.port_id).disable_dca()
        return server

    server, result = resumable_run(
        build,
        key,
        epochs,
        warmup,
        sampling=sampling,
        checkpoint_dir=checkpoint_dir,
    )
    cache.put(
        key,
        {
            "samples": result.samples,
            "warmup": result.warmup,
            "epoch_cycles": server.epoch_cycles,
            "sampling": result.sampling,
        },
    )
    return result


def way_label(first: int, last: int) -> str:
    """The paper's way[m:n] notation."""
    return f"way[{first}:{last}]"
