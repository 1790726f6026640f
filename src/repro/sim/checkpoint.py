"""Checkpoint/restore for whole simulated servers.

A checkpoint is a :class:`SimState`: a versioned, digest-protected pickle
of the entire :class:`~repro.experiments.harness.Server` object graph —
event heap (reduced to restartable-process descriptors by
:meth:`Simulator.__getstate__`), RNG sub-streams, cache hierarchy, uncore
(IIO, PCIe, memory controller), devices, workload loop state, and the
manager FSM.  Restoring at epoch E and continuing is bit-identical to an
uninterrupted run: every process body in the tree is written in
*restartable* form (see :meth:`Simulator.spawn_restartable`), so a fresh
generator first-resumed at the recorded pending time replays exactly what
the suspended original would have done.

:class:`CheckpointStore` is the content-addressed on-disk side: blobs
under ``root/<key[:2]>/<key>.ckpt`` (same layout as the run cache) plus a
per-run index ``root/index/<run_key>.json`` mapping epoch -> blob key, so
a resume can ask for the newest checkpoint at-or-before a target epoch.
Keys fold in the checkpoint schema and the repo's code salt: a checkpoint
can never be restored by a different version of the simulator source
(unpickling across code versions is undefined behaviour, not a subtle
bug to chase).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

CHECKPOINT_SCHEMA = 1
"""Version of the SimState wrapper itself (bump on any layout change)."""

CHECKPOINT_SUFFIX = ".ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken, validated, or restored."""


@dataclass
class SimState:
    """One snapshot of a server, ready to persist or restore.

    ``payload`` is the pickled server graph; ``digest`` is its SHA-256, so
    a truncated or bit-flipped blob is detected before unpickling (which
    would otherwise fail in arbitrarily confusing ways, or worse, not
    fail).  ``platform`` is the JSON-encoded platform fingerprint — a
    restore can check it against expectations without unpickling."""

    schema: int
    time: float
    epoch: int
    platform: str
    payload: bytes
    digest: str

    def validate(self) -> None:
        if self.schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema {self.schema} != {CHECKPOINT_SCHEMA}"
            )
        actual = hashlib.sha256(self.payload).hexdigest()
        if actual != self.digest:
            raise CheckpointError(
                f"checkpoint payload digest mismatch "
                f"(stored {self.digest[:12]}, actual {actual[:12]})"
            )


def snapshot(server) -> SimState:
    """Capture ``server`` as a :class:`SimState`.

    Raises :class:`~repro.sim.engine.SnapshotError` (via the simulator's
    ``__getstate__``) if any live process was spawned without a
    restartable factory, and :class:`CheckpointError` if anything in the
    graph cannot pickle."""
    try:
        payload = pickle.dumps(server, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        if type(exc).__name__ == "SnapshotError":
            raise
        raise CheckpointError(f"server graph does not pickle: {exc}") from exc
    return SimState(
        schema=CHECKPOINT_SCHEMA,
        time=server.sim.now,
        epoch=getattr(server, "epochs_completed", 0),
        platform=json.dumps(server.platform.fingerprint(), sort_keys=True),
        payload=payload,
        digest=hashlib.sha256(payload).hexdigest(),
    )


def restore(state: SimState):
    """Rebuild the server from ``state`` (validates schema + digest)."""
    state.validate()
    try:
        return pickle.loads(state.payload)
    except Exception as exc:
        raise CheckpointError(f"checkpoint failed to restore: {exc}") from exc


def checkpoint_key(run_key: str, epoch: int) -> str:
    """Content address for one (run, epoch) checkpoint.

    The code salt makes checkpoints self-invalidating across source
    edits, exactly like run-cache entries: a stale blob simply becomes
    unreachable rather than restoring a server whose pickled layout no
    longer matches the classes that will receive it."""
    from repro.experiments.runcache import code_salt

    blob = f"{run_key}\0{epoch}\0{CHECKPOINT_SCHEMA}\0{code_salt()}"
    return hashlib.sha256(blob.encode()).hexdigest()


class CheckpointStore:
    """Content-addressed checkpoint blobs + per-run epoch index.

    All writes are atomic (tmp + rename); a blob that is unreadable,
    schema-skewed, or digest-corrupt is treated as absent **and deleted**
    so one bad file costs one lost resume point, never a poisoned run."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------------

    def _blob_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{CHECKPOINT_SUFFIX}"

    def _index_path(self, run_key: str) -> Path:
        token = hashlib.sha256(run_key.encode()).hexdigest()[:32]
        return self.root / "index" / f"{token}.json"

    def _lock_path(self, run_key: str) -> Path:
        return self._index_path(run_key).with_suffix(".lock")

    @contextmanager
    def _locked(self, run_key: str) -> Iterator[None]:
        """Inter-process exclusion for one run key (flock on a sidecar).

        Two workers resuming the same run key otherwise race: one can be
        mid-``save`` (blob written, index not yet) while the other's
        ``load`` evicts what it mistakes for a stale blob.  The sidecar
        — never the data file itself — carries the lock, so lock
        acquisition cannot corrupt anything and a crashed holder's lock
        evaporates with its process.  No-op where ``flock`` is
        unavailable."""
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        path = self._lock_path(run_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- index ---------------------------------------------------------------

    def _read_index(self, run_key: str) -> Dict[str, str]:
        path = self._index_path(run_key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                index = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(index, dict):
            return {}
        return index

    def _write_index(self, run_key: str, index: Dict[str, str]) -> None:
        path = self._index_path(run_key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(index, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint index: {exc}")

    def epochs(self, run_key: str) -> List[int]:
        """Epochs with a recorded checkpoint for ``run_key``, ascending."""
        return sorted(int(e) for e in self._read_index(run_key))

    # -- blobs ---------------------------------------------------------------

    def save(self, run_key: str, state: SimState) -> str:
        """Persist ``state`` and index it under ``run_key``; returns the
        blob key.  Blob write + index update are one critical section
        under the run key's file lock."""
        key = checkpoint_key(run_key, state.epoch)
        path = self._blob_path(key)
        with self._locked(run_key):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(f".tmp.{os.getpid()}")
                with tmp.open("wb") as fh:
                    pickle.dump(
                        {"schema": CHECKPOINT_SCHEMA, "key": key, "state": state},
                        fh,
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                os.replace(tmp, path)
            except OSError as exc:
                raise CheckpointError(f"cannot write checkpoint: {exc}")
            index = self._read_index(run_key)
            index[str(state.epoch)] = key
            self._write_index(run_key, index)
        return key

    def _load_key(self, key: str) -> Optional[SimState]:
        path = self._blob_path(key)
        try:
            with path.open("rb") as fh:
                wrapper = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            self._evict(path)
            return None
        if (
            not isinstance(wrapper, dict)
            or wrapper.get("schema") != CHECKPOINT_SCHEMA
            or wrapper.get("key") != key
            or not isinstance(wrapper.get("state"), SimState)
        ):
            self._evict(path)
            return None
        state = wrapper["state"]
        try:
            state.validate()
        except CheckpointError:
            self._evict(path)
            return None
        return state

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def load(self, run_key: str, epoch: int) -> Optional[SimState]:
        """The checkpoint at exactly ``epoch``, or None.  Holds the run
        key's lock so a validation-eviction cannot interleave with a
        concurrent worker's in-progress ``save``."""
        with self._locked(run_key):
            key = self._read_index(run_key).get(str(epoch))
            if key is None:
                return None
            return self._load_key(key)

    def latest(
        self, run_key: str, max_epoch: Optional[int] = None
    ) -> Optional[SimState]:
        """The newest checkpoint at-or-before ``max_epoch`` (newest overall
        when ``max_epoch`` is None).  Walks backwards past corrupt blobs."""
        for epoch in reversed(self.epochs(run_key)):
            if max_epoch is not None and epoch > max_epoch:
                continue
            state = self.load(run_key, epoch)
            if state is not None:
                return state
        return None
