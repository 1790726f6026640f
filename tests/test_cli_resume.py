"""kill -9 a figure mid-run, rerun it, get the same result.

The figures CLI alone carries this guarantee: ``--checkpoint-dir`` makes
every ``resumable_run`` cell snapshot as it goes, the run cache keeps the
cells that finished, and both write atomically, so a SIGKILL at any point
leaves nothing torn behind.  The rerun resumes the interrupted cell from
its newest checkpoint, and every cached value must equal the one an
uninterrupted run produced.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.obsv import KIND_CHECKPOINT
from repro.obsv.export import read_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent
FIGURE = ["fig3a", "--quick"]


def _cli(*args: str) -> list:
    return [sys.executable, "-m", "repro.experiments", *FIGURE, *args]


def _env() -> dict:
    # The CLI's own flags must decide caching and checkpointing, not an
    # ambient REPRO_* setting inherited from the test runner.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _cache_values(root: Path) -> dict:
    values = {}
    for path in sorted(root.rglob("*.pkl")):
        with path.open("rb") as fh:
            wrapper = pickle.load(fh)
        values[wrapper["key"]] = wrapper["value"]
    return values


def test_sigkill_mid_figure_resumes_to_equal_results(tmp_path):
    a, b, c = tmp_path / "A", tmp_path / "B", tmp_path / "C"
    env = _env()

    subprocess.run(
        _cli("--cache-dir", str(a)),
        env=env, cwd=tmp_path, check=True, capture_output=True, timeout=300,
    )

    victim = subprocess.Popen(
        _cli("--cache-dir", str(b), "--checkpoint-dir", str(c)),
        env=env, cwd=tmp_path,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while not any(c.rglob("*.pkl")):
            assert victim.poll() is None, "figure finished before a checkpoint"
            assert time.monotonic() < deadline, "no checkpoint appeared"
            time.sleep(0.01)
        victim.send_signal(signal.SIGKILL)
    finally:
        victim.kill()
        victim.wait()
    assert victim.returncode == -signal.SIGKILL

    trace = tmp_path / "t.jsonl"
    subprocess.run(
        _cli(
            "--cache-dir", str(b), "--checkpoint-dir", str(c),
            "--trace", str(trace),
        ),
        env=env, cwd=tmp_path, check=True, capture_output=True, timeout=300,
    )
    restores = [
        e for e in read_jsonl(trace)
        if e.kind == KIND_CHECKPOINT and e.name == "restore"
    ]
    assert restores, "the rerun did not resume from a checkpoint"

    # Compare by value, not file bytes: a resumed cell's epochs unpickle
    # as separate objects, so its pickle shares fewer references than the
    # straight-through run's, while every value stays equal.
    expected = _cache_values(a)
    resumed = _cache_values(b)
    assert expected and resumed.keys() == expected.keys()
    for key, value in expected.items():
        assert resumed[key] == value, key
