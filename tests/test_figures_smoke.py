"""Smoke tests: every figure runner executes on a reduced configuration and
returns a well-formed result.  Shape assertions live in the benchmarks and
in test_integration_observations; here we only guarantee the harness runs.
"""

import pytest

from repro.experiments.figures import REGISTRY, fig3, fig5, fig8, fig13

KB = 1024


def test_registry_covers_all_paper_figures():
    expected = {
        "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b",
        "fig11", "fig12", "fig13a", "fig13b", "fig14", "fig15a", "fig15b",
        "fig15c",
        "ablation-migration", "ablation-write-update",
        "ablation-replacement", "ablation-trash-floor",
        "ablation-platforms", "ablation-tenants",
        "related-self-invalidation", "related-ddio-ways",
    }
    assert set(REGISTRY) == expected


def test_fig3_reduced_positions():
    result = fig3.run_fig3a(epochs=4, positions=[(3, 4)])
    assert len(result.rows) == 1
    assert result.rows[0]["xmem_ways"] == "way[3:4]"
    assert 0.0 <= result.rows[0]["xmem_llc_miss"] <= 1.0


def test_fig5_reduced_sizes():
    result = fig5.run(epochs=4, block_sizes=(32 * KB,))
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["tput_dca_on"] > 0 and row["tput_dca_off"] > 0


def test_fig8b_columns():
    result = fig8.run_fig8b(epochs=4)
    assert result.columns == ["fio_ways", "xmem_miss", "fio_tput"]
    assert len(result.rows) == 4


def test_fig13_single_scheme_runs():
    result = fig13.run_hpw_heavy(epochs=5, warmup=2, schemes=("default",))
    workload_names = {row["workload"] for row in result.rows}
    assert "fastclick" in workload_names and "ffsb-h" in workload_names


def test_cli_quick_kwargs_cover_registry():
    from repro.experiments.__main__ import QUICK_KWARGS

    assert set(QUICK_KWARGS) == set(REGISTRY)


def test_cli_list(capsys):
    from repro.experiments.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig3a" in out


def test_cli_rejects_unknown_figure():
    from repro.experiments.__main__ import main

    assert main(["figNope"]) == 2


def test_cli_no_args_shows_help():
    from repro.experiments.__main__ import main

    assert main([]) == 2


def test_cli_restores_the_environment_it_exports(tmp_path, monkeypatch):
    """The CLI exports its settings for pool workers; an in-process call
    must hand the environment back unchanged on every return path."""
    import os

    from repro.experiments import runcache
    from repro.experiments.__main__ import main
    from repro.experiments.figures.base import ENV_CHECKPOINT_DIR
    from repro.faults.plan import FaultPlan

    exported = (
        runcache.ENV_CACHE_DIR, runcache.ENV_CACHE_DISABLE,
        runcache.ENV_FAULT_INTENSITY, ENV_CHECKPOINT_DIR,
    )
    monkeypatch.setenv(runcache.ENV_FAULT_INTENSITY, "0")
    before = {name: os.environ.get(name) for name in exported}
    flags = [
        "--no-cache", "--fault-intensity", "0.5",
        "--cache-dir", str(tmp_path / "cache"),
        "--checkpoint-dir", str(tmp_path / "ckpt"),
    ]
    assert main(["--list", *flags]) == 0
    assert main(["figNope", *flags]) == 2
    assert {name: os.environ.get(name) for name in exported} == before
    assert FaultPlan.from_env() is None
