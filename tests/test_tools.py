"""Tests for the operator tools (the pcm analogue)."""

import pytest

from repro.tools import pcm


class TestPcmTool:
    def test_monitor_produces_epochs(self):
        outputs = []
        samples = pcm.monitor(
            scenario="microbench", scheme="default", epochs=3,
            echo=outputs.append,
        )
        assert len(samples) == 3
        assert len(outputs) == 3
        assert "IPC" in outputs[0]
        assert "memory:" in outputs[0]

    def test_monitor_drives_manager(self):
        samples = pcm.monitor(
            scenario="microbench", scheme="a4", epochs=3, echo=lambda s: None
        )
        assert len(samples) == 3

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            pcm.monitor(scenario="webserver")

    def test_cli(self, capsys):
        assert pcm.main(["--epochs", "2"]) == 0
        assert "epoch 0" in capsys.readouterr().out
