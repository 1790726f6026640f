"""The controller decision record.

Every consequential controller action — A4's reallocation, LP-zone
expansion and settling, degraded-mode entry/exit, antagonist detection,
restoration, bypass halt, revert and its verdict; IOCA's way moves — is
one :class:`Decision` on the manager's ``decisions`` list
(:meth:`repro.core.manager.LlcManager._decide`): *when* (epoch), *what*
(action), *why* (reason), and *on what evidence* (``inputs``: the
sanitized telemetry values the controller actually compared, plus the
thresholds they crossed).

With tracing on, each decision is also a ``decision`` trace event (same
action / reason / inputs in ``data``), so a JSONL trace export is
self-contained and ``tools/obsv.py explain-epoch N`` rebuilds the
decisions from the file alone.

Action vocabulary (``Decision.action``):

``reallocate``, ``expand``, ``stable``, ``degraded_enter``,
``degraded_exit``, ``detect_storage``, ``detect_cpu``, ``restore``,
``bypass_halt``, ``revert``, ``revert_verdict``, ``bloat_treat``,
``bloat_restore`` (A4); ``ioca_adjust`` (IOCA).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class Decision:
    """One controller decision with the evidence behind it."""

    epoch: int
    action: str
    reason: str
    inputs: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Multi-line human rendering (the ``explain-epoch`` CLI body)."""
        lines = [f"[{self.action}] {self.reason} (epoch {self.epoch})"]
        lines.extend(_format_inputs(self.inputs, indent="    "))
        return "\n".join(lines)


def _format_inputs(inputs: Dict[str, Any], indent: str) -> List[str]:
    lines: List[str] = []
    for key in sorted(inputs):
        value = inputs[key]
        if isinstance(value, dict) and value:
            lines.append(f"{indent}{key}:")
            for sub in sorted(value):
                lines.append(f"{indent}    {sub}: {_fmt(value[sub])}")
        else:
            lines.append(f"{indent}{key}: {_fmt(value)}")
    return lines


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
        return "{" + parts + "}"
    return str(value)
