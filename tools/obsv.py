#!/usr/bin/env python3
"""Inspect JSONL traces written by ``--trace`` or ``write_jsonl``.

Usage::

    python tools/obsv.py summary runs/trace.jsonl
    python tools/obsv.py summary worker1.jsonl worker2.jsonl    # merged
    python tools/obsv.py timeline runs/trace.jsonl --kind decision --limit 40
    python tools/obsv.py timeline runs/trace.jsonl --epoch 12
    python tools/obsv.py explain-epoch runs/trace.jsonl 12
    python tools/obsv.py explain-epoch runs/trace.jsonl --find reallocate
    python tools/obsv.py tail runs/trace.jsonl -n 20

Every command accepts one or more JSONL files; multiple files are merged
into one stream ordered by ``(ts, pid, seq)``.

``summary`` prints event counts per kind and the controller-decision
tally.  ``timeline`` lists events (filter by kind and/or epoch).
``explain-epoch`` reconstructs the audit trail for one epoch — the
decisions the controller took and the sanitized telemetry inputs and
thresholds behind each; with ``--find ACTION`` it locates the first epoch
containing that action and explains it (exit 1 when nothing matches).
``tail`` shows the newest events.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.obsv.audit import Decision  # noqa: E402
from repro.obsv.export import read_jsonl  # noqa: E402
from repro.obsv.tracer import KIND_DECISION, TraceEvent  # noqa: E402


def _load(sources: List[str]) -> List[TraceEvent]:
    """Events from one or more JSONL files, as one ordered stream.

    A single file keeps its recorded order (legacy traces have no pid/seq
    stamps to sort by); several files merge by ``(ts, pid, seq)``."""
    events: List[TraceEvent] = []
    for source in sources:
        events.extend(read_jsonl(source))
    if len(sources) > 1:
        events.sort(key=lambda e: (e.ts, e.pid, e.seq))
    return events


def _decisions(events: List[TraceEvent]) -> List[Decision]:
    """Reconstruct audit decisions from their mirrored trace events."""
    return [
        Decision(
            epoch=e.epoch,
            action=e.name,
            reason=e.data.get("reason", ""),
            inputs=e.data.get("inputs", {}) or {},
        )
        for e in events
        if e.kind == KIND_DECISION
    ]


def cmd_summary(events: List[TraceEvent], args) -> int:
    counts = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    epochs = sorted({e.epoch for e in events if e.epoch >= 0})
    pids = sorted({e.pid for e in events if e.pid})
    line = f"{len(events)} events"
    if epochs:
        line += f", epochs {epochs[0]}..{epochs[-1]}"
    if pids:
        line += f", {len(pids)} process(es): {' '.join(map(str, pids))}"
    print(line)
    for kind in sorted(counts):
        print(f"  {kind:<12} {counts[kind]:>7}")
    decisions = _decisions(events)
    if decisions:
        actions = {}
        for d in decisions:
            actions[d.action] = actions.get(d.action, 0) + 1
        print("controller decisions:")
        for action in sorted(actions):
            print(f"  {action:<16} {actions[action]:>5}")
    return 0


def _fmt_event(event: TraceEvent) -> str:
    data = " ".join(f"{k}={v}" for k, v in sorted(event.data.items()))
    wall = f" wall={event.wall * 1e3:.2f}ms" if event.wall else ""
    pid = f" pid={event.pid}" if event.pid else ""
    return (
        f"[{event.epoch:>4}] t={event.ts:>12.0f} {event.kind:<10} "
        f"{event.name:<20} {data}{wall}{pid}"
    )


def cmd_timeline(events: List[TraceEvent], args) -> int:
    selected = [
        e
        for e in events
        if (args.kind is None or e.kind == args.kind)
        and (args.epoch is None or e.epoch == args.epoch)
    ]
    shown = selected[-args.limit:] if args.limit else selected
    if len(shown) < len(selected):
        print(f"... ({len(selected) - len(shown)} earlier events elided)")
    for event in shown:
        print(_fmt_event(event))
    return 0


def cmd_explain_epoch(events: List[TraceEvent], args) -> int:
    decisions = _decisions(events)
    epoch = args.epoch
    if args.find is not None:
        matches = [d for d in decisions if d.action == args.find]
        if not matches:
            print(f"no {args.find!r} decision in this trace", file=sys.stderr)
            return 1
        epoch = matches[0].epoch
    if epoch is None:
        print("explain-epoch needs an epoch number or --find ACTION",
              file=sys.stderr)
        return 2
    at_epoch = [d for d in decisions if d.epoch == epoch]
    if not at_epoch:
        print(f"epoch {epoch}: no controller decisions recorded")
        return 1
    print(f"epoch {epoch}: {len(at_epoch)} decision(s)")
    for decision in at_epoch:
        print(decision.describe())
    # Context: the non-decision events of the same epoch.
    context = [
        e for e in events if e.epoch == epoch and e.kind != KIND_DECISION
    ]
    if context:
        print(f"-- other epoch-{epoch} events --")
        for event in context:
            print(_fmt_event(event))
    return 0


def cmd_tail(events: List[TraceEvent], args) -> int:
    """The newest events."""
    if args.kind is not None:
        events = [e for e in events if e.kind == args.kind]
    for event in events[-args.lines:] if args.lines else events:
        print(_fmt_event(event))
    return 0


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "trace",
        nargs="+",
        help="JSONL trace file(s); multiple files merge by (ts, pid, seq)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/obsv.py", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="event counts and decision tally")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("timeline", help="list events")
    _add_trace_arg(p)
    p.add_argument("--kind", default=None, help="only this event kind")
    p.add_argument("--epoch", type=int, default=None, help="only this epoch")
    p.add_argument(
        "--limit", type=int, default=100,
        help="show at most the last N events (0 = all)",
    )
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser(
        "explain-epoch",
        help="the controller decisions of one epoch, with their inputs",
    )
    _add_trace_arg(p)
    p.add_argument("epoch", nargs="?", type=int, default=None)
    p.add_argument(
        "--find",
        metavar="ACTION",
        default=None,
        help="locate the first epoch with this decision action "
        "(e.g. reallocate, degraded_enter) and explain it",
    )
    p.set_defaults(func=cmd_explain_epoch)

    p = sub.add_parser("tail", help="newest events")
    _add_trace_arg(p)
    p.add_argument(
        "-n", "--lines", type=int, default=20,
        help="show the last N events (0 = all)",
    )
    p.add_argument("--kind", default=None, help="only this event kind")
    p.set_defaults(func=cmd_tail)

    args = parser.parse_args(argv)
    # argparse hands every positional to the greedy ``trace`` list, so
    # ``explain-epoch trace.jsonl 12`` parks the epoch there — reclaim a
    # trailing integer that is not an existing path.
    if (
        getattr(args, "epoch", None) is None
        and args.command == "explain-epoch"
        and len(args.trace) > 1
        and args.trace[-1].lstrip("-").isdigit()
        and not os.path.exists(args.trace[-1])
    ):
        args.epoch = int(args.trace.pop())
    try:
        events = _load(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    return args.func(events, args)


if __name__ == "__main__":
    sys.exit(main())
