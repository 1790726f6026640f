"""Per-layer span ledger for the traced run.

The ledger wraps each layer's public functions at class level, so every
instance built afterwards (and every bound method a workload body takes
when it starts) goes through the wrapper.  Install it before the traced
servers are built and uninstall it afterwards; nothing inside ``src/`` is
changed.  Each call records a span: name, start, end and parent, all under
the ledger's run id.  Spans stay in memory in flat arrays and are written
as gzipped JSONL by :meth:`Ledger.write_jsonl` when the run ends.  A
span's self time is its duration minus the durations of its direct
children, which tile part of its interval because the simulator is
single-threaded.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "bench.run"
"""The span the benchmark opens around each timed ``server.run``."""


def _arg(position: int, name: str):
    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return get


def _run_lines(args, kwargs) -> int:
    return len(_arg(3, "addrs")(args, kwargs))


def _multi_lines(args, kwargs) -> int:
    return sum(span[1] for span in _arg(2, "spans")(args, kwargs))


# (module, class, method, span name, lines-per-call or None)
SPANNED: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.sim.engine", "Simulator", "run_until", "sim.run_until", None),
    ("repro.experiments.harness", "Server", "time_shift", "sim.time_shift", None),
    ("repro.sim.sampling", "SampledRun", "run", "sampling.run", None),
    ("repro.cache.hierarchy", "CacheHierarchy", "cpu_access",
     "cache.cpu_access", None),
    ("repro.cache.hierarchy", "CacheHierarchy", "cpu_access_run",
     "cache.cpu_access_run", _run_lines),
    ("repro.cache.hierarchy", "CacheHierarchy", "dma_write_burst",
     "cache.dma_write_burst", _arg(3, "lines")),
    ("repro.cache.hierarchy", "CacheHierarchy", "dma_write_multi",
     "cache.dma_write_multi", _multi_lines),
    ("repro.cache.hierarchy", "CacheHierarchy", "dma_read", "cache.dma_read",
     None),
    ("repro.uncore.iio", "IIOAgent", "inbound_write_burst",
     "uncore.iio.inbound_write_burst", None),
    ("repro.uncore.iio", "IIOAgent", "inbound_write_multi",
     "uncore.iio.inbound_write_multi", None),
    ("repro.uncore.memory", "MemoryController", "read", "uncore.memory.read",
     None),
    ("repro.uncore.memory", "MemoryController", "write", "uncore.memory.write",
     None),
    ("repro.devices.nvme", "NvmeSsd", "submit", "devices.nvme.submit", None),
    ("repro.telemetry.pcm", "PcmSampler", "sample", "telemetry.pcm.sample",
     None),
    ("repro.core.manager", "LlcManager", "set_ways", "core.set_ways", None),
    ("repro.core.manager", "LlcManager", "set_port_dca", "core.set_port_dca",
     None),
)

# Too frequent and too cheap for a span: counted only.
COUNTED = (
    ("repro.devices.packetgen", "PacketGenerator", "next_packet_lines",
     "devices.packetgen.packets"),
)

MANAGER_MODULES = ("repro.core.a4", "repro.core.baselines", "repro.core.ioca",
                   "repro.core.variants")


def _manager_classes() -> List[type]:
    """Every ``LlcManager`` subclass that defines its own ``on_epoch``."""
    for module in MANAGER_MODULES:
        importlib.import_module(module)
    base = importlib.import_module("repro.core.manager").LlcManager
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "on_epoch" in cls.__dict__:
            found.append(cls)
    return found


class Ledger:
    """Spans of one traced run, in memory until written out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.lines: Counter = Counter()
        self.counts: Counter = Counter()
        self._restore: List[Tuple[type, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def _spanned(self, original, name: str, lines_of):
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        line_counts = self.lines
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            if lines_of is not None:
                line_counts[name] += lines_of(args, kwargs)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _counted(self, original, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    @contextmanager
    def root(self):
        """Span around one timed ``server.run`` (the ledger's top level)."""
        index = len(self.span_name)
        self.span_name.append(self.name_id(ROOT_SPAN))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[index] = time.perf_counter()
            self._stack.pop()

    def _patch(self, cls: type, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("ledger already installed")
        for module, cls_name, attr, name, lines_of in SPANNED:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._spanned(cls.__dict__[attr], name, lines_of))
        for module, cls_name, attr, name in COUNTED:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._counted(cls.__dict__[attr], name))
        for cls in _manager_classes():
            self._patch(
                cls, "on_epoch",
                self._spanned(cls.__dict__["on_epoch"], "core.on_epoch", None),
            )

    def uninstall(self) -> None:
        while self._restore:
            cls, attr, original = self._restore.pop()
            setattr(cls, attr, original)

    # -- derived figures ------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and, where the function
        takes a batch, ``lines``; counted-only names carry ``calls``."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        covered = [0.0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            entry = out[self.names[names[i]]]
            entry["calls"] += 1
            entry["self_s"] += ends[i] - starts[i] - covered[i]
        for name, lines in self.lines.items():
            out[name]["lines"] = lines
        for name, count in self.counts.items():
            out[name] = {"calls": count}
        return out

    def calls_under(self, child: str, parent: str) -> int:
        """Calls of ``child`` made directly from inside a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        child_id, parent_id = self._ids[child], self._ids[parent]
        names, parents = self.span_name, self.span_parent
        return sum(
            1
            for i in range(len(names))
            if names[i] == child_id
            and parents[i] >= 0
            and names[parents[i]] == parent_id
        )

    def traced_total_s(self) -> float:
        """Summed duration of the root spans (the traced ``server.run``s)."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_parent[i] < 0
        )

    def write_jsonl(self, path) -> int:
        """Write one JSON object per span, gzip-compressed (a traced rep
        holds millions of spans); returns the number written."""
        names = self.names
        run_id = json.dumps(self.run_id)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for i in range(len(self.span_name)):
                handle.write(
                    f'{{"run":{run_id},"span":{i},'
                    f'"name":"{names[self.span_name[i]]}",'
                    f'"parent":{self.span_parent[i]},'
                    f'"start":{self.span_start[i]!r},'
                    f'"end":{self.span_end[i]!r}}}\n'
                )
        return len(self.span_name)
