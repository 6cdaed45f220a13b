"""Per-layer spans recorded from outside the program.

The traced run installs a shim around each public function listed in
:data:`LAYER_FUNCTIONS`.  A shim records one span per call: name, start,
end, parent span, request id, CPU time and — for I/O functions — the
``rchar``/``wchar`` deltas of ``/proc/self/io``.  Those count bytes moved
by read/write syscalls only: pages read through ``mmap`` are not counted,
hence the unit ``syscall-bytes``.

Nothing under ``src/`` changes.  A module-level function is replaced in
*every* loaded ``repro`` module that binds it (``repro.cli`` and
``repro.serve.service`` import most layer functions by name), a method on
its class.  :func:`Tracer.check_coverage` then fails a run in which an
expected function recorded no call, which is what a shim patched into the
wrong namespace looks like.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

#: ``(layer, module, qualified name, I/O)`` of every timed function; I/O
#: is "r" and/or "w" for the ``/proc/self/io`` counters reported.
LAYER_FUNCTIONS: tuple[tuple[str, str, str, str], ...] = (
    ("sim.population", "repro.sim.population", "InternetPopulation.build", ""),
    ("sim.cdn", "repro.sim.cdn", "plan_collection", ""),
    ("sim.cdn", "repro.sim.cdn", "RoutingEvolution.run", ""),
    ("sim.cdn", "repro.sim.cdn", "RoutingEvolution.step", ""),
    ("sim.engine", "repro.sim.engine", "simulate_shard", ""),
    ("sim.engine", "repro.sim.engine", "run_sharded_collection", ""),
    ("sim.engine", "repro.sim.engine", "LiveShardSimulator.advance_window", ""),
    ("core.io", "repro.core.io", "save_dataset", "w"),
    ("core.io", "repro.core.io", "load_dataset", "r"),
    ("core.io", "repro.core.io", "save_routing_series", "w"),
    ("core.io", "repro.core.io", "open_store", "r"),
    ("core.store", "repro.core.store", "StoreWriter.add_shard", "w"),
    ("core.store", "repro.core.store", "StoreWriter.finalize", "rw"),
    ("core.store", "repro.core.store", "StoreAppender.append", "rw"),
    ("core.store", "repro.core.store", "DatasetStore.to_dataset", "r"),
    ("core.store", "repro.core.store", "DatasetStore.column_slice", "r"),
    ("core.metrics", "repro.core.metrics", "compute_block_metrics", ""),
    ("core.metrics", "repro.core.metrics", "compute_block_metrics_streamed", "r"),
    ("core.metrics", "repro.core.metrics", "IncrementalBlockMetrics.update", ""),
    ("core.churn", "repro.core.churn", "daily_churn", ""),
    ("core.churn", "repro.core.churn", "daily_churn_streamed", "r"),
    ("core.churn", "repro.core.churn", "IncrementalChurn.update", ""),
    ("core.change", "repro.core.change", "detect_change", ""),
    ("core.traffic", "repro.core.traffic", "top_share_series", ""),
    ("core.seasonal", "repro.core.seasonal", "weekday_profile", ""),
    ("core.potential", "repro.core.potential", "potential_utilization", ""),
    ("core.detect", "repro.core.detect", "detect_events", ""),
    ("report.text", "repro.report.text", "render_table", ""),
    ("obs.manifest", "repro.obs.manifest", "build_manifest", ""),
    ("obs.manifest", "repro.obs.manifest", "write_manifest", "w"),
    ("serve.service", "repro.serve.service", "ObservatoryService.run_one_interval", ""),
    ("serve.service", "repro.serve.service", "ObservatoryService.catch_up", ""),
)

#: Functions that call other timed functions: for these the self time
#: (wall minus timed children) is reported too — e.g. the merge + commit
#: share of ``run_sharded_collection`` or the non-layer part of a tick.
SELF_TIMED = (
    "sim.cdn.RoutingEvolution.run",
    "sim.engine.run_sharded_collection",
    "serve.service.ObservatoryService.run_one_interval",
    "serve.service.ObservatoryService.catch_up",
)


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname}"


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer, _module, qualname, io in LAYER_FUNCTIONS:
        name = span_name(layer, qualname)
        units[f"{name}.calls"] = "count"
        units[f"{name}.wall_s"] = "s"
        if name in SELF_TIMED:
            units[f"{name}.self_s"] = "s"
        units[f"{name}.cpu_s"] = "s"
        if "r" in io:
            units[f"{name}.rchar_bytes"] = "syscall-bytes"
        if "w" in io:
            units[f"{name}.wchar_bytes"] = "syscall-bytes"
    return units


@dataclass
class Span:
    name: str
    request: str
    parent: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    rchar: int = 0
    wchar: int = 0
    child_wall: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall


class _ProcIO:
    """``/proc/self/io`` counters, net of the bytes this reader consumed."""

    def __init__(self) -> None:
        self._fd = os.open("/proc/self/io", os.O_RDONLY)
        self._own_rchar = 0

    def read(self) -> tuple[int, int]:
        raw = os.pread(self._fd, 512, 0)
        fields = dict(line.split(": ") for line in raw.decode().splitlines())
        # The value read excludes this read itself, but includes every
        # earlier read of this file.
        rchar = int(fields["rchar"]) - self._own_rchar
        self._own_rchar += len(raw)
        return rchar, int(fields["wchar"])

    def close(self) -> None:
        os.close(self._fd)


class Tracer:
    """Spans kept in memory for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Request id of new spans: the CLI command or tick of the
        #: current operation ("setup" outside any operation).
        self.request = "setup"
        self._stack: list[int] = []
        self._io = _ProcIO()
        self._restore: list[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, does_io: bool) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.request, parent, time.perf_counter(), time.process_time())
        if does_io:
            span.rchar, span.wchar = self._io.read()
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, does_io: bool) -> None:
        span = self.spans[index]
        if does_io:
            rchar, wchar = self._io.read()
            span.rchar, span.wchar = rchar - span.rchar, wchar - span.wchar
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_wall += span.wall

    @contextmanager
    def operation(self, kind: str, request: str) -> Iterator[None]:
        """One timed operation of the workload: the root of its spans."""
        self.request = request
        index = self._open(f"op.{kind}", does_io=False)
        try:
            yield
        finally:
            self._close(index, does_io=False)
            self.request = "setup"

    def _wrap(self, name: str, func: Callable[..., Any], does_io: bool) -> Callable[..., Any]:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name, does_io)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index, does_io)

        return traced

    # -- shims -------------------------------------------------------------

    def install(self) -> None:
        """Put a shim around every function of :data:`LAYER_FUNCTIONS`."""
        for layer, module_name, qualname, io in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            name = span_name(layer, qualname)
            owner_name, _, attribute = qualname.rpartition(".")
            if owner_name:
                self._shim_method(getattr(module, owner_name), attribute, name, bool(io))
            else:
                self._shim_function(getattr(module, attribute), name, bool(io))

    def _shim_method(self, owner: type, attribute: str, name: str, does_io: bool) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            shim: Any = classmethod(self._wrap(name, original.__func__, does_io))
        else:
            shim = self._wrap(name, original, does_io)
        setattr(owner, attribute, shim)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def _shim_function(self, original: Callable[..., Any], name: str, does_io: bool) -> None:
        shim = self._wrap(name, original, does_io)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, shim)
                    self._restore.append(
                        functools.partial(setattr, module, attribute, original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        self._io.close()

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Per-layer metrics (every function, zero where never called)."""
        metrics = {name: 0.0 for name in per_layer_metric_units()}
        for span in self.spans:
            if span.name.startswith("op."):
                continue
            metrics[f"{span.name}.calls"] += 1
            metrics[f"{span.name}.wall_s"] += span.wall
            metrics[f"{span.name}.cpu_s"] += span.cpu_end - span.cpu_start
            if span.name in SELF_TIMED:
                metrics[f"{span.name}.self_s"] += span.self_wall
            if f"{span.name}.rchar_bytes" in metrics:
                metrics[f"{span.name}.rchar_bytes"] += span.rchar
            if f"{span.name}.wchar_bytes" in metrics:
                metrics[f"{span.name}.wchar_bytes"] += span.wchar
        return metrics

    def unspanned_s(self) -> float:
        """Time inside operations that no shim covers."""
        return sum(span.self_wall for span in self.spans if span.name.startswith("op."))

    def check_coverage(self, expected: tuple[str, ...]) -> list[str]:
        """Expected span names that recorded no call."""
        seen = {span.name for span in self.spans}
        return [name for name in expected if name not in seen]

    def series(self, name: str, field: str) -> list[float]:
        """One field of every *name* span, in call order."""
        return [getattr(span, field) for span in self.spans if span.name == name]

    def as_json(self) -> list[dict[str, Any]]:
        return [
            {
                "name": span.name,
                "request": span.request,
                "parent": span.parent,
                "start": span.start,
                "end": span.end,
                "cpu_s": span.cpu_end - span.cpu_start,
                "rchar": span.rchar,
                "wchar": span.wchar,
            }
            for span in self.spans
        ]
