"""The observation context: one object that crosses the worker boundary.

An :class:`ObsContext` bundles everything the observability layer
records about a run — the span tree, the counter/gauge set, an ordered
event log, and a small ``info`` mapping of run identity (seed, worker
count, shard map, fingerprint).  It is:

- **picklable**: :meth:`ObsContext.to_payload` flattens it to plain
  dicts and lists, which is what a worker ships back inside its
  :class:`~repro.sim.engine.ShardResult`;
- **mergeable**: :meth:`ObsContext.merge` folds another context (or a
  payload) in with the per-kind semantics of its parts — spans and
  counters sum, gauges max, events concatenate, info unions.

The module also provides the *ambient* context used by instrumented
library code (:func:`span`, :func:`add`, :func:`gauge`,
:func:`event`): a process-global slot installed with
:func:`activate` (or, for one run's own record, :func:`run_context`).
When no context is active every helper is a no-op, so instrumentation
in hot paths costs one attribute check when observability is off.  The
slot is per process — worker processes never inherit the coordinator's
context; they build their own and ship it back explicitly.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.obs.counters import MetricSet
from repro.obs.spans import SpanRecorder


@dataclass(frozen=True)
class RunEvent:
    """One discrete occurrence in a run (a retry, a checkpoint, ...).

    ``kind`` is a short identifier (``retry``, ``degrade``, ``resume``,
    ``checkpoint_save``, ``checkpoint_skip``); ``fields`` carries
    JSON-safe detail such as the shard index or attempt number.
    """

    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, **self.fields}


class ObsContext:
    """Spans + metrics + events + run identity for one collection/analysis."""

    def __init__(self) -> None:
        self.spans = SpanRecorder()
        self.metrics = MetricSet()
        self.events: list[RunEvent] = []
        #: Run identity recorded by the engine (seed, workers, shard
        #: map, fingerprint, ...) and consumed by the manifest.
        self.info: dict[str, Any] = {}

    # -- recording -----------------------------------------------------

    def span(self, name: str) -> AbstractContextManager[SpanRecorder]:
        """Context manager timing *name* (see :class:`SpanRecorder`)."""
        return self.spans.span(name)

    def add(self, name: str, amount: int | float = 1) -> None:
        self.metrics.add(name, amount)

    def set_gauge(self, name: str, value: int | float) -> None:
        self.metrics.set_gauge(name, value)

    def event(self, kind: str, **fields: Any) -> None:
        """Append an event and bump its ``event_<kind>_total`` counter.

        The automatic counter gives every event kind a mergeable total;
        the engine's resilience figures (retried/degraded/resumed/
        checkpointed) in :class:`~repro.sim.engine.PerfCounters` and
        :class:`~repro.sim.engine.ShardProgress` are read from it.
        """
        self.events.append(RunEvent(kind, dict(fields)))
        self.metrics.add(f"event_{kind}_total")

    def events_of(self, kind: str) -> list[RunEvent]:
        """Recorded events of one kind, in record order."""
        return [e for e in self.events if e.kind == kind]

    # -- merge / serialization (the worker boundary) -------------------

    def merge(self, other: "ObsContext") -> None:
        """Fold *other* in: spans/counters sum, gauges max, events append."""
        self.spans.merge(other.spans)
        self.metrics.merge(other.metrics)
        self.events.extend(other.events)
        self.info.update(other.info)

    def merge_payload(self, payload: dict[str, Any]) -> None:
        """Fold a :meth:`to_payload` dict in (the cross-process path)."""
        self.merge(ObsContext.from_payload(payload))

    def to_payload(self) -> dict[str, Any]:
        """Flatten to plain dicts/lists — picklable and JSON-ready."""
        return {
            "spans": self.spans.as_dict(),
            "metrics": self.metrics.as_dict(),
            "events": [event.as_dict() for event in self.events],
            "info": dict(self.info),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ObsContext":
        ctx = cls()
        ctx.spans = SpanRecorder.from_dict(payload.get("spans", {}))
        ctx.metrics = MetricSet.from_dict(payload.get("metrics", {}))
        for entry in payload.get("events", ()):
            fields = {key: value for key, value in entry.items() if key != "kind"}
            ctx.events.append(RunEvent(entry["kind"], fields))
        ctx.info = dict(payload.get("info", {}))
        return ctx


# -- the ambient context (module-level instrumentation API) ------------

_ACTIVE: ObsContext | None = None


def active() -> ObsContext | None:
    """The context instrumented library code currently records into."""
    return _ACTIVE


@contextmanager
def activate(ctx: ObsContext) -> Iterator[ObsContext]:
    """Install *ctx* as the ambient context for the enclosed block.

    Re-entrant: the previous context (possibly the same one) is
    restored on exit, so nested activations compose.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ctx
    try:
        yield ctx
    finally:
        _ACTIVE = previous


@contextmanager
def run_context(into: ObsContext | None) -> Iterator[ObsContext]:
    """Record one run into a fresh, activated context.

    The fresh context is the run's own record: everything derived from
    it (the engine's :class:`~repro.sim.engine.PerfCounters`, say)
    describes this run alone, even when the caller reuses *into*
    across runs.  On exit — normal or not, so a failed run keeps its
    audit trail — the fresh context is merged into *into* when given.
    """
    ctx = ObsContext()
    try:
        with activate(ctx):
            yield ctx
    finally:
        if into is not None:
            into.merge(ctx)


def span(name: str) -> AbstractContextManager[SpanRecorder | None]:
    """Time *name* on the ambient context; no-op when none is active."""
    ctx = _ACTIVE
    return ctx.spans.span(name) if ctx is not None else nullcontext()


def add(name: str, amount: int | float = 1) -> None:
    """Bump a counter on the ambient context; no-op when none is active."""
    if _ACTIVE is not None:
        _ACTIVE.add(name, amount)


def gauge(name: str, value: int | float) -> None:
    """Set a gauge on the ambient context; no-op when none is active."""
    if _ACTIVE is not None:
        _ACTIVE.set_gauge(name, value)


def event(kind: str, **fields: Any) -> None:
    """Record an event on the ambient context; no-op when none is active."""
    if _ACTIVE is not None:
        _ACTIVE.event(kind, **fields)
