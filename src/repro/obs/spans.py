"""Hierarchical timing spans: where a run's time and memory go.

A **span** is a named region of execution — ``collect/shard/simulate``,
``io/save_dataset`` — recorded with wall-clock time, CPU time, and the
process's peak RSS observed while the span was open.  Span names form a
slash-separated hierarchy; opening a span inside another nests it under
the enclosing path, so instrumented library code composes into one tree
no matter which layer opened the outer span.

Spans aggregate rather than trace: two executions of the same path fold
into one :class:`SpanStats` (summed times, summed count, max RSS), so a
year-long collection run produces a bounded structure, not a log.  The
same fold implements the cross-process merge — a worker ships its
recorder as a plain dict (:meth:`SpanRecorder.as_dict`) and the
coordinator folds it in with :meth:`SpanRecorder.merge` — which is what
makes a ``workers=8`` run's span tree comparable to a serial run's.

Everything here is dependency-free and single-threaded by design: the
coordinator records on one thread and worker processes each record into
their own recorder.
"""

from __future__ import annotations

import re
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.errors import ObservabilityError

try:  # pragma: no cover - resource is present on every POSIX platform
    import resource as _resource
except ImportError:  # pragma: no cover - Windows
    _resource = None  # type: ignore[assignment]

#: Span path segments: one or more printable name characters; segments
#: are joined by ``/`` and must not be empty.
_SEGMENT_RE = re.compile(r"[A-Za-z0-9_.:-]+$")


def peak_rss_bytes() -> int:
    """The process's lifetime peak resident set size, in bytes.

    Returns 0 on platforms without :mod:`resource`.  ``ru_maxrss`` is
    kilobytes on Linux and bytes on macOS; both are normalised to bytes.
    """
    if _resource is None:  # pragma: no cover - Windows
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(peak)
    return int(peak) * 1024


def validate_span_name(name: str) -> None:
    """Reject empty or malformed span paths with a clear error."""
    if not name or any(not _SEGMENT_RE.match(part) for part in name.split("/")):
        raise ObservabilityError(
            f"bad span name {name!r}: use non-empty [A-Za-z0-9_.:-] segments "
            "joined by '/'"
        )


@dataclass
class SpanStats:
    """Aggregated statistics of every execution of one span path."""

    count: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    peak_rss_bytes: int = 0

    def merge(self, other: "SpanStats") -> None:
        """Fold *other* into this: times and counts sum, RSS maxes."""
        self.count += other.count
        self.wall_seconds += other.wall_seconds
        self.cpu_seconds += other.cpu_seconds
        self.peak_rss_bytes = max(self.peak_rss_bytes, other.peak_rss_bytes)

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "peak_rss_bytes": self.peak_rss_bytes,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SpanStats":
        return cls(
            count=int(payload["count"]),
            wall_seconds=float(payload["wall_seconds"]),
            cpu_seconds=float(payload["cpu_seconds"]),
            peak_rss_bytes=int(payload["peak_rss_bytes"]),
        )


class SpanRecorder:
    """Records a tree of timing spans for one process.

    >>> rec = SpanRecorder()
    >>> with rec.span("collect"):
    ...     with rec.span("shard"):
    ...         pass
    >>> sorted(rec.paths())
    ['collect', 'collect/shard']
    """

    def __init__(self) -> None:
        self._stack: list[str] = []
        self._stats: dict[str, SpanStats] = {}

    def __len__(self) -> int:
        return len(self._stats)

    def __contains__(self, path: object) -> bool:
        return path in self._stats

    def paths(self) -> list[str]:
        """Every recorded span path, in sorted order."""
        return sorted(self._stats)

    def stats(self, path: str) -> SpanStats:
        """The aggregated stats of one span path; raises if unrecorded."""
        try:
            return self._stats[path]
        except KeyError:
            raise ObservabilityError(f"no span recorded at {path!r}") from None

    @contextmanager
    def span(self, name: str) -> Iterator["SpanRecorder"]:
        """Time a region under *name*, nested below any open span.

        *name* may itself be a slash path (``collect/shard/simulate``),
        which records exactly that hierarchy in one call.
        """
        validate_span_name(name)
        path = "/".join(self._stack + [name]) if self._stack else name
        self._stack.append(name)
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            yield self
        finally:
            self._stack.pop()
            delta = SpanStats(
                count=1,
                wall_seconds=time.perf_counter() - wall_start,
                cpu_seconds=time.process_time() - cpu_start,
                peak_rss_bytes=peak_rss_bytes(),
            )
            self._record(path, delta)

    def _record(self, path: str, delta: SpanStats) -> None:
        stats = self._stats.get(path)
        if stats is None:
            self._stats[path] = delta
        else:
            stats.merge(delta)

    # -- merge / serialization (the worker boundary) -------------------

    def merge(self, other: "SpanRecorder") -> None:
        """Fold another recorder's aggregates into this one."""
        for path, stats in other._stats.items():
            self._record(path, SpanStats(**stats.as_dict()))

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """Flat ``{path: stats}`` payload — picklable, JSON-ready."""
        return {path: self._stats[path].as_dict() for path in self.paths()}

    @classmethod
    def from_dict(cls, payload: dict[str, dict[str, Any]]) -> "SpanRecorder":
        recorder = cls()
        for path, stats in payload.items():
            validate_span_name(path)
            recorder._stats[path] = SpanStats.from_dict(stats)
        return recorder

    def tree(self) -> dict[str, Any]:
        """The span hierarchy as nested dicts (the ``--trace-out`` shape).

        Every node carries its own aggregated stats plus a ``children``
        mapping keyed by path segment.  Interior paths that were never
        themselves opened as spans appear with zeroed stats.
        """
        root: dict[str, Any] = {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0,
                                "peak_rss_bytes": 0, "children": {}}
        for path in self.paths():
            node = root
            for segment in path.split("/"):
                node = node["children"].setdefault(
                    segment,
                    {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0,
                     "peak_rss_bytes": 0, "children": {}},
                )
            stats = self._stats[path]
            node["count"] = stats.count
            node["wall_seconds"] = stats.wall_seconds
            node["cpu_seconds"] = stats.cpu_seconds
            node["peak_rss_bytes"] = stats.peak_rss_bytes
        return root
