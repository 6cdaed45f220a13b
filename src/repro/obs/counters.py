"""Typed counters and gauges with cross-process merge semantics.

A :class:`MetricSet` holds two kinds of metric, with deliberately
different merge behaviour:

- **counters** are monotonically accumulated totals (address-days
  simulated, shards retried).  Merging two sets *sums* counters, so the
  union of four worker payloads reports the same totals as one serial
  run — the property the observability merge tests pin down.
- **gauges** are point-in-time readings (bytes mapped by a load, a
  live service's committed interval count).  Merging takes the *max*, so replicated readings of the
  same quantity collapse instead of summing into nonsense.

Names must match ``[a-zA-Z_][a-zA-Z0-9_]*`` so every metric is
exportable to Prometheus text format unmodified.
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import ObservabilityError

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def validate_metric_name(name: str) -> None:
    """Reject names that could not be exported to Prometheus."""
    if not _METRIC_NAME_RE.match(name):
        raise ObservabilityError(
            f"bad metric name {name!r}: must match [a-zA-Z_][a-zA-Z0-9_]*"
        )


class MetricSet:
    """A named bag of counters (summed on merge) and gauges (maxed)."""

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, float] = {}

    # -- recording -----------------------------------------------------

    def add(self, name: str, amount: int | float = 1) -> None:
        """Increment counter *name* by *amount* (must be >= 0)."""
        validate_metric_name(name)
        if amount < 0:
            raise ObservabilityError(
                f"counter {name!r} cannot decrease (amount={amount})"
            )
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: int | float) -> None:
        """Set gauge *name* to *value* (overwrites)."""
        validate_metric_name(name)
        self._gauges[name] = float(value)

    # -- reading -------------------------------------------------------

    def counter(self, name: str) -> int | float:
        """Current value of a counter (0 if never incremented)."""
        validate_metric_name(name)
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        """Current value of a gauge (``None`` if never set)."""
        validate_metric_name(name)
        return self._gauges.get(name)

    @property
    def counters(self) -> dict[str, int | float]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        return dict(self._gauges)

    # -- merge / serialization -----------------------------------------

    def merge(self, other: "MetricSet") -> None:
        """Fold *other* in: counters sum, gauges take the max reading."""
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            current = self._gauges.get(name)
            self._gauges[name] = value if current is None else max(current, value)

    def as_dict(self) -> dict[str, Any]:
        return {"counters": dict(self._counters), "gauges": dict(self._gauges)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MetricSet":
        metrics = cls()
        for name, value in payload.get("counters", {}).items():
            validate_metric_name(name)
            metrics._counters[name] = value
        for name, value in payload.get("gauges", {}).items():
            validate_metric_name(name)
            metrics._gauges[name] = float(value)
        return metrics
