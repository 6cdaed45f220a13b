"""Observability for the collection/analysis pipeline.

A dependency-free subsystem that makes a run *auditable*: hierarchical
timing spans (wall/CPU time, peak RSS), typed counters and gauges with
cross-process merge semantics, an ordered event log, a per-run manifest
written atomically next to the dataset, and exporters to JSON and
Prometheus text format.

The central object is the :class:`ObsContext` — picklable and
mergeable, so each worker process records its own and the coordinator
folds them into one run-wide view.  That view is the run's single
record: the engine's :class:`~repro.sim.engine.PerfCounters` is derived
from it, never timed separately.  Library code is instrumented through
the ambient-context helpers (:func:`span`, :func:`add`, :func:`gauge`,
:func:`event`), which are no-ops until a context is :func:`activate`\\ d
— observability off means near-zero cost.

Typical use (what ``repro simulate --trace-out`` does)::

    from repro import obs

    ctx = obs.ObsContext()
    result = observatory.collect_daily(28, workers=4, obs=ctx)
    manifest = obs.build_manifest(ctx, dataset=result.dataset)
    obs.write_manifest("world.manifest.json", manifest)
    print(obs.to_prometheus(ctx))
"""

from repro.obs.context import (
    ObsContext,
    RunEvent,
    activate,
    active,
    add,
    event,
    gauge,
    run_context,
    span,
)
from repro.obs.counters import MetricSet, validate_metric_name
from repro.obs.export import (
    to_prometheus,
    to_trace_json,
    write_prometheus,
    write_trace_json,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    dataset_digest,
    load_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.obs.spans import SpanRecorder, SpanStats, peak_rss_bytes

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "MetricSet",
    "ObsContext",
    "RunEvent",
    "RunManifest",
    "SpanRecorder",
    "SpanStats",
    "activate",
    "active",
    "add",
    "build_manifest",
    "dataset_digest",
    "event",
    "gauge",
    "load_manifest",
    "manifest_path_for",
    "peak_rss_bytes",
    "run_context",
    "span",
    "to_prometheus",
    "to_trace_json",
    "validate_metric_name",
    "write_manifest",
    "write_prometheus",
    "write_trace_json",
]
