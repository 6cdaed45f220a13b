"""Per-run manifests: the provenance record written next to a dataset.

Reproducible measurement pipelines live or die by run provenance — a
dataset whose config, code version, worker layout, and failure history
are unknown cannot be audited, compared, or trusted ("Lost in Space"
and the IPv6-classification literature both stress this).  A
:class:`RunManifest` captures exactly that for one collection run:

- **identity**: seed, worker count, shard map, horizon, window length,
  and the checkpoint fingerprint (when checkpointing was configured);
- **integrity**: a SHA-256 digest of the collected dataset's arrays
  (:func:`dataset_digest`), so drift between two runs — or between a
  run and its golden reference — is one string comparison;
- **history**: every retry/degrade/resume/checkpoint event the engine
  recorded, plus the merged counters, gauges, and span tree;
- **environment**: Python, numpy, and :mod:`repro` versions.

Manifests are JSON, written through the same fsynced atomic-write path
as datasets, so a crash mid-write can never leave a truncated manifest
beside a complete dataset.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ObservabilityError
from repro.obs.context import ObsContext

if TYPE_CHECKING:  # runtime import would be circular (core.io uses obs)
    from repro.core.dataset import ActivityDataset

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1


def digest_stream(
    start: datetime.date,
    window_days: int,
    num_snapshots: int,
    columns: Iterable[tuple[str, int, Iterable[Any]]],
) -> str:
    """The one definition of the dataset SHA-256's byte stream.

    The header ``v1|<start ordinal>|<window days>|<snapshots>``, then,
    per snapshot, its ``ips`` and ``hits`` columns: each a
    ``|<dtype>|<size>|`` prefix and the buffers of its parts, hashed as
    they are drawn, so a store feeds a column one shard at a time.
    """
    digest = hashlib.sha256()
    digest.update(f"v1|{start.toordinal()}|{window_days}|{num_snapshots}".encode())
    for dtype, size, parts in columns:
        digest.update(f"|{dtype}|{size}|".encode())
        for part in parts:
            digest.update(part)
    return digest.hexdigest()


def dataset_digest(dataset: "ActivityDataset") -> str:
    """SHA-256 of a dataset's header and every snapshot column.

    Covers the start date, window length, snapshot count, and each
    snapshot's IP/hit arrays (dtype and bytes), so two datasets share a
    digest iff they are bit-identical — the equality the golden-run
    regression test and the observability acceptance test pin down.
    """
    arrays = (
        np.ascontiguousarray(column)
        for snapshot in dataset
        for column in (snapshot.ips, snapshot.hits)
    )
    return digest_stream(
        dataset.start, dataset.window_days, len(dataset),
        ((array.dtype.str, array.size, (array.data,)) for array in arrays),
    )


@dataclass
class RunManifest:
    """Everything needed to audit one collection run."""

    schema: int = MANIFEST_SCHEMA_VERSION
    repro_version: str = ""
    python_version: str = ""
    numpy_version: str = ""
    seed: int | None = None
    workers: int | None = None
    num_days: int | None = None
    window_days: int | None = None
    num_blocks: int | None = None
    fingerprint: str | None = None
    shard_map: list[list[int]] | None = None
    dataset_path: str | None = None
    dataset_sha256: str | None = None
    events: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    spans: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "versions": {
                "repro": self.repro_version,
                "python": self.python_version,
                "numpy": self.numpy_version,
            },
            "run": {
                "seed": self.seed,
                "workers": self.workers,
                "num_days": self.num_days,
                "window_days": self.window_days,
                "num_blocks": self.num_blocks,
                "fingerprint": self.fingerprint,
                "shard_map": self.shard_map,
            },
            "dataset": {
                "path": self.dataset_path,
                "sha256": self.dataset_sha256,
            },
            "events": list(self.events),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": self.spans,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def build_manifest(
    ctx: ObsContext,
    dataset: "ActivityDataset | None" = None,
    dataset_path: str | os.PathLike[str] | None = None,
    dataset_sha256: str | None = None,
) -> RunManifest:
    """Assemble a manifest from a run's observation context.

    The run-identity fields come from ``ctx.info`` (recorded by the
    collection engine); passing the collected *dataset* additionally
    stamps its SHA-256 digest.  When the dataset was never materialized
    — an out-of-core store run — pass the store's *dataset_sha256*: one
    :func:`digest_stream`, so comparable across both layouts.
    """
    import repro

    info = ctx.info
    return RunManifest(
        repro_version=repro.__version__,
        python_version=platform.python_version(),
        numpy_version=np.__version__,
        seed=info.get("seed"),
        workers=info.get("workers"),
        num_days=info.get("num_days"),
        window_days=info.get("window_days"),
        num_blocks=info.get("num_blocks"),
        fingerprint=info.get("fingerprint"),
        shard_map=info.get("shard_map"),
        dataset_path=None if dataset_path is None else os.fspath(dataset_path),
        dataset_sha256=dataset_sha256 if dataset is None else dataset_digest(dataset),
        events=[event.as_dict() for event in ctx.events],
        # Copies, not references: the context stays live after the
        # manifest is built (the serve loop builds one per interval),
        # and a manifest must be a snapshot, not a view.
        counters=dict(ctx.metrics.counters),
        gauges=dict(ctx.metrics.gauges),
        spans=ctx.spans.tree(),
    )


def manifest_path_for(dataset_path: str | os.PathLike[str]) -> str:
    """Canonical manifest location next to a dataset file."""
    text = os.fspath(dataset_path)
    if text.endswith(".npz"):
        text = text[: -len(".npz")]
    return text + ".manifest.json"


def write_manifest(path: str | os.PathLike[str], manifest: RunManifest) -> str:
    """Atomically write *manifest* as JSON; returns the path written."""
    # Imported lazily: repro.core.io imports the obs package for its
    # span instrumentation, so a module-level import would be circular.
    from repro.core.io import atomic_write_text

    target = os.fspath(path)
    atomic_write_text(target, manifest.to_json())
    return target


def load_manifest(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read a manifest back as a plain dict; validates the schema."""
    target = os.fspath(path)
    try:
        with open(target, encoding="utf-8") as stream:
            payload: dict[str, Any] = json.load(stream)
    except FileNotFoundError as exc:
        raise ObservabilityError(f"no manifest file at: {target}") from exc
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"corrupt manifest file: {target} ({exc})"
        ) from exc
    except OSError as exc:
        raise ObservabilityError(
            f"unreadable manifest file: {target} ({exc})"
        ) from exc
    schema = payload.get("schema")
    if schema != MANIFEST_SCHEMA_VERSION:
        raise ObservabilityError(
            f"unsupported manifest schema {schema!r} in {target}"
        )
    return payload
