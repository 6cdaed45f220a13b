"""Change-point detection: localizing exogenous events in activity series.

The scenario library (:mod:`repro.sim.scenario`) injects exogenous
events — outages, lockdown demand shifts, CGNAT consolidation,
transfer-market reuse, scanner storms, renumbering — into the
simulated world.  This module closes the loop from the *observable*
side: given only an :class:`~repro.core.dataset.ActivityDataset`, it
localizes each injected event to within one window, with no access to
the timeline that produced the data.

Three per-block (/24) channels, all read in one pass over the
dataset's shared :class:`~repro.core.index.DatasetIndex` (its /24
bases and per-window union positions, the same index the metrics and
change analyses use):

- **active** — distinct active addresses per window.  A step change
  (first difference beyond a robust threshold) marks an
  ``activation`` or ``deactivation``: outage boundaries, CGNAT
  consolidation, transfer-market blocks lighting up.
- **hits** — ``log1p`` of the summed hits per window.  A step beyond
  threshold *without* an active-count step marks a ``surge`` or
  ``quiet`` demand change: lockdown start/end.
- **churn** — the symmetric-difference fraction of the block's
  address set between consecutive windows, from one overlap count: a
  presence mask over the union holds the previous window, and the
  current window's positions that hit it, counted per /24, are the
  intersection.  An outlier above the block's own baseline marks a
  ``churn`` spike: renumbering.

Robustness choices worth knowing:

- Thresholds are median/MAD per block, so dynamically addressed
  blocks with naturally large day-to-day swings do not false-positive,
  and an absolute floor (:class:`DetectorConfig`) keeps near-constant
  series from flagging on numerically tiny MADs.
- On daily datasets the work-hour blocks carry a weekday/weekend
  seasonality (the ``weekend_work_factor`` swing); every between-window
  boundary is grouped by the weekday classes it spans and each
  channel is residualized against its block's per-group median, so
  the recurring weekend step cancels exactly while a one-off event
  survives.
- An active-count flag suppresses same-(block, window) hits and churn
  flags: an outage necessarily moves all three channels, and the
  active channel is the root cause.
- Flags only become events when at least ``min_blocks`` blocks agree
  on the same (window, kind) — single-block noise never surfaces.

The first window has no predecessor, so nothing is detectable at
window 0; the scenario catalog schedules events from day 2 onward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.core.dataset import ActivityDataset
from repro.core.metrics import compute_block_metrics
from repro.net.ipv4 import format_ip
from repro.obs import context as obs

@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for :func:`detect_events`.

    Attributes:
        min_active_delta: Absolute floor on the active-count first
            difference (addresses) before a step can flag.
        min_log_ratio: Absolute floor on the ``log1p``-hits first
            difference — 0.7 is roughly a 2x volume change.
        min_churn: Absolute floor on a block's churn excess over its
            own median churn.
        mad_k: Robust z-score each channel must exceed (in units of
            ``1.4826 * MAD``) on top of the absolute floor.
        min_blocks: Blocks that must agree on a (window, kind) before
            an event is reported.
    """

    min_active_delta: float = 48.0
    min_log_ratio: float = 0.7
    min_churn: float = 0.35
    mad_k: float = 6.0
    min_blocks: int = 3


@dataclass(frozen=True)
class DetectedEvent:
    """Blocks agreeing on one localized (window, kind) change."""

    window: int
    kind: str
    num_blocks: int
    first_base: int
    last_base: int
    bases: tuple[int, ...]
    magnitude: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (bases rendered as dotted quads)."""
        return {
            "window": self.window,
            "kind": self.kind,
            "num_blocks": self.num_blocks,
            "first_base": format_ip(self.first_base),
            "last_base": format_ip(self.last_base),
            "magnitude": round(self.magnitude, 6),
        }


@dataclass(frozen=True)
class _BlockSeries:
    """Per-block × per-window channel matrices."""

    bases: NDArray[Any]
    active: NDArray[Any]
    hits: NDArray[Any]
    churn: NDArray[Any]


def _block_series(dataset: ActivityDataset) -> _BlockSeries:
    """Active/hits/churn matrices over the dataset index's /24s.

    ``present`` marks the previous window's union positions, so the
    addresses a window shares with it are ``present[positions]``.
    """
    index = dataset.index
    num_blocks = index.block_bases.size
    active = np.zeros((num_blocks, len(dataset)), dtype=np.float64)
    hits = np.zeros_like(active)
    churn = np.zeros_like(active)
    present = np.zeros(index.all_ips.size, dtype=bool)
    previous = np.empty(0, dtype=np.int64)
    previous_count = np.zeros(num_blocks, dtype=np.int64)
    for window, snap in enumerate(dataset.snapshots):
        positions = index.snapshot_positions(window)
        block_idx = index.ip_block_index[positions]
        count = np.bincount(block_idx, minlength=num_blocks)
        active[:, window] = count
        # Summed in snapshot order, as the hit column is stored.
        hits[:, window] = np.bincount(
            block_idx, weights=snap.hits.astype(np.float64), minlength=num_blocks
        )
        if window:
            inter = np.bincount(block_idx[present[positions]], minlength=num_blocks)
            union = previous_count + count - inter
            seen = union > 0
            churn[seen, window] = (union[seen] - inter[seen]) / union[seen]
        present[previous] = False
        present[positions] = True
        previous, previous_count = positions, count
    return _BlockSeries(index.block_bases.astype(np.uint64), active, hits, churn)


def _weekday_classes(dataset: ActivityDataset) -> NDArray[Any]:
    """0 for weekday windows, 1 for weekend — daily datasets only.

    At coarser windows each window mixes both classes, so the weekly
    seasonality averages out and no residual is needed (all zeros).
    """
    if dataset.window_days != 1:
        return np.zeros(len(dataset), dtype=np.int64)
    return np.array(
        [1 if snap.start.weekday() >= 5 else 0 for snap in dataset.snapshots],
        dtype=np.int64,
    )


def _transition_types(classes: NDArray[Any]) -> NDArray[Any]:
    """Class-transition label per between-window boundary.

    Boundary ``i`` (into window ``i + 1``) is labelled by the ordered
    pair of weekday classes it spans, so weekday→weekend boundaries
    form their own baseline group separate from weekday→weekday ones.
    """
    return classes[:-1] * 2 + classes[1:]


def _transition_residuals(
    values: NDArray[Any], transitions: NDArray[Any]
) -> NDArray[Any]:
    """Subtract each block's median per transition type.

    A weekly seasonality produces the *same* step at every boundary of
    a given transition type, so the per-type median removes it exactly
    while a one-off event (one large value in its group) barely moves
    the median and survives as a residual.  Groups too small for a
    robust median (< 3 boundaries) fall back to the block's overall
    median, so short series degrade gracefully instead of silently
    cancelling a real event against itself.
    """
    overall = np.median(values, axis=1, keepdims=True)
    resid = values - overall
    for transition in range(4):
        cols = np.flatnonzero(transitions == transition)
        if cols.size >= 3:
            resid[:, cols] = values[:, cols] - np.median(
                values[:, cols], axis=1, keepdims=True
            )
    return resid


def _step_deltas(
    series: NDArray[Any],
    transitions: NDArray[Any],
    abs_floor: float,
    mad_k: float,
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Seasonality-adjusted first differences and their outlier flags.

    Column ``i`` of the returned arrays describes the step *into*
    window ``i + 1``.
    """
    deltas = _transition_residuals(np.diff(series, axis=1), transitions)
    med = np.median(deltas, axis=1, keepdims=True)
    sigma = 1.4826 * np.median(np.abs(deltas - med), axis=1, keepdims=True)
    threshold = np.maximum(abs_floor, mad_k * sigma)
    return deltas, np.abs(deltas) > threshold


def _churn_flags(
    churn: NDArray[Any],
    transitions: NDArray[Any],
    abs_floor: float,
    mad_k: float,
) -> NDArray[Any]:
    """Outlier flags on the churn matrix (columns 1..W-1 meaningful).

    Churn is already a between-window change measure, so it is
    residualized per transition type (weekend boundaries churn more)
    and thresholded directly.  The scale estimate is the 75th
    percentile of the absolute residuals rather than the MAD: blocks
    whose address sets turn over wholesale on a sizable minority of
    windows (servers, crawlers) then carry a scale near 1.0 and never
    flag, while a genuinely stable block still gets a tight threshold.
    """
    resid = _transition_residuals(churn[:, 1:], transitions)
    scale = np.quantile(np.abs(resid), 0.75, axis=1, keepdims=True)
    flags = np.zeros(churn.shape, dtype=bool)
    flags[:, 1:] = resid > np.maximum(abs_floor, mad_k * scale)
    return flags


def detect_events(
    dataset: ActivityDataset, config: DetectorConfig | None = None
) -> list[DetectedEvent]:
    """Localize exogenous change points in *dataset* to one window.

    Returns events sorted by ``(window, kind)``.  Kinds: ``activation``
    / ``deactivation`` (active-count step up/down), ``surge`` /
    ``quiet`` (hit-volume step with no active step), and ``churn``
    (address-set turnover spike).  An empty list means no window has
    ``min_blocks`` blocks agreeing on a change — the no-event
    baseline.
    """
    if len(dataset) < 2:
        return []
    with obs.span("analyze/detect_events"):
        events = _detect(dataset, _block_series(dataset), config)
        obs.add("analyze_detected_events_total", len(events))
    return events


def _detect(
    dataset: ActivityDataset,
    series: _BlockSeries,
    config: DetectorConfig | None,
) -> list[DetectedEvent]:
    """:func:`detect_events` over the prebuilt *series* of *dataset*
    (at least two windows), untraced."""
    if config is None:
        config = DetectorConfig()
    transitions = _transition_types(_weekday_classes(dataset))
    active_d, active_flag = _step_deltas(
        series.active, transitions, config.min_active_delta, config.mad_k
    )
    hits_d, hits_flag = _step_deltas(
        np.log1p(series.hits),
        transitions,
        config.min_log_ratio,
        config.mad_k,
    )
    churn_flag = _churn_flags(
        series.churn, transitions, config.min_churn, config.mad_k
    )
    # The active step explains the hit and churn moves at its
    # (block, window): report the root cause only.
    calm = ~active_flag
    channels = (
        (active_flag, active_d, "deactivation", "activation"),
        (hits_flag & calm, hits_d, "quiet", "surge"),
        (churn_flag[:, 1:] & calm, series.churn[:, 1:], "churn", "churn"),
    )
    block_bases = series.bases.tolist()
    grouped: dict[tuple[int, str], list[tuple[int, float]]] = {}
    for flags, values, down, up in channels:
        # Row-major: ascending block within each (window, kind).
        for b, i in zip(*np.nonzero(flags)):
            value = float(values[b, i])
            kind = up if value > 0 else down
            grouped.setdefault((int(i) + 1, kind), []).append(
                (block_bases[b], abs(value))
            )
    events = []
    for (window, kind), members in sorted(grouped.items()):
        if len(members) < config.min_blocks:
            continue
        bases = tuple(base for base, _ in members)
        magnitudes = np.array([mag for _, mag in members])
        events.append(
            DetectedEvent(
                window=window,
                kind=kind,
                num_blocks=len(members),
                first_base=bases[0],
                last_base=bases[-1],
                bases=bases,
                magnitude=float(np.median(magnitudes)),
            )
        )
    return events


def scenario_signature(
    dataset: ActivityDataset, config: DetectorConfig | None = None
) -> dict[str, Any]:
    """A compact, pinnable summary of a scenario run's observables.

    The golden-scenario catalog stores this dict (plus the dataset
    SHA-256) per scenario; the CI job recomputes and diffs it.  All
    values are derived deterministically from the dataset, so any
    engine or scenario-compiler drift shows up as a signature diff.
    """
    metrics = compute_block_metrics(dataset)
    series = _block_series(dataset)
    events = _detect(dataset, series, config) if len(dataset) >= 2 else []
    peak_window = 0
    peak_churn = 0.0
    if series.bases.size and len(dataset) >= 2:
        mean_churn = series.churn[:, 1:].mean(axis=0)
        peak_window = int(np.argmax(mean_churn)) + 1
        peak_churn = float(mean_churn[peak_window - 1])
    return {
        "num_windows": len(dataset),
        "window_days": dataset.window_days,
        "num_blocks": int(series.bases.size),
        "median_fd": float(np.median(metrics.filling_degree)),
        "median_stu": round(float(np.median(metrics.stu)), 9),
        "total_active": int(
            sum(snap.ips.size for snap in dataset.snapshots)
        ),
        "total_hits": int(
            sum(int(snap.hits.sum()) for snap in dataset.snapshots)
        ),
        "peak_churn_window": peak_window,
        "peak_churn": round(peak_churn, 9),
        "events": [event.to_dict() for event in events],
    }
