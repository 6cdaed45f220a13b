"""Up/down events and churn percentages (Sec. 4.1, Figs. 4a/4b).

The paper defines an **up event** for an address that is absent in one
window but present in the next, and a **down event** for the reverse.
The headline findings these functions reproduce:

- ~8% of active addresses come and go between consecutive days, with
  weekday/weekend swings up to ~14% (Fig. 4a/4b at x=1);
- churn does *not* vanish at coarser granularity: at 7-day windows and
  beyond it plateaus around 5% (Fig. 4b) — the set of active addresses
  is in constant flux at every timescale.

Every overlap is one count, :func:`_window_transitions`, on presence
maps over a dataset index's positions or a column range's /24 slots
(:func:`~repro.core.index.block_slots`: store ranges, the live fold).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataset import ActivityDataset
from repro.core.index import block_slots
from repro.core.windows import PAPER_WINDOW_SIZES, usable_window_sizes
from repro.errors import DatasetError
from repro.obs import context as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.store import DatasetStore


@dataclass(frozen=True)
class TransitionChurn:
    """Churn between one pair of consecutive windows."""

    up_count: int
    down_count: int
    active_before: int
    active_after: int

    @property
    def up_fraction(self) -> float:
        """Up events over the later window's active count (paper's def.)."""
        return self.up_count / self.active_after if self.active_after else 0.0

    @property
    def down_fraction(self) -> float:
        """Down events over the earlier window's active count."""
        return self.down_count / self.active_before if self.active_before else 0.0


@dataclass(frozen=True)
class ChurnSummary:
    """Min/median/max of up/down fractions over all transitions.

    The statistics require at least one transition; accessing any of
    them on an empty summary raises a clear
    :class:`~repro.errors.DatasetError` instead of numpy's cryptic
    zero-size reduction error.
    """

    window_days: int
    transitions: tuple[TransitionChurn, ...]

    def _fractions(self, which: str) -> np.ndarray:
        if not self.transitions:
            raise DatasetError(
                f"churn summary for {self.window_days}d windows has no "
                "transitions — need at least two windows to measure churn"
            )
        return np.array([getattr(t, which) for t in self.transitions])

    @property
    def up_min(self) -> float:
        return float(self._fractions("up_fraction").min())

    @property
    def up_median(self) -> float:
        return float(np.median(self._fractions("up_fraction")))

    @property
    def up_max(self) -> float:
        return float(self._fractions("up_fraction").max())

    @property
    def down_min(self) -> float:
        return float(self._fractions("down_fraction").min())

    @property
    def down_median(self) -> float:
        return float(np.median(self._fractions("down_fraction")))

    @property
    def down_max(self) -> float:
        return float(self._fractions("down_fraction").max())


def transition_churn(dataset: ActivityDataset) -> list[TransitionChurn]:
    """Churn for every consecutive window pair of *dataset*."""
    if len(dataset) < 2:
        raise DatasetError("need at least two windows to measure churn")
    with obs.span("analyze/churn/transitions"):
        out = _window_transitions(*_index_columns(dataset), 1)
        obs.add("analyze_churn_transitions_total", len(out))
    return out


def _window_transitions(
    columns: Sequence[np.ndarray], map_size: int, size: int
) -> list[TransitionChurn]:
    """Churn between consecutive windows of *size* columns, in order.

    Each column holds its addresses' slots in a presence map of
    *map_size* entries.  A window's map is the OR of its columns' slots
    (a partial trailing window is dropped, as in
    :func:`~repro.core.windows.aggregate_to_window`), and two
    consecutive maps hold their windows' overlap as one AND-and-count.
    """
    out: list[TransitionChurn] = []
    before: np.ndarray | None = None
    before_count = 0
    for window in range(len(columns) // size):
        after = np.zeros(map_size, dtype=bool)
        for slots in columns[window * size : (window + 1) * size]:
            after[slots] = True
        after_count = int(np.count_nonzero(after))
        if before is not None:
            both = int(np.count_nonzero(before & after))
            out.append(
                TransitionChurn(after_count - both, before_count - both, before_count, after_count)
            )
        before, before_count = after, after_count
    return out


def _index_columns(dataset: ActivityDataset) -> tuple[list[np.ndarray], int]:
    """Each window's positions in the shared index's union, and its size."""
    index = dataset.index
    return [index.snapshot_positions(w) for w in range(len(dataset))], index.all_ips.size


def daily_churn(dataset: ActivityDataset) -> ChurnSummary:
    """Fig. 4a's companion numbers: daily up/down event statistics."""
    if dataset.window_days != 1:
        raise DatasetError("daily churn expects a daily dataset")
    return ChurnSummary(1, tuple(transition_churn(dataset)))


def up_down_event_series(dataset: ActivityDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-transition up/down event counts (the Fig. 4a bars)."""
    transitions = transition_churn(dataset)
    ups = np.array([t.up_count for t in transitions], dtype=np.int64)
    downs = np.array([t.down_count for t in transitions], dtype=np.int64)
    return ups, downs


def churn_by_window_size(
    dataset: ActivityDataset, window_sizes: Sequence[int] | None = None
) -> dict[int, ChurnSummary]:
    """The Fig. 4b sweep: churn statistics per aggregation window size.

    For every window size, the daily dataset is partitioned into
    non-overlapping unions and churn measured between consecutive
    windows; the caller typically plots min/median/max per size.  The
    unions are presence maps over the shared index's union, built from
    the daily positions, so no window is aggregated or re-indexed.

    Window sizes that leave fewer than two windows (no transition to
    measure) are filtered out, whether the sizes came from the default
    :func:`~repro.core.windows.usable_window_sizes` sweep or were
    passed explicitly — both paths apply the same rule.  If *no*
    requested size is usable the sweep raises a clear
    :class:`~repro.errors.DatasetError` rather than returning an empty
    dict that downstream statistics would trip over.
    """
    sizes = _sweep_sizes(dataset, window_sizes)
    with obs.span("analyze/churn/window_sweep"):
        columns, map_size = _index_columns(dataset)
        return {
            size: ChurnSummary(size, tuple(_window_transitions(columns, map_size, size)))
            for size in sizes
        }


def _sweep_sizes(
    source: "ActivityDataset | DatasetStore", window_sizes: Sequence[int] | None
) -> list[int]:
    """The usable window sizes of a sweep over a daily dataset or store."""
    if source.window_days != 1:
        raise DatasetError("the window-size sweep expects a daily dataset")
    if window_sizes is None:
        candidates: Sequence[int] = PAPER_WINDOW_SIZES
    else:
        candidates = list(window_sizes)
        for size in candidates:
            if size < 1:
                raise DatasetError(f"bad window size: {size}")
    sizes = usable_window_sizes(source, candidates)
    if not sizes:
        raise DatasetError(
            f"no usable window sizes in {list(candidates)}: every size leaves "
            f"fewer than two windows over {len(source)} days"
        )
    return sizes


def _streamed_transitions(
    store: "DatasetStore", sizes: Sequence[int]
) -> dict[int, list[TransitionChurn]]:
    """Churn between consecutive windows of each size, range by range.

    Each range's columns become /24 slot maps, bounded by one range's
    data.  Up/down events and active counts decompose over disjoint
    address ranges, so the per-transition sums are exact.
    """
    num_windows = len(store)
    totals = {
        size: np.zeros((num_windows // size - 1, 4), dtype=np.int64) for size in sizes
    }
    for shard in store.iter_shards():
        slots, map_size = block_slots(
            [shard.columns(position)[0] for position in range(num_windows)]
        )
        for size in sizes:
            totals[size] += np.array(
                [astuple(t) for t in _window_transitions(slots, map_size, size)],
                dtype=np.int64,
            )
    return {
        size: [TransitionChurn(*(int(count) for count in row)) for row in rows]
        for size, rows in totals.items()
    }


def transition_churn_streamed(store: "DatasetStore") -> list[TransitionChurn]:
    """Churn for every consecutive window pair, streamed over a store.

    Produces exactly ``transition_churn(store.to_dataset())``: the
    size-1 case of the streamed sweep's range loop.
    """
    if store.num_snapshots < 2:
        raise DatasetError("need at least two windows to measure churn")
    with obs.span("analyze/churn/transitions_streamed"):
        out = _streamed_transitions(store, [1])[1]
        obs.add("analyze_churn_transitions_total", len(out))
    return out


def daily_churn_streamed(store: "DatasetStore") -> ChurnSummary:
    """Streamed equivalent of :func:`daily_churn` over a store."""
    if store.window_days != 1:
        raise DatasetError("daily churn expects a daily dataset")
    return ChurnSummary(1, tuple(transition_churn_streamed(store)))


def churn_by_window_size_streamed(
    store: "DatasetStore", window_sizes: Sequence[int] | None = None
) -> dict[int, ChurnSummary]:
    """Streamed equivalent of :func:`churn_by_window_size` over a store.

    Same size check, truncation, and error contract as the in-memory
    sweep, counted by :func:`_streamed_transitions`.
    """
    sizes = _sweep_sizes(store, window_sizes)
    with obs.span("analyze/churn/window_sweep_streamed"):
        transitions = _streamed_transitions(store, sizes)
    return {size: ChurnSummary(size, tuple(transitions[size])) for size in sizes}


class IncrementalChurn:
    """Transition churn folded one appended window at a time.

    The live-observatory service feeds it one interval per scheduler
    tick.  Each :meth:`update` counts one new window column against the
    previously appended one with the module's one overlap counter:
    both columns' addresses as /24 slots
    (:func:`~repro.core.index.block_slots`), then
    :func:`_window_transitions` over the pair.  The property suites pin
    :meth:`transitions` equal to the batch reference
    (:func:`transition_churn`) after every prefix of appended intervals.
    """

    def __init__(self) -> None:
        self._previous: np.ndarray | None = None
        self._transitions: list[TransitionChurn] = []

    @property
    def num_snapshots(self) -> int:
        return len(self._transitions) + (0 if self._previous is None else 1)

    def update(self, ips: np.ndarray) -> None:
        """Fold one window column (sorted unique ``uint32``) in."""
        column = np.asarray(ips, dtype=np.uint32)
        if self._previous is not None:
            self._transitions += _window_transitions(
                *block_slots([self._previous, column]), 1
            )
        self._previous = column

    def transitions(self) -> list[TransitionChurn]:
        """Churn for every consecutive pair folded in so far."""
        return list(self._transitions)

    def summary(self, window_days: int) -> ChurnSummary:
        """The :class:`ChurnSummary` over all transitions so far."""
        return ChurnSummary(window_days, tuple(self._transitions))


def churn_plateau(summaries: dict[int, ChurnSummary], from_size: int = 7) -> float:
    """Median up-churn across window sizes >= *from_size*.

    The paper's striking observation is that this does not decay to
    zero — it sits near 5% for weekly and coarser windows.
    """
    values = [
        summary.up_median for size, summary in summaries.items() if size >= from_size
    ]
    if not values:
        raise DatasetError(f"no window sizes >= {from_size} in summary dict")
    return float(np.median(values))
