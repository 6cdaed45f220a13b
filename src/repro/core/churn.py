"""Up/down events and churn percentages (Sec. 4.1, Figs. 4a/4b).

The paper defines an **up event** for an address that is absent in one
window but present in the next, and a **down event** for the reverse.
The headline findings these functions reproduce:

- ~8% of active addresses come and go between consecutive days, with
  weekday/weekend swings up to ~14% (Fig. 4a/4b at x=1);
- churn does *not* vanish at coarser granularity: at 7-day windows and
  beyond it plateaus around 5% (Fig. 4b) — the set of active addresses
  is in constant flux at every timescale.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataset import ActivityDataset
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
    if dataset.window_days != 1:
        raise DatasetError("the window-size sweep expects a daily dataset")
    if window_sizes is None:
        candidates: Sequence[int] = PAPER_WINDOW_SIZES
    else:
        candidates = list(window_sizes)
        for size in candidates:
            if size < 1:
                raise DatasetError(f"bad window size: {size}")
    sizes = usable_window_sizes(dataset, candidates)
    if not sizes:
        raise DatasetError(
            f"no usable window sizes in {list(candidates)}: every size leaves "
            f"fewer than two windows over {len(dataset)} days"
        )
    with obs.span("analyze/churn/window_sweep"):
        columns, map_size = _index_columns(dataset)
        return {
            size: ChurnSummary(size, tuple(_window_transitions(columns, map_size, size)))
            for size in sizes
        }


def _sum_transitions(
    per_shard: Sequence[Sequence[TransitionChurn]], num_transitions: int
) -> list[TransitionChurn]:
    """Per-transition sums of churn counted over disjoint address ranges.

    Up/down events and active counts decompose over disjoint address
    ranges, so summing each transition's counts over the store's shards
    reproduces the count over the whole address space exactly (and a
    store without shards has only zero counts).
    """
    totals = np.zeros((num_transitions, 4), dtype=np.int64)
    for transitions in per_shard:
        totals += np.array([astuple(t) for t in transitions], dtype=np.int64)
    return [TransitionChurn(*(int(count) for count in row)) for row in totals]


def transition_churn_streamed(store: "DatasetStore") -> list[TransitionChurn]:
    """Churn for every consecutive window pair, streamed over a store.

    Produces exactly ``transition_churn(store.to_dataset())`` — the
    in-memory function is the reference spec — in constant memory: a
    fresh :class:`IncrementalChurn` folds each shard's columns, and the
    per-shard counts are summed per transition (:func:`_sum_transitions`).
    """
    if store.num_snapshots < 2:
        raise DatasetError("need at least two windows to measure churn")
    with obs.span("analyze/churn/transitions_streamed"):
        per_shard = []
        for shard in store.iter_shards():
            fold = IncrementalChurn()
            for position in range(store.num_snapshots):
                fold.update(shard.columns(position)[0])
            per_shard.append(fold.transitions())
        out = _sum_transitions(per_shard, store.num_snapshots - 1)
        obs.add("analyze_churn_transitions_total", len(out))
    return out


def daily_churn_streamed(store: "DatasetStore") -> ChurnSummary:
    """Streamed equivalent of :func:`daily_churn` over a store."""
    if store.window_days != 1:
        raise DatasetError("daily churn expects a daily dataset")
    return ChurnSummary(1, tuple(transition_churn_streamed(store)))


def _block_slots(columns: Sequence[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Each column's addresses as slots in a presence map over its /24s.

    Addresses only — hits play no part in churn.  The map has one row
    of 256 slots per /24 active in any column, rows in address order,
    so it is bounded by one address range's blocks and built without
    sorting addresses; returns the slots and the map size.
    """
    mask = np.uint32(0xFFFFFF00)
    nonempty = [ips & mask for ips in columns if ips.size]
    blocks = (
        np.unique(np.concatenate(nonempty))  # O(active /24s of the columns)
        if nonempty
        else np.empty(0, dtype=np.uint32)
    )
    slots = [
        np.searchsorted(blocks, ips & mask) * 256 + (ips & np.uint32(0xFF))
        for ips in columns
    ]
    return slots, blocks.size * 256


def churn_by_window_size_streamed(
    store: "DatasetStore", window_sizes: Sequence[int] | None = None
) -> dict[int, ChurnSummary]:
    """Streamed equivalent of :func:`churn_by_window_size` over a store.

    Same filtering, truncation, and error contract as the in-memory
    sweep.  Per address range, every window size's presence maps are
    built from that range's daily columns (bounded by one range's
    data, see :func:`_block_slots`) and consecutive maps counted
    against each other; window unions restricted to disjoint address
    ranges partition the full window union, so the per-range counts
    sum to the reference exactly.
    """
    if store.window_days != 1:
        raise DatasetError("the window-size sweep expects a daily dataset")
    if window_sizes is None:
        candidates: Sequence[int] = PAPER_WINDOW_SIZES
    else:
        candidates = list(window_sizes)
        for size in candidates:
            if size < 1:
                raise DatasetError(f"bad window size: {size}")
    num_days = store.num_snapshots
    sizes = [size for size in candidates if num_days // size >= 2]
    if not sizes:
        raise DatasetError(
            f"no usable window sizes in {list(candidates)}: every size leaves "
            f"fewer than two windows over {num_days} days"
        )
    per_shard: dict[int, list[list[TransitionChurn]]] = {size: [] for size in sizes}
    with obs.span("analyze/churn/window_sweep_streamed"):
        for shard in store.iter_shards():
            slots, map_size = _block_slots(
                [shard.columns(position)[0] for position in range(num_days)]
            )
            for size in sizes:
                per_shard[size].append(_window_transitions(slots, map_size, size))
    return {
        size: ChurnSummary(
            size, tuple(_sum_transitions(per_shard[size], num_days // size - 1))
        )
        for size in sizes
    }


class IncrementalChurn:
    """Transition churn folded one appended window at a time.

    The one fold behind both out-of-core paths: the live-observatory
    service feeds it one interval per scheduler tick, and the streamed
    transitions above feed a fresh one per store shard.  Each
    :meth:`update` counts one new window column against the previously
    appended one.  Columns are sorted unique ``uint32`` arrays (every
    snapshot's shape), so one binary search of the new column into the
    previous one counts the addresses present in both; up and down
    events are the two columns' sizes less that overlap.  The property
    suites pin :meth:`transitions` equal to the batch reference
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
        previous = self._previous
        if previous is not None:
            both = 0
            if previous.size and column.size:
                found = np.searchsorted(previous, column)
                found[found == previous.size] = 0
                both = int(np.count_nonzero(previous[found] == column))
            self._transitions.append(
                TransitionChurn(
                    up_count=int(column.size) - both,
                    down_count=int(previous.size) - both,
                    active_before=int(previous.size),
                    active_after=int(column.size),
                )
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
