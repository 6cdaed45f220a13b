"""Window partitioning helpers (Sec. 4.1).

The paper studies churn at multiple time granularities by partitioning
its daily dataset into non-overlapping windows of a given size and
taking, within each window, the union of active addresses.  The
heavy lifting lives on :class:`~repro.core.dataset.ActivityDataset`
(:meth:`~repro.core.dataset.ActivityDataset.aggregate`); this module
adds the sweep-and-label conveniences the figures need.
"""

from __future__ import annotations

from collections.abc import Sequence, Sized

from repro.core.dataset import ActivityDataset
from repro.errors import DatasetError

#: The window sizes highlighted throughout the paper's churn analysis.
PAPER_WINDOW_SIZES: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 14, 21, 28)


def aggregate_to_window(dataset: ActivityDataset, window_days: int) -> ActivityDataset:
    """Partition a daily dataset into *window_days*-sized unions.

    A thin, validating wrapper over ``dataset.aggregate`` that insists
    on a daily input, since mixing granularities silently would skew
    every churn number downstream.
    """
    if dataset.window_days != 1:
        raise DatasetError(
            f"window aggregation expects a daily dataset, got {dataset.window_days}d"
        )
    if window_days < 1:
        raise DatasetError(f"bad window size: {window_days}")
    return dataset.aggregate(window_days)


def usable_window_sizes(
    dataset: Sized, candidates: Sequence[int] = PAPER_WINDOW_SIZES
) -> list[int]:
    """Window sizes leaving at least two windows (one transition).

    Fig. 4b needs a min/median/max per window size, which requires at
    least one window-to-window transition.  *dataset* is anything whose
    ``len()`` is its day count: a daily dataset or a store.
    """
    return [size for size in candidates if len(dataset) // size >= 2]
