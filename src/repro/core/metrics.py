"""Block activity metrics: filling degree and spatio-temporal utilization.

The two metrics of Sec. 5.1, computed per /24 block:

- **Filling degree (FD)** — the number of distinct addresses in the
  block that were active at least once in the observation window
  (1..256).  Separates static assignment (sparse, typically <64) from
  cycling dynamic pools (≈256).
- **Spatio-temporal utilization (STU)** — active address-days divided
  by the maximum possible (256 × days), in (0, 1].  Separates heavily
  used pools from barely used ones regardless of filling degree.

Both come from one fold, :class:`IncrementalBlockMetrics`, over the
columns of a dataset, of each store shard, or of the live intervals;
an update is a few vector passes over one column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dataset import ActivityDataset
from repro.core.index import block_runs, distinct_union
from repro.errors import DatasetError
from repro.net.ipv4 import block_of
from repro.obs import context as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.store import DatasetStore

BLOCK_SIZE = 256


@dataclass(frozen=True)
class BlockMetrics:
    """Per-/24 filling degree and STU over one observation window."""

    bases: np.ndarray            # sorted /24 base addresses
    filling_degree: np.ndarray   # 1..256 per block
    stu: np.ndarray              # (0, 1] per block
    window_days: int             # total days in the observation window

    def __post_init__(self) -> None:
        if not (self.bases.size == self.filling_degree.size == self.stu.size):
            raise DatasetError("misaligned block metric arrays")

    @property
    def num_blocks(self) -> int:
        return int(self.bases.size)

    def index_of(self, base: int) -> int:
        """Row index of a block base; raises if the block is inactive."""
        pos = int(np.searchsorted(self.bases, base))
        if pos >= self.bases.size or int(self.bases[pos]) != base:
            raise DatasetError(f"block {base:#010x} not active in this window")
        return pos

    def fd_of(self, base: int) -> int:
        return int(self.filling_degree[self.index_of(base)])

    def stu_of(self, base: int) -> float:
        return float(self.stu[self.index_of(base)])

    def select(self, mask: np.ndarray) -> "BlockMetrics":
        """Metrics restricted to the blocks where *mask* is True."""
        return BlockMetrics(
            bases=self.bases[mask],
            filling_degree=self.filling_degree[mask],
            stu=self.stu[mask],
            window_days=self.window_days,
        )


def compute_block_metrics(dataset: ActivityDataset) -> BlockMetrics:
    """FD and STU for every /24 with any activity in *dataset*.

    STU counts one unit per (address, snapshot) pair; with a daily
    dataset that is exactly the paper's active address-days.  For
    coarser windows the denominator scales accordingly (an address
    active in a week contributes one unit out of the week's one).
    The dataset is one /24 range, so this is one
    :class:`IncrementalBlockMetrics` fed every snapshot's addresses.
    """
    with obs.span("analyze/block_metrics"):
        fold = IncrementalBlockMetrics(dataset.window_days)
        for snapshot in dataset:
            fold.update(snapshot.ips)
        result = fold.result()
        obs.add("analyze_blocks_total", result.num_blocks)
        return result


def compute_block_metrics_streamed(store: "DatasetStore") -> BlockMetrics:
    """FD and STU streamed shard-at-a-time over an out-of-core store.

    Produces exactly ``compute_block_metrics(store.to_dataset())``
    without ever materializing the dataset: per-/24 quantities
    decompose over the store's disjoint, 256-aligned shard ranges, so
    the fold :func:`compute_block_metrics` runs over a whole dataset,
    fed one shard's columns, yields a complete, final slice of the
    result.  STU is element-wise over integer counts with the same
    divisor in every slice, so the slices concatenate exactly.  Peak
    memory is one shard's columns plus the per-block state and output.
    """
    with obs.span("analyze/block_metrics_streamed"):
        parts: list[BlockMetrics] = []
        for shard in store.iter_shards():
            fold = IncrementalBlockMetrics(store.window_days)
            for position in range(store.num_snapshots):
                fold.update(shard.columns(position)[0])
            if fold.num_blocks:
                parts.append(fold.result())
        if not parts:
            raise DatasetError("store has no active addresses")
        result = BlockMetrics(
            bases=np.concatenate([part.bases for part in parts]),  # O(active /24s)
            filling_degree=np.concatenate(  # O(active /24s)
                [part.filling_degree for part in parts]
            ),
            stu=np.concatenate([part.stu for part in parts]),  # O(active /24s)
            window_days=store.total_days,
        )
        obs.add("analyze_blocks_total", result.num_blocks)
        return result


class IncrementalBlockMetrics:
    """FD/STU folded one appended snapshot at a time.

    The one fold behind every metrics path: the live-observatory
    service feeds it one interval per scheduler tick,
    :func:`compute_block_metrics_streamed` feeds a fresh one per store
    shard, and :func:`compute_block_metrics` one over the whole
    dataset.  The running state is per /24 only, never per address:

    - a ``(blocks, 256)`` presence map — row *r*, column *o* is True
      once address ``bases[r] + o`` has been active — whose row counts
      are the FD, so an address seen on several days counts once;
    - per-/24 ``int64`` activity totals — the same integers as a
      bincount of the addresses' /24s, so the one
      ``activity / (256 * n)`` division at :meth:`result` time
      produces bit-identical ``float64`` STU.

    An update costs one pass over the column plus, only when the
    column brings a /24 not seen before, one re-index of the per-/24
    state; nothing grows with the address history.

    A frozen copy of the index-based bincount it replaced is the
    executable spec (``tests/core/test_overlap_oracles.py``); the
    property suites pin ``result()`` equal to the batch functions after
    every prefix of appended intervals.
    """

    def __init__(self, window_days: int) -> None:
        if window_days < 1:
            raise DatasetError(f"bad window length: {window_days}")
        self._window_days = window_days
        self._bases = np.empty(0, dtype=np.uint32)
        self._presence = np.zeros((0, BLOCK_SIZE), dtype=bool)
        self._activity = np.empty(0, dtype=np.int64)
        self._num_snapshots = 0

    @property
    def num_snapshots(self) -> int:
        return self._num_snapshots

    @property
    def num_blocks(self) -> int:
        """Distinct /24s active in any snapshot folded in so far."""
        return int(self._bases.size)

    def update(self, ips: np.ndarray) -> None:
        """Fold one window column (sorted unique ``uint32``) in."""
        column = np.asarray(ips, dtype=np.uint32)
        self._num_snapshots += 1
        if column.size == 0:
            return
        new_bases, counts = block_runs(column)
        rows = np.searchsorted(self._bases, new_bases)
        if rows[-1] == self._bases.size or not np.array_equal(
            self._bases[rows], new_bases
        ):
            self._reindex(new_bases)
            rows = np.searchsorted(self._bases, new_bases)
        self._activity[rows] += counts
        # One 1-D scatter of flat indices: faster than a 2-D one.
        slots = np.repeat(rows << 8, counts) | (column & np.uint32(0xFF))
        self._presence.reshape(-1)[slots] = True

    def _reindex(self, new_bases: np.ndarray) -> None:
        """Grow the per-/24 state to the union of known and new bases."""
        bases = distinct_union([self._bases, new_bases])  # O(active /24s)
        keep = np.searchsorted(bases, self._bases)
        presence = np.zeros((bases.size, BLOCK_SIZE), dtype=bool)
        presence[keep] = self._presence
        activity = np.zeros(bases.size, dtype=np.int64)
        activity[keep] = self._activity
        self._bases, self._presence, self._activity = bases, presence, activity

    def result(self) -> BlockMetrics:
        """The metrics over every snapshot folded in so far."""
        if self._bases.size == 0:
            raise DatasetError("dataset has no active addresses")
        return BlockMetrics(
            bases=self._bases.copy(),
            filling_degree=self._presence.sum(axis=1, dtype=np.int64),
            stu=self._activity / (BLOCK_SIZE * self._num_snapshots),
            window_days=self._num_snapshots * self._window_days,
        )


def activity_matrix(dataset: ActivityDataset, block_base: int) -> np.ndarray:
    """The Fig. 6/7 spatio-temporal view: a 256 × windows boolean matrix.

    Row *r* is address ``block_base + r``; column *c* is snapshot *c*;
    a True cell means the address was active in that window.
    """
    base = block_of(block_base, 24)
    matrix = np.zeros((BLOCK_SIZE, len(dataset)), dtype=bool)
    for column, snapshot in enumerate(dataset):
        lo = int(np.searchsorted(snapshot.ips, base))
        hi = int(np.searchsorted(snapshot.ips, base + BLOCK_SIZE))
        offsets = snapshot.ips[lo:hi].astype(np.int64) - base
        matrix[offsets, column] = True
    return matrix


def block_metrics_from_matrix(matrix: np.ndarray) -> tuple[int, float]:
    """``(FD, STU)`` of one activity matrix — the Fig. 6 annotations."""
    if matrix.shape[0] != BLOCK_SIZE or matrix.ndim != 2 or matrix.shape[1] == 0:
        raise DatasetError(f"expected a 256 x windows matrix, got {matrix.shape}")
    fd = int(matrix.any(axis=1).sum())
    stu = float(matrix.sum() / matrix.size)
    return fd, stu


class MonthlyStu(tuple):
    """``(bases, stu_matrix)`` pair that also reports truncation.

    Unpacks exactly like the 2-tuple :func:`monthly_stu` always
    returned, and additionally carries :attr:`dropped_days` — the
    trailing days that did not fill a whole month and were therefore
    excluded from every column.
    """

    def __new__(
        cls, bases: np.ndarray, stu_matrix: np.ndarray, dropped_days: int
    ) -> "MonthlyStu":
        self = super().__new__(cls, (bases, stu_matrix))
        self.dropped_days = int(dropped_days)
        return self

    @property
    def bases(self) -> np.ndarray:
        return self[0]

    @property
    def stu_matrix(self) -> np.ndarray:
        return self[1]


def monthly_stu(dataset: ActivityDataset, month_days: int = 28) -> MonthlyStu:
    """Per-block STU for each month-sized chunk of a daily dataset.

    Returns a :class:`MonthlyStu` — unpackable as ``(bases,
    stu_matrix)`` — with one row per active block and one column per
    month.  Blocks are the union of blocks active in any month; months
    without activity contribute STU 0.  This is the input to the
    change detection of Sec. 5.2 (Fig. 8a).

    Truncation rule: months are non-overlapping ``month_days``-day
    chunks from the start of the dataset; the trailing
    ``len(dataset) % month_days`` days that do not fill a month are
    excluded.  The excluded count is reported as
    ``result.dropped_days`` rather than dropped silently.
    """
    if dataset.window_days != 1:
        raise DatasetError("monthly STU expects a daily dataset")
    num_months = len(dataset) // month_days
    if num_months < 1:
        raise DatasetError(
            f"dataset of {len(dataset)} days has no full {month_days}-day month"
        )
    with obs.span("analyze/monthly_stu"):
        index = dataset.index
        all_bases = index.block_bases
        stu_matrix = np.zeros((all_bases.size, num_months))
        for month in range(num_months):
            for day in range(month * month_days, (month + 1) * month_days):
                idx = index.snapshot_block_index(day)
                if idx.size == 0:
                    continue
                stu_matrix[:, month] += np.bincount(idx, minlength=all_bases.size)
        stu_matrix /= BLOCK_SIZE * month_days
        return MonthlyStu(
            all_bases, stu_matrix, len(dataset) - num_months * month_days
        )
