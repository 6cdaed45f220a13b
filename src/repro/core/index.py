"""Shared per-dataset index: the sorted union and its projections.

Every analysis in the paper starts from the same handful of derived
arrays: the sorted union of ever-active addresses (Table 1 totals),
the position of each snapshot's addresses inside that union (the
``searchsorted`` projection behind churn, traffic, and per-AS views),
per-address activity summaries (Fig. 9), and the /24 block keys with
their per-snapshot scatter indices (Figs. 6–8).  Event detection
(:mod:`repro.core.detect`) and churn (:mod:`repro.core.churn`,
Figs. 4a/4b) count consecutive-window overlaps as presence masks over
the same positions; :func:`block_slots` builds the same masks over a
column range's /24 slots for stores and the live fold.  Before this
module existed each figure recomputed those from scratch; on a
multi-million address dataset the union step alone dominated every
analysis pass.

:class:`DatasetIndex` computes each of these layers lazily, exactly
once, and memoizes the result.  Memoization is safe because
:class:`~repro.core.dataset.Snapshot` and
:class:`~repro.core.dataset.ActivityDataset` are append-never after
construction: a dataset's snapshots, and therefore every projection
derived from them, cannot change.  All cached arrays are returned
read-only so an accidental in-place edit cannot poison the cache.

The union itself is built in a single k-way pass — one concatenation
plus one ``np.unique(return_inverse=True)`` — instead of a pairwise
left-fold of two-way merges, which turns window-aggregation sweeps
(Fig. 4b) from quadratic in the window size into linear.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DatasetError
from repro.net.ipv4 import blocks_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.dataset import ActivityDataset, Snapshot


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a cache-owned array read-only and return it."""
    array.flags.writeable = False
    return array


def kway_union_columns(
    ips_parts: Sequence[np.ndarray], hits_parts: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Single-pass union of raw ``(ips, hits)`` columns.

    The core of :func:`kway_union`, usable on bare arrays — the shape
    shard slices arrive in — without wrapping them in snapshots.  Each
    ``ips`` part must be sorted unique (within itself); parts may
    overlap each other.  Hit totals are accumulated in exact ``uint64``
    arithmetic.
    """
    if not ips_parts:
        return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64)
    if len(ips_parts) == 1:
        return ips_parts[0].copy(), hits_parts[0].copy()
    all_ips = np.concatenate(ips_parts)
    ips, inverse = np.unique(all_ips, return_inverse=True)
    hits = np.zeros(ips.size, dtype=np.uint64)
    # inverse has duplicates across parts but not within one (each
    # part's addresses are unique), so scatter per part with plain
    # fancy-index addition instead of the slow np.add.at.
    start = 0
    for part_ips, part_hits in zip(ips_parts, hits_parts):
        stop = start + part_ips.size
        hits[inverse[start:stop]] += part_hits
        start = stop
    return ips, hits


def kway_union(snapshots) -> tuple[np.ndarray, np.ndarray]:
    """Single-pass union of many snapshots: ``(sorted ips, summed hits)``.

    Replaces the pairwise ``Snapshot.merge`` left-fold: one
    concatenation, one sort-based ``unique``, one integer scatter-add.
    Hit totals are accumulated in exact ``uint64`` arithmetic.  The
    result is bit-identical to folding ``merge`` over the snapshots.
    """
    return kway_union_columns(
        [snapshot.ips for snapshot in snapshots],
        [snapshot.hits for snapshot in snapshots],
    )


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal *values* (sorted)."""
    heads = np.empty(values.size, dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def distinct_union(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted distinct values over all *parts*: one sort and one mask.

    numpy's plain ``np.unique`` hashes integer input before sorting,
    which on a world's address columns is several times slower and
    larger at its peak than sorting the concatenation in place.
    """
    if not parts:
        return np.empty(0, dtype=np.uint32)
    values = np.concatenate(parts)
    values.sort()
    return values[_run_heads(values)]


def block_runs(ips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The /24 runs of a sorted column: ``(bases, lengths)``.

    The column is sorted, so each /24 is one contiguous run; its base
    is the run head's masked address.
    """
    blocks = ips & np.uint32(0xFFFFFF00)
    starts = np.flatnonzero(_run_heads(blocks))
    return blocks[starts], np.diff(starts, append=blocks.size)


def block_slots(columns: Sequence[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Each column's addresses as slots in a presence map over its /24s.

    Addresses only — hits play no part in overlaps.  The map has one
    row of 256 slots per /24 active in any column, rows in address
    order, and an address's slot is ``row << 8 | low byte`` (``uint32``:
    a row is below 2**24).  The rows come from each sorted column's /24
    runs (:func:`block_runs`), so only the run heads are sorted, never
    the addresses.  Returns the slots and the map size.
    """
    runs = [block_runs(ips) for ips in columns]
    bases = distinct_union([heads for heads, _ in runs])  # O(active /24s)
    slots = []
    for ips, (heads, lengths) in zip(columns, runs):
        rows = np.searchsorted(bases, heads).astype(np.uint32)
        rows <<= np.uint32(8)
        column_slots = np.repeat(rows, lengths)
        column_slots |= ips & np.uint32(0xFF)
        slots.append(column_slots)
    return slots, bases.size * 256


def iter_union_runs(
    slice_groups: Iterable[tuple[Sequence[np.ndarray], Sequence[np.ndarray]]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Streaming k-way union: one sorted ``(ips, hits)`` run per slice.

    *slice_groups* yields ``(ips_parts, hits_parts)`` pairs, one per
    address-range slice in ascending address order — in practice one
    per store shard (:mod:`repro.core.store`).  Each yielded run is the
    deduplicated, hit-summed union of that slice's columns; empty
    slices are skipped.  Runs are validated to be strictly ascending
    across slices, so concatenating every run reproduces the full
    :func:`kway_union` of the dataset — which this generator never
    materializes: peak memory is one slice's columns plus one run.
    """
    previous_max = -1
    for ips_parts, hits_parts in slice_groups:
        ips, hits = kway_union_columns(list(ips_parts), list(hits_parts))
        if ips.size == 0:
            continue
        if int(ips[0]) <= previous_max:
            raise DatasetError(
                "union runs out of order: a slice starting at "
                f"{int(ips[0]):#010x} overlaps the previous run ending at "
                f"{previous_max:#010x} — slices must cover disjoint, "
                "ascending address ranges"
            )
        previous_max = int(ips[-1])
        yield ips, hits


class DatasetIndex:
    """Lazily computed, memoized projections of one :class:`ActivityDataset`.

    Layers (each computed on first use, then cached):

    - :attr:`all_ips` — sorted union of ever-active addresses;
    - :meth:`snapshot_positions` — per snapshot, the positions of its
      addresses inside :attr:`all_ips`;
    - :attr:`windows_active` / :attr:`total_hits` — per union address,
      the number of snapshots it appears in and its exact ``uint64``
      request total;
    - :attr:`block_bases` / :attr:`ip_block_index` /
      :meth:`snapshot_block_index` — the /24 layer: sorted block base
      addresses, each union address's block row, and per-snapshot
      block scatter indices ready for ``bincount``.

    Obtain one via ``dataset.index``; constructing your own bypasses
    the per-dataset memoization.
    """

    __slots__ = (
        "_block_bases",
        "_dataset",
        "_ip_block_index",
        "_ips",
        "_positions",
        "_total_hits",
        "_windows_active",
    )

    def __init__(self, dataset: "ActivityDataset") -> None:
        self._dataset = dataset
        self._ips: np.ndarray | None = None
        self._positions: list[np.ndarray] | None = None
        self._windows_active: np.ndarray | None = None
        self._total_hits: np.ndarray | None = None
        self._block_bases: np.ndarray | None = None
        self._ip_block_index: np.ndarray | None = None

    # -- union layer ---------------------------------------------------------

    def _ensure_union(self) -> None:
        if self._ips is not None:
            return
        snapshots = list(self._dataset)
        concatenated = np.concatenate([snapshot.ips for snapshot in snapshots])
        ips, inverse = np.unique(concatenated, return_inverse=True)
        bounds = np.cumsum([snapshot.ips.size for snapshot in snapshots])
        self._positions = [
            _frozen(part.astype(np.int64, copy=False))
            for part in np.split(inverse, bounds[:-1])
        ]
        self._ips = _frozen(ips)

    @property
    def all_ips(self) -> np.ndarray:
        """Sorted union of addresses active in any snapshot (read-only)."""
        self._ensure_union()
        return self._ips

    def snapshot_positions(self, index: int) -> np.ndarray:
        """Positions of snapshot *index*'s addresses inside :attr:`all_ips`.

        Equivalent to ``np.searchsorted(all_ips, dataset[index].ips)``,
        computed once for every snapshot in the same pass as the union.
        """
        self._ensure_union()
        return self._positions[index]

    def positions_of(self, ips: np.ndarray) -> np.ndarray:
        """Positions of *ips* (a subset of the union) inside :attr:`all_ips`."""
        return np.searchsorted(self.all_ips, np.asarray(ips, dtype=np.uint32))

    # -- per-address layer ---------------------------------------------------

    def _ensure_per_ip(self) -> None:
        if self._windows_active is not None:
            return
        self._ensure_union()
        # int32 counts *windows* an IP was active in — bounded by the
        # snapshot count (hundreds), nowhere near overflow — and halves
        # the per-address footprint of paper-scale unions.
        windows_active = np.zeros(self._ips.size, dtype=np.int32)  # bounded by len(dataset)
        total_hits = np.zeros(self._ips.size, dtype=np.uint64)
        for position, snapshot in zip(self._positions, self._dataset):
            # Positions within one snapshot are unique (its addresses
            # are), so plain fancy-index addition is exact and avoids
            # the much slower np.add.at general scatter.
            windows_active[position] += 1
            total_hits[position] += snapshot.hits
        self._windows_active = _frozen(windows_active)
        self._total_hits = _frozen(total_hits)

    @property
    def windows_active(self) -> np.ndarray:
        """Per union address, the number of snapshots it appears in."""
        self._ensure_per_ip()
        return self._windows_active

    @property
    def total_hits(self) -> np.ndarray:
        """Per union address, its exact ``uint64`` request total."""
        self._ensure_per_ip()
        return self._total_hits

    def per_ip_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Fig. 9 backbone: ``(ips, windows_active, total_hits)``."""
        return self.all_ips, self.windows_active, self.total_hits

    # -- /24 block layer -----------------------------------------------------

    def _ensure_blocks(self) -> None:
        if self._block_bases is not None:
            return
        blocks = blocks_of(self.all_ips, 24)
        bases, ip_block_index = np.unique(blocks, return_inverse=True)
        self._block_bases = _frozen(bases)
        self._ip_block_index = _frozen(ip_block_index.astype(np.int64, copy=False))

    @property
    def block_bases(self) -> np.ndarray:
        """Sorted /24 base addresses with any activity in the dataset."""
        self._ensure_blocks()
        return self._block_bases

    @property
    def ip_block_index(self) -> np.ndarray:
        """Per union address, the row of its /24 inside :attr:`block_bases`."""
        self._ensure_blocks()
        return self._ip_block_index

    @property
    def block_filling_degree(self) -> np.ndarray:
        """Distinct ever-active addresses per /24 (the Sec. 5.1 FD)."""
        return np.bincount(self.ip_block_index, minlength=self.block_bases.size)

    def snapshot_block_index(self, index: int) -> np.ndarray:
        """Per address of snapshot *index*, its :attr:`block_bases` row.

        Ready to feed ``np.bincount(..., minlength=block_bases.size)``
        for per-snapshot block activity scatters.
        """
        return self.ip_block_index[self.snapshot_positions(index)]
