"""Activity datasets: the per-IP aggregates the CDN logs boil down to.

Every analysis in the paper consumes one of two shapes of data
(Table 1): *daily* per-IP request counts over 112 days, or *weekly*
aggregates over a year.  Both are sequences of snapshots, where one
snapshot is the pair *(sorted unique active addresses, request counts)*
for one window of time.  An address is **active** in a snapshot iff it
appears in it — i.e. the CDN served at least one successful request —
exactly the paper's definition (Sec. 3.2).

The storage is deliberately sparse and columnar: a snapshot holds two
parallel numpy arrays.  Memory is proportional to active address-days,
so a year of simulated data stays small while set algebra
(up/down events, unions, intersections) runs at numpy speed on sorted
arrays.
"""

from __future__ import annotations

import datetime
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.index import DatasetIndex, distinct_union, kway_union
from repro.errors import DatasetError


class Snapshot:
    """Active addresses and their hit counts for one time window.

    Attributes:
        start: First day covered by the window.
        days: Window length in days (1 for daily, 7 for weekly, ...).
        ips: Sorted unique ``uint32`` addresses active in the window.
        hits: ``uint64`` request counts aligned with :attr:`ips`.
    """

    __slots__ = ("days", "hits", "ips", "start")

    def __init__(
        self,
        start: datetime.date,
        days: int,
        ips: np.ndarray,
        hits: np.ndarray | None = None,
    ) -> None:
        if days <= 0:
            raise DatasetError(f"non-positive window length: {days}")
        ips = np.asarray(ips, dtype=np.uint32)
        if ips.ndim != 1:
            raise DatasetError("ips must be one-dimensional")
        if ips.size > 1 and not (ips[1:] > ips[:-1]).all():
            raise DatasetError("snapshot ips must be sorted and unique")
        if hits is None:
            hits = np.ones(ips.size, dtype=np.uint64)
        else:
            hits = np.asarray(hits, dtype=np.uint64)
            if hits.shape != ips.shape:
                raise DatasetError(
                    f"hits shape {hits.shape} does not match ips shape {ips.shape}"
                )
            if ips.size and int(hits.min()) == 0:
                raise DatasetError("active addresses must have at least one hit")
        self.start = start
        self.days = int(days)
        self.ips = ips
        self.hits = hits

    # -- basics --------------------------------------------------------

    @property
    def end(self) -> datetime.date:
        """Last day covered (inclusive)."""
        return self.start + datetime.timedelta(days=self.days - 1)

    @property
    def num_active(self) -> int:
        """Number of active addresses in the window."""
        return int(self.ips.size)

    @property
    def total_hits(self) -> int:
        """Total requests served in the window."""
        return int(self.hits.sum())

    def __repr__(self) -> str:
        return (
            f"Snapshot({self.start.isoformat()}, {self.days}d, "
            f"{self.num_active} IPs, {self.total_hits} hits)"
        )

    def __contains__(self, ip: object) -> bool:
        try:
            value = int(ip)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        pos = int(np.searchsorted(self.ips, value))
        return pos < self.ips.size and int(self.ips[pos]) == value

    def contains_many(self, ips: np.ndarray) -> np.ndarray:
        """Vectorised membership test against this snapshot."""
        arr = np.asarray(ips, dtype=np.uint32)
        pos = np.searchsorted(self.ips, arr)
        inside = pos < self.ips.size
        inside[inside] &= self.ips[pos[inside]] == arr[inside]
        return inside

    def hits_of(self, ip: int) -> int:
        """Requests issued by *ip* in this window (0 if inactive)."""
        pos = int(np.searchsorted(self.ips, ip))
        if pos < self.ips.size and int(self.ips[pos]) == ip:
            return int(self.hits[pos])
        return 0

    # -- set algebra -------------------------------------------------------

    def up_from(self, previous: "Snapshot") -> np.ndarray:
        """Addresses active here but not in *previous* (paper: up events)."""
        return np.setdiff1d(self.ips, previous.ips, assume_unique=True)

    def down_to(self, following: "Snapshot") -> np.ndarray:
        """Addresses active here but not in *following* (paper: down events)."""
        return np.setdiff1d(self.ips, following.ips, assume_unique=True)

    def merge(self, other: "Snapshot") -> "Snapshot":
        """Union the two windows (union of IPs, summed hits).

        The windows must be contiguous in time; the result covers both.
        """
        first, second = (self, other) if self.start <= other.start else (other, self)
        if first.start + datetime.timedelta(days=first.days) != second.start:
            raise DatasetError(
                f"cannot merge non-contiguous windows {first.start}+{first.days}d "
                f"and {second.start}"
            )
        ips = np.union1d(first.ips, second.ips)
        hits = np.zeros(ips.size, dtype=np.uint64)
        for part in (first, second):
            pos = np.searchsorted(ips, part.ips)
            hits[pos] += part.hits
        return Snapshot(first.start, first.days + second.days, ips, hits)


class ActivityDataset:
    """A regular sequence of equally sized, contiguous snapshots.

    ``dropped_days`` records how many trailing source days the
    operation that built this dataset discarded (0 for datasets built
    directly from snapshots) — see :meth:`aggregate` for the
    truncation rule.
    """

    def __init__(
        self, snapshots: Sequence[Snapshot], dropped_days: int = 0
    ) -> None:
        if not snapshots:
            raise DatasetError("a dataset needs at least one snapshot")
        if dropped_days < 0:
            raise DatasetError(f"negative dropped-day count: {dropped_days}")
        days = snapshots[0].days
        for left, right in zip(snapshots, snapshots[1:]):
            if right.days != days:
                raise DatasetError("all snapshots must cover the same window length")
            if left.start + datetime.timedelta(days=days) != right.start:
                raise DatasetError(
                    f"snapshots not contiguous at {right.start.isoformat()}"
                )
        self._snapshots = list(snapshots)
        self._index: DatasetIndex | None = None
        self.dropped_days = int(dropped_days)

    @property
    def index(self) -> DatasetIndex:
        """The memoized :class:`~repro.core.index.DatasetIndex`.

        Computed lazily and shared by every analysis over this dataset;
        safe because datasets are append-never after construction.
        """
        if self._index is None:
            self._index = DatasetIndex(self)
        return self._index

    # -- basics ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._snapshots)

    def __getitem__(self, index: int) -> Snapshot:
        return self._snapshots[index]

    def __iter__(self):
        return iter(self._snapshots)

    @property
    def snapshots(self) -> list[Snapshot]:
        return list(self._snapshots)

    @property
    def window_days(self) -> int:
        """Days per snapshot (1 = daily dataset, 7 = weekly, ...)."""
        return self._snapshots[0].days

    @property
    def start(self) -> datetime.date:
        return self._snapshots[0].start

    @property
    def end(self) -> datetime.date:
        return self._snapshots[-1].end

    @property
    def total_days(self) -> int:
        """Days covered by the whole dataset."""
        return len(self) * self.window_days

    def __repr__(self) -> str:
        return (
            f"ActivityDataset({len(self)} x {self.window_days}d snapshots "
            f"from {self.start.isoformat()})"
        )

    # -- aggregates ----------------------------------------------------------

    def active_counts(self) -> np.ndarray:
        """Active addresses per snapshot (the Fig. 4a series)."""
        return np.array([snapshot.num_active for snapshot in self], dtype=np.int64)

    def hit_totals(self) -> np.ndarray:
        """Total hits per snapshot."""
        return np.array([snapshot.total_hits for snapshot in self], dtype=np.int64)

    def all_ips(self) -> np.ndarray:
        """Sorted union of addresses active in any snapshot (Table 1 totals).

        Served from the memoized :attr:`index`; the returned array is
        read-only and shared — copy before mutating.
        """
        return self.index.all_ips

    def total_unique(self) -> int:
        """Number of distinct addresses ever active.

        Read from the index when it is already built; otherwise counted
        from one sort of the snapshots' addresses, which keeps no
        inverse and leaves the index unbuilt.
        """
        if self._index is not None:
            return int(self._index.all_ips.size)
        return int(distinct_union([snapshot.ips for snapshot in self]).size)

    def mean_active(self) -> float:
        """Average active addresses per snapshot (Table 1 averages)."""
        return float(self.active_counts().mean())

    # -- reshaping ------------------------------------------------------------

    def aggregate(self, num_windows: int) -> "ActivityDataset":
        """Merge every *num_windows* consecutive snapshots into one.

        Implements the window aggregation of Fig. 4b: the union of
        active addresses within each larger window.

        Truncation rule: windows never overlap and never straddle the
        end of the data, so the trailing ``len(self) % num_windows``
        snapshots that do not fill a whole window are dropped — the
        paper's non-overlapping-window convention.  The number of
        source *days* discarded this way is exposed as
        ``result.dropped_days`` so callers can account for (or refuse)
        lossy aggregations instead of losing days silently.
        """
        if num_windows <= 0:
            raise DatasetError(f"non-positive aggregation factor: {num_windows}")
        if num_windows == 1:
            # Identity aggregation must not erase the provenance of a
            # prior lossy aggregation.
            return ActivityDataset(self._snapshots, dropped_days=self.dropped_days)
        full = len(self) // num_windows
        if full == 0:
            raise DatasetError(
                f"cannot aggregate {len(self)} snapshots by {num_windows}"
            )
        merged: list[Snapshot] = []
        for group_index in range(full):
            group = self._snapshots[
                group_index * num_windows : (group_index + 1) * num_windows
            ]
            # Snapshots in a dataset are contiguous by construction, so
            # the whole group unions in one k-way pass (no pairwise fold).
            ips, hits = kway_union(group)
            merged.append(
                Snapshot(group[0].start, num_windows * self.window_days, ips, hits)
            )
        dropped = (len(self) - full * num_windows) * self.window_days
        return ActivityDataset(merged, dropped_days=dropped)

    def slice(self, first: int, last: int) -> "ActivityDataset":
        """Dataset restricted to snapshot indexes ``[first, last]``."""
        if not 0 <= first <= last < len(self):
            raise DatasetError(
                f"bad slice [{first}, {last}] for {len(self)} snapshots"
            )
        return ActivityDataset(self._snapshots[first : last + 1])

    def union_snapshot(self, first: int, last: int) -> Snapshot:
        """One merged snapshot over the index range ``[first, last]``."""
        if not 0 <= first <= last < len(self):
            raise DatasetError(
                f"bad union range [{first}, {last}] for {len(self)} snapshots"
            )
        group = self._snapshots[first : last + 1]
        ips, hits = kway_union(group)
        return Snapshot(group[0].start, len(group) * self.window_days, ips, hits)

    # -- per-IP statistics -------------------------------------------------------

    def per_ip_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-address activity summary over the whole dataset.

        Returns ``(ips, windows_active, total_hits)`` where ``ips`` is
        the sorted union of ever-active addresses, ``windows_active``
        counts the snapshots each address appeared in, and
        ``total_hits`` sums its requests.  This is the backbone of the
        activity-vs-traffic analysis (Fig. 9a/9b).

        Served from the memoized :attr:`index`; the arrays are
        read-only and shared — copy before mutating.
        """
        return self.index.per_ip_stats()

    #: Refuse to materialise dense matrices above this many cells.
    _MATRIX_CELL_LIMIT = 200_000_000

    def _check_matrix_size(self, num_rows: int) -> None:
        cells = num_rows * len(self)
        if cells > self._MATRIX_CELL_LIMIT:
            raise DatasetError(
                f"dense matrix of {cells} cells refused; restrict the IP set "
                "or use per_ip_stats() / the streaming analyses instead"
            )

    def presence_matrix(self, ips: np.ndarray | None = None) -> np.ndarray:
        """Boolean activity matrix, shape ``(len(ips), len(self))``.

        Row order follows *ips* (default: the sorted union).  Use for
        block-level spatio-temporal views (Figs. 6/7); for large IP
        sets prefer the streaming per-IP statistics.  Refuses to build
        matrices beyond ~200M cells.
        """
        if ips is None:
            self._check_matrix_size(self.index.all_ips.size)
            matrix = np.zeros((self.index.all_ips.size, len(self)), dtype=bool)
            for column in range(len(self)):
                matrix[self.index.snapshot_positions(column), column] = True
            return matrix
        ips = np.asarray(ips, dtype=np.uint32)
        self._check_matrix_size(ips.size)
        matrix = np.zeros((ips.size, len(self)), dtype=bool)
        for column, snapshot in enumerate(self):
            matrix[:, column] = snapshot.contains_many(ips)
        return matrix

    def hits_matrix(self, ips: np.ndarray | None = None) -> np.ndarray:
        """Per-address, per-snapshot hit counts (0 where inactive)."""
        if ips is None:
            self._check_matrix_size(self.index.all_ips.size)
            matrix = np.zeros((self.index.all_ips.size, len(self)), dtype=np.uint64)
            for column, snapshot in enumerate(self):
                matrix[self.index.snapshot_positions(column), column] = snapshot.hits
            return matrix
        ips = np.asarray(ips, dtype=np.uint32)
        self._check_matrix_size(ips.size)
        matrix = np.zeros((ips.size, len(self)), dtype=np.uint64)
        for column, snapshot in enumerate(self):
            pos = np.searchsorted(snapshot.ips, ips)
            found = pos < snapshot.ips.size
            found[found] &= snapshot.ips[pos[found]] == ips[found]
            matrix[found, column] = snapshot.hits[pos[found]]
        return matrix


def dataset_from_daily_logs(
    start: datetime.date,
    daily_logs: Iterable[tuple[np.ndarray, np.ndarray]],
) -> ActivityDataset:
    """Build a daily dataset from an iterable of ``(ips, hits)`` columns.

    This is the ingestion point mirroring the CDN's distributed
    collection framework: each day contributes the sorted unique client
    addresses and their request counts.
    """
    snapshots = []
    day = start
    for ips, hits in daily_logs:
        snapshots.append(Snapshot(day, 1, ips, hits))
        day += datetime.timedelta(days=1)
    if not snapshots:
        raise DatasetError("no daily logs provided")
    return ActivityDataset(snapshots)
