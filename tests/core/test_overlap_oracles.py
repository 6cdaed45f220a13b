"""Per-/24 counts pinned to the frozen implementations they replaced.

``detect._block_series``, ``churn.transition_churn`` and
``churn.churn_by_window_size`` count the overlap of consecutive
windows with presence masks over the dataset index's union, and
``metrics.compute_block_metrics`` runs the ``IncrementalBlockMetrics``
fold over the whole dataset.  The functions below are the versions
they replaced, kept verbatim as the executable spec: a per-/24 slice
of each window compared block by block with ``np.intersect1d``,
``setdiff1d`` up/down sets per window pair (of aggregated windows, for
the sweep), and bincounts over the index's /24 layer for FD and STU.
Equality is exact, dtypes included; the churn fractions and STU come
from the same integer counts and the same single division, so any
drift is a bug, not rounding.  ``index.block_slots``, the slot maps
every store range and the live churn fold count on, is pinned by
decoding its slots back to the addresses.
"""

import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import detect
from repro.core.churn import (
    TransitionChurn,
    churn_by_window_size,
    transition_churn,
)
from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.index import block_slots
from repro.core.metrics import BLOCK_SIZE, BlockMetrics, compute_block_metrics
from repro.core.windows import aggregate_to_window
from repro.errors import DatasetError

DAY0 = datetime.date(2021, 3, 1)

#: A handful of /24s, low offsets so addresses recur across windows.
BLOCK_BASES = (0x0A000000, 0x0A000100, 0x0A000200, 0x51000000, 0xFFFFFF00)


def block_series_oracle(dataset):
    """The per-block ``intersect1d`` series (the replaced implementation)."""
    num_windows = len(dataset)
    parts = [snap.ips & np.uint32(0xFFFFFF00) for snap in dataset.snapshots]
    nonempty = [part for part in parts if part.size]
    if not nonempty:
        empty = np.zeros((0, num_windows), dtype=np.float64)
        return detect._BlockSeries(
            np.empty(0, dtype=np.uint64), empty, empty.copy(), empty.copy()
        )
    bases = np.unique(np.concatenate(nonempty)).astype(np.uint64)
    active = np.zeros((bases.size, num_windows), dtype=np.float64)
    hits = np.zeros_like(active)
    churn = np.zeros_like(active)
    prev_slices = None
    for window, (snap, ip_bases) in enumerate(zip(dataset.snapshots, parts)):
        idx = np.searchsorted(bases, ip_bases.astype(np.uint64))
        active[:, window] = np.bincount(idx, minlength=bases.size)
        hits[:, window] = np.bincount(
            idx, weights=snap.hits.astype(np.float64), minlength=bases.size
        )
        lo = np.searchsorted(snap.ips, bases)
        hi = np.searchsorted(snap.ips, bases + 256)
        cur_slices = [snap.ips[lo[b] : hi[b]] for b in range(bases.size)]
        if prev_slices is not None:
            for b in range(bases.size):
                before, after = prev_slices[b], cur_slices[b]
                if not before.size and not after.size:
                    continue
                inter = np.intersect1d(before, after, assume_unique=True).size
                union = before.size + after.size - inter
                churn[b, window] = (union - inter) / union
        prev_slices = cur_slices
    return detect._BlockSeries(bases, active, hits, churn)


def detect_events_oracle(dataset, config):
    """The block-by-block flag walk over the oracle series."""
    if len(dataset) < 2:
        return []
    series = block_series_oracle(dataset)
    transitions = detect._transition_types(detect._weekday_classes(dataset))
    active_d, active_flag = detect._step_deltas(
        series.active, transitions, config.min_active_delta, config.mad_k
    )
    hits_d, hits_flag = detect._step_deltas(
        np.log1p(series.hits), transitions, config.min_log_ratio, config.mad_k
    )
    churn_flag = detect._churn_flags(
        series.churn, transitions, config.min_churn, config.mad_k
    )
    grouped = {}
    for b in range(series.bases.size):
        base = int(series.bases[b])
        for window in range(1, len(dataset)):
            i = window - 1
            if active_flag[b, i]:
                kind = "activation" if active_d[b, i] > 0 else "deactivation"
                grouped.setdefault((window, kind), []).append(
                    (base, abs(float(active_d[b, i])))
                )
                continue
            if hits_flag[b, i]:
                kind = "surge" if hits_d[b, i] > 0 else "quiet"
                grouped.setdefault((window, kind), []).append(
                    (base, abs(float(hits_d[b, i])))
                )
            if churn_flag[b, window]:
                grouped.setdefault((window, "churn"), []).append(
                    (base, float(series.churn[b, window]))
                )
    events = []
    for (window, kind), members in sorted(grouped.items()):
        if len(members) < config.min_blocks:
            continue
        bases = tuple(base for base, _ in members)
        events.append(
            detect.DetectedEvent(
                window=window,
                kind=kind,
                num_blocks=len(members),
                first_base=bases[0],
                last_base=bases[-1],
                bases=bases,
                magnitude=float(np.median(np.array([mag for _, mag in members]))),
            )
        )
    return events


def transition_churn_oracle(dataset):
    """The ``setdiff1d`` up/down sets per window pair."""
    out = []
    for before, after in zip(dataset.snapshots, dataset.snapshots[1:]):
        out.append(
            TransitionChurn(
                up_count=int(np.setdiff1d(after.ips, before.ips, assume_unique=True).size),
                down_count=int(np.setdiff1d(before.ips, after.ips, assume_unique=True).size),
                active_before=int(before.ips.size),
                active_after=int(after.ips.size),
            )
        )
    return out


def block_metrics_oracle(dataset):
    """FD and STU as bincounts over the index's /24 layer (the replaced body)."""
    index = dataset.index
    if index.all_ips.size == 0:
        raise DatasetError("dataset has no active addresses")
    bases = index.block_bases

    fd = index.block_filling_degree
    activity = np.zeros(bases.size, dtype=np.int64)
    for position in range(len(dataset)):
        block_idx = index.snapshot_block_index(position)
        if block_idx.size == 0:
            continue
        activity += np.bincount(block_idx, minlength=bases.size)
    stu = activity / (BLOCK_SIZE * len(dataset))
    return BlockMetrics(
        bases=bases,
        filling_degree=fd.astype(np.int64),
        stu=stu,
        window_days=dataset.total_days,
    )


def make(columns, window_days=1):
    """A daily (or *window_days*) dataset from ``(addresses, hit scale)`` specs."""
    snapshots = []
    for position, (offsets, hit) in enumerate(columns):
        ips = np.array(sorted(offsets), dtype=np.uint32)
        hits = (np.arange(ips.size, dtype=np.uint64) % 7) * np.uint64(hit) + np.uint64(1)
        snapshots.append(
            Snapshot(
                DAY0 + datetime.timedelta(days=position * window_days),
                window_days,
                ips,
                hits,
            )
        )
    return ActivityDataset(snapshots)


def window_spec():
    """One window: a set of addresses over BLOCK_BASES and a hit scale."""
    address = st.builds(
        lambda base, offset: base + offset,
        st.sampled_from(BLOCK_BASES),
        st.integers(0, 40),
    )
    return st.tuples(
        st.frozensets(address, max_size=60), st.integers(1, 10**6)
    )


@st.composite
def datasets(draw):
    windows = draw(st.lists(window_spec(), min_size=1, max_size=12))
    return make(windows, draw(st.sampled_from([1, 7])))


#: A /24 active in window 0, empty in window 1, refilled in window 2
#: with a mix of old and new addresses, beside a steady /24.
EMPTIES_AND_REFILLS = make(
    [
        ({0x0A000001, 0x0A000002, 0x0A000105}, 3),
        ({0x0A000105}, 3),
        ({0x0A000002, 0x0A000009, 0x0A000105}, 3),
        ({0x0A000002, 0x0A000105}, 3),
    ]
)
#: An address gone for one window and back the next.
SKIPS_ONE_WINDOW = make(
    [({0x0A000001, 0x0A000002}, 1), ({0x0A000002}, 1), ({0x0A000001}, 1)]
)
EMPTY_WINDOWS = make([(set(), 1), ({0x0A000001}, 1), (set(), 1), (set(), 1)])
ALL_EMPTY = make([(set(), 1), (set(), 1), (set(), 1)])
SINGLE_WINDOW = make([({0x0A000001, 0x51000003}, 2)])
WEEKLY = make([({0x0A000001}, 5), ({0x0A000001, 0x0A000101}, 5)], window_days=7)

#: Loose thresholds so random datasets flag: every channel and the
#: grouping get exercised, not only the no-event path.
LOOSE = detect.DetectorConfig(
    min_active_delta=0.5, min_log_ratio=0.05, min_churn=0.01, mad_k=0.5, min_blocks=1
)


def assert_series_equal(ours, theirs):
    for name in ("bases", "active", "hits", "churn"):
        mine, spec = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == spec.dtype, name
        assert mine.shape == spec.shape, name
        assert np.array_equal(mine, spec), name


class TestBlockSeriesOracle:
    @settings(max_examples=150, deadline=None)
    @given(datasets())
    @example(EMPTIES_AND_REFILLS)
    @example(SKIPS_ONE_WINDOW)
    @example(EMPTY_WINDOWS)
    @example(ALL_EMPTY)
    @example(SINGLE_WINDOW)
    @example(WEEKLY)
    def test_series_equal_the_intersect1d_oracle(self, dataset):
        assert_series_equal(detect._block_series(dataset), block_series_oracle(dataset))

    def test_refilled_block_churns_fully_then_partly(self):
        churn = detect._block_series(EMPTIES_AND_REFILLS).churn
        # Block 10.0.0.0/24: emptied (churn 1), refilled (churn 1),
        # then one of two addresses kept (churn 1/2).
        assert churn[0].tolist() == [0.0, 1.0, 1.0, 0.5]


class TestDetectEventsOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        datasets(),
        st.builds(
            detect.DetectorConfig,
            min_active_delta=st.sampled_from([0.5, 2.0]),
            min_log_ratio=st.sampled_from([0.05, 0.7]),
            min_churn=st.sampled_from([0.01, 0.35]),
            mad_k=st.sampled_from([0.5, 6.0]),
            min_blocks=st.integers(1, 3),
        ),
    )
    @example(EMPTIES_AND_REFILLS, LOOSE)
    @example(SKIPS_ONE_WINDOW, LOOSE)
    @example(EMPTY_WINDOWS, LOOSE)
    @example(ALL_EMPTY, LOOSE)
    @example(SINGLE_WINDOW, LOOSE)
    @example(WEEKLY, LOOSE)
    def test_events_equal_the_block_walk_oracle(self, dataset, config):
        ours = detect.detect_events(dataset, config)
        spec = detect_events_oracle(dataset, config)
        # Dataclass equality covers bases (their order too), the first
        # and last base and the exact median magnitude.
        assert ours == spec
        for event in ours:
            assert all(type(base) is int for base in event.bases)

    def test_loose_config_flags_the_refill(self):
        assert detect.detect_events(EMPTIES_AND_REFILLS, LOOSE)


class TestTransitionChurnOracle:
    @settings(max_examples=150, deadline=None)
    @given(datasets().filter(lambda dataset: len(dataset) >= 2))
    @example(EMPTIES_AND_REFILLS)
    @example(SKIPS_ONE_WINDOW)
    @example(EMPTY_WINDOWS)
    @example(ALL_EMPTY)
    @example(WEEKLY)
    def test_counts_equal_the_setdiff1d_oracle(self, dataset):
        ours = transition_churn(dataset)
        assert ours == transition_churn_oracle(dataset)
        for transition in ours:
            assert all(type(count) is int for count in transition.__dict__.values())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(window_spec(), min_size=2, max_size=12))
    def test_window_sweep_equals_the_oracle_per_size(self, windows):
        dataset = make(windows)
        sizes = [size for size in (1, 2, 3, 5) if len(dataset) // size >= 2]
        if not sizes:
            return
        for size, summary in churn_by_window_size(dataset, sizes).items():
            windowed = aggregate_to_window(dataset, size)
            assert list(summary.transitions) == transition_churn_oracle(windowed)


def fresh(dataset):
    """A copy of *dataset* with its own, unbuilt index."""
    return ActivityDataset(dataset.snapshots, dataset.dropped_days)


class TestBlockMetricsOracle:
    @settings(max_examples=150, deadline=None)
    @given(datasets())
    @example(EMPTIES_AND_REFILLS)
    @example(SKIPS_ONE_WINDOW)
    @example(EMPTY_WINDOWS)
    @example(SINGLE_WINDOW)
    @example(WEEKLY)
    @example(make([({0xFFFFFF00, 0xFFFFFFFF}, 2), (set(), 2), ({0xFFFFFF7F}, 2)]))
    def test_metrics_equal_the_bincount_oracle(self, dataset):
        if not any(snapshot.ips.size for snapshot in dataset):
            return
        dataset = fresh(dataset)
        ours = compute_block_metrics(dataset)
        spec = block_metrics_oracle(fresh(dataset))
        for name in ("bases", "filling_degree", "stu"):
            mine, theirs = getattr(ours, name), getattr(spec, name)
            assert mine.dtype == theirs.dtype, name
            assert np.array_equal(mine, theirs), name
        assert ours.bases.dtype == np.uint32
        assert ours.filling_degree.dtype == np.int64
        assert ours.stu.dtype == np.float64
        assert ours.window_days == spec.window_days
        # The fold reads the columns alone; the index stays unbuilt.
        assert dataset._index is None

    def test_empty_dataset_raises_like_the_oracle(self):
        for function in (compute_block_metrics, block_metrics_oracle):
            with pytest.raises(DatasetError, match="no active addresses"):
                function(fresh(ALL_EMPTY))


class TestTotalUnique:
    @settings(max_examples=100, deadline=None)
    @given(datasets())
    @example(ALL_EMPTY)
    @example(EMPTY_WINDOWS)
    def test_count_equals_the_union_without_building_the_index(self, dataset):
        dataset = fresh(dataset)
        count = dataset.total_unique()
        assert type(count) is int
        assert dataset._index is None
        assert count == dataset.all_ips().size
        # Once the index is built the count is read from it.
        assert dataset.total_unique() == count


def decode(slots, bases_of_rows):
    """The addresses a slot column stands for, given each row's /24 base."""
    return bases_of_rows[slots >> np.uint32(8)] | (slots & np.uint32(0xFF))


class TestBlockSlots:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(window_spec(), max_size=8))
    @example([])
    @example([(set(), 1), (set(), 1)])
    @example([({0xFFFFFFFF, 0x0A000000}, 1), (set(), 1), ({0xFFFFFF00}, 1)])
    def test_slots_decode_back_to_the_addresses(self, windows):
        columns = [np.array(sorted(ips), dtype=np.uint32) for ips, _ in windows]
        slots, map_size = block_slots(columns)
        nonempty = [ips for ips in columns if ips.size]
        bases = (
            np.unique(np.concatenate(nonempty) & np.uint32(0xFFFFFF00))
            if nonempty
            else np.empty(0, dtype=np.uint32)
        )
        assert map_size == bases.size * 256
        assert len(slots) == len(columns)
        for ips, column_slots in zip(columns, slots):
            assert column_slots.dtype == np.uint32
            assert np.array_equal(decode(column_slots, bases), ips)
            assert np.all(column_slots < map_size)

    def test_one_address_per_block_across_the_whole_space(self):
        # 2**24 rows: the largest row shifted by 8 still fits uint32.
        # Row r is the /24 at r << 8, so every slot decodes to itself.
        ips = np.arange(2**24, dtype=np.uint32)
        low_bytes = ips & np.uint32(0xFF)
        ips <<= np.uint32(8)
        ips |= low_bytes
        del low_bytes
        (slots,), map_size = block_slots([ips])
        assert map_size == 2**32
        assert slots.dtype == np.uint32
        assert np.array_equal(slots, ips)
