"""Property tests pinning the incremental analyses to their batch spec.

``IncrementalBlockMetrics`` and ``IncrementalChurn`` fold in one window
column at a time.  ``compute_block_metrics`` is itself the metrics
fold run over a whole dataset, so the metrics reference is the frozen
index-based bincount it replaced (``block_metrics_oracle``); churn's
is ``transition_churn`` over the equivalent :class:`ActivityDataset`.
Equality is exact (``np.array_equal`` on the float64 STU, not allclose): the
incremental path accumulates the same integers and performs the same
single division, so any drift is a bug, not rounding.

The crash-boundary property mirrors the serve lifecycle: fold a prefix,
"crash", build fresh accumulators, replay the prefix, continue with the
suffix — the result must be indistinguishable from never crashing.
"""

import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.churn import IncrementalChurn, transition_churn
from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.metrics import IncrementalBlockMetrics, compute_block_metrics
from repro.errors import DatasetError
from tests.core.test_overlap_oracles import block_metrics_oracle

DAY0 = datetime.date(2015, 8, 17)


def columns_strategy(min_snapshots=1):
    """Lists of sorted-unique uint32 columns over a handful of /24s."""
    addresses = st.integers(min_value=0, max_value=5 * 256 - 1)
    column = st.lists(addresses, min_size=0, max_size=40, unique=True).map(
        lambda vals: np.array(sorted(vals), dtype=np.uint32) + np.uint32(0x0A000000)
    )
    return st.lists(column, min_size=min_snapshots, max_size=8)


def column(*ips):
    return np.array(ips, dtype=np.uint32)


#: Hand-picked edge cases for the fold (hypothesis ``@example`` inputs).
TOP_BLOCK = [column(0xFFFFFF00, 0xFFFFFFFF), column(0x0A000001, 0xFFFFFF7F)]
LOWER_BLOCK_LATER = [column(0x0A000401, 0x0A000402), column(0x0A000005)]
REPEATED_ADDRESS = [column(0x0A000007, 0x0A000109), column(0x0A000007)]
EMPTY_PREFIX = [column(), column(), column(0x0A000003)]


def dataset_from(columns, window_days=1):
    snapshots = []
    for position, ips in enumerate(columns):
        snapshots.append(
            Snapshot(
                DAY0 + datetime.timedelta(days=position * window_days),
                window_days,
                ips,
                np.ones(ips.size, dtype=np.uint64),
            )
        )
    return ActivityDataset(snapshots)


def assert_metrics_equal(incremental, batch):
    for name in ("bases", "filling_degree", "stu"):
        assert getattr(incremental, name).dtype == getattr(batch, name).dtype, name
    assert incremental.filling_degree.dtype == np.int64
    assert incremental.stu.dtype == np.float64
    assert np.array_equal(incremental.bases, batch.bases)
    assert np.array_equal(incremental.filling_degree, batch.filling_degree)
    # Exact, not allclose: same integer accumulations, same division.
    assert np.array_equal(incremental.stu, batch.stu)
    assert incremental.window_days == batch.window_days


class TestIncrementalBlockMetrics:
    @settings(max_examples=60, deadline=None)
    @given(columns=columns_strategy())
    @example(columns=TOP_BLOCK)
    @example(columns=LOWER_BLOCK_LATER)
    @example(columns=REPEATED_ADDRESS)
    @example(columns=EMPTY_PREFIX)
    def test_matches_batch_after_every_prefix(self, columns):
        accumulator = IncrementalBlockMetrics(window_days=1)
        for position, ips in enumerate(columns):
            accumulator.update(ips)
            prefix = columns[: position + 1]
            if not any(col.size for col in prefix):
                with pytest.raises(DatasetError):
                    accumulator.result()
                with pytest.raises(DatasetError):
                    compute_block_metrics(dataset_from(prefix))
                continue
            assert_metrics_equal(
                accumulator.result(), block_metrics_oracle(dataset_from(prefix))
            )

    @settings(max_examples=40, deadline=None)
    @given(columns=columns_strategy(min_snapshots=2), data=st.data())
    def test_crash_boundary_replay_is_invisible(self, columns, data):
        crash_at = data.draw(
            st.integers(min_value=1, max_value=len(columns) - 1), label="crash_at"
        )
        uninterrupted = IncrementalBlockMetrics(window_days=1)
        for ips in columns:
            uninterrupted.update(ips)
        # Crash after `crash_at` columns: fresh accumulator, replay the
        # committed prefix, then continue with the live suffix.
        restarted = IncrementalBlockMetrics(window_days=1)
        for ips in columns[:crash_at]:
            restarted.update(ips)
        for ips in columns[crash_at:]:
            restarted.update(ips)
        if not any(col.size for col in columns):
            return
        assert_metrics_equal(restarted.result(), uninterrupted.result())
        assert_metrics_equal(
            restarted.result(), block_metrics_oracle(dataset_from(columns))
        )

    def test_weekly_window_days_scale(self):
        accumulator = IncrementalBlockMetrics(window_days=7)
        columns = [
            np.array([0x0A000001, 0x0A000002], dtype=np.uint32),
            np.array([0x0A000002], dtype=np.uint32),
        ]
        for ips in columns:
            accumulator.update(ips)
        batch = block_metrics_oracle(dataset_from(columns, window_days=7))
        assert_metrics_equal(accumulator.result(), batch)
        assert accumulator.result().window_days == 14

    def test_rejects_bad_window(self):
        with pytest.raises(DatasetError, match="window"):
            IncrementalBlockMetrics(window_days=0)


class TestIncrementalChurn:
    @settings(max_examples=60, deadline=None)
    @given(columns=columns_strategy(min_snapshots=2))
    @example(columns=TOP_BLOCK)
    @example(columns=LOWER_BLOCK_LATER)
    @example(columns=REPEATED_ADDRESS)
    @example(columns=EMPTY_PREFIX)
    def test_matches_batch_transitions(self, columns):
        accumulator = IncrementalChurn()
        for ips in columns:
            accumulator.update(ips)
        assert accumulator.num_snapshots == len(columns)
        assert accumulator.transitions() == transition_churn(dataset_from(columns))

    @settings(max_examples=40, deadline=None)
    @given(columns=columns_strategy(min_snapshots=2), data=st.data())
    def test_crash_boundary_replay_is_invisible(self, columns, data):
        crash_at = data.draw(
            st.integers(min_value=1, max_value=len(columns) - 1), label="crash_at"
        )
        restarted = IncrementalChurn()
        for ips in columns[:crash_at]:
            restarted.update(ips)
        for ips in columns[crash_at:]:
            restarted.update(ips)
        assert restarted.transitions() == transition_churn(dataset_from(columns))

    def test_summary_matches_batch_summary(self):
        columns = [
            np.array([1, 2, 3], dtype=np.uint32),
            np.array([2, 3, 4], dtype=np.uint32),
            np.array([4], dtype=np.uint32),
        ]
        accumulator = IncrementalChurn()
        for ips in columns:
            accumulator.update(ips)
        summary = accumulator.summary(window_days=1)
        assert summary.window_days == 1
        assert list(summary.transitions) == transition_churn(dataset_from(columns))
