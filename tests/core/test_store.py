"""Tests for repro.core.store: the out-of-core sharded dataset store.

Covers the satellite edge cases from the out-of-core issue — empty
shard, single shard, a shard boundary that would split a /24, and a
day-range mismatch between shards (which must name both shard files) —
plus bit-identity of the store round-trip and hypothesis properties
pinning the streamed analyses to their in-memory reference spec.
"""

import datetime
import gc
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import churn, metrics
from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.index import iter_union_runs, kway_union
from repro.core.io import (
    export_store,
    load_dataset,
    open_store,
    save_dataset,
    save_store,
)
from repro.core.store import (
    DatasetStore,
    RawNpzReader,
    StoreAppender,
    StoreWriter,
    is_store,
    shard_file_name,
    store_manifest_path,
)
from repro.errors import DatasetError
from repro.obs import context as obs_api
from repro.obs.context import ObsContext
from repro.obs.manifest import dataset_digest

DAY0 = datetime.date(2015, 8, 17)


def snap(day, ips, hits=None):
    ips = np.array(ips, dtype=np.uint32)
    if hits is None:
        hits = np.ones(ips.size, dtype=np.uint64)
    else:
        hits = np.array(hits, dtype=np.uint64)
    return Snapshot(DAY0 + datetime.timedelta(days=day), 1, ips, hits)


def make_dataset():
    """Three days across four /24 blocks (0x0A00000?, far apart)."""
    b0, b1, b2, b3 = 0x0A000000, 0x0A000100, 0x0B000000, 0xC0000200
    return ActivityDataset(
        [
            snap(0, [b0 + 1, b0 + 7, b1 + 3, b2 + 9], [3, 1, 4, 1]),
            snap(1, [b0 + 7, b2 + 9, b3 + 200], [5, 9, 2]),
            snap(2, [b1 + 3, b1 + 4, b3 + 255], [6, 5, 3]),
        ]
    )


class TestRoundTrip:
    def test_store_digest_matches_in_memory_digest(self, tmp_path):
        original = make_dataset()
        store = save_store(tmp_path / "store", original, shard_blocks=2)
        assert store.dataset_sha256 == dataset_digest(original)
        assert store.digest() == store.dataset_sha256
        store.close()

    def test_legacy_to_store_to_legacy_is_bit_identical(self, tmp_path):
        original = make_dataset()
        save_dataset(tmp_path / "x.npz", original)
        loaded = load_dataset(tmp_path / "x.npz")
        save_store(tmp_path / "store", loaded, shard_blocks=1)
        with open_store(tmp_path / "store") as store:
            export_store(store, tmp_path / "back.npz")
        back = load_dataset(tmp_path / "back.npz")
        assert dataset_digest(back) == dataset_digest(original)
        for a, b in zip(original, back):
            assert np.array_equal(a.ips, b.ips)
            assert np.array_equal(a.hits, b.hits)
            assert a.ips.dtype == b.ips.dtype
            assert a.hits.dtype == b.hits.dtype

    def test_to_dataset_mmap_and_copy_agree(self, tmp_path):
        original = make_dataset()
        store = save_store(tmp_path / "store", original, shard_blocks=2)
        mapped = store.to_dataset(mmap=True)
        copied = store.to_dataset(mmap=False)
        for a, b, c in zip(original, mapped, copied):
            assert np.array_equal(a.ips, b.ips)
            assert np.array_equal(a.ips, c.ips)
            assert np.array_equal(a.hits, b.hits)
            assert np.array_equal(a.hits, c.hits)
        store.close()

    def test_single_shard_store(self, tmp_path):
        original = make_dataset()
        store = save_store(tmp_path / "store", original, shard_blocks=4096)
        assert len(store.shards) == 1
        assert store.num_blocks == 4
        assert dataset_digest(store.to_dataset()) == dataset_digest(original)
        store.close()

    def test_shards_tile_active_blocks(self, tmp_path):
        store = save_store(tmp_path / "store", make_dataset(), shard_blocks=3)
        assert [s.info.num_blocks for s in store.shards] == [3, 1]
        assert is_store(tmp_path / "store")
        assert not is_store(tmp_path)
        store.close()

    def test_active_counts_from_headers_only(self, tmp_path):
        original = make_dataset()
        store = save_store(tmp_path / "store", original, shard_blocks=2)
        expected = [s.num_active for s in original]
        assert store.active_counts().tolist() == expected
        assert store.nbytes() > 0
        store.close()

    def test_open_store_counter(self, tmp_path):
        save_store(tmp_path / "store", make_dataset()).close()
        ctx = ObsContext()
        with obs_api.activate(ctx):
            open_store(tmp_path / "store").close()
        assert ctx.metrics.counters["stores_opened_total"] == 1

    def test_union_runs_reproduce_kway_union(self, tmp_path):
        original = make_dataset()
        store = save_store(tmp_path / "store", original, shard_blocks=1)
        runs = list(store.iter_union_runs())
        ips = np.concatenate([r[0] for r in runs])
        hits = np.concatenate([r[1] for r in runs])
        ref_ips, ref_hits = kway_union(list(original))
        assert np.array_equal(ips, ref_ips)
        assert np.array_equal(hits, ref_hits)
        store.close()


class TestHandleLifetimes:
    """Regression tests for the streamed-path handle leaks.

    Found by reprolint's R701/R702 lifetime analysis: the streamed
    digest left every shard reader open (including the throwaway
    shards ``StoreWriter.finalize`` builds), and the union-run
    generator's close-after-yield never ran when the generator was
    abandoned or a shard raised mid-read.
    """

    def test_digest_closes_every_shard(self, tmp_path):
        store = save_store(tmp_path / "store", make_dataset(), shard_blocks=1)
        store.digest()
        assert all(shard._reader is None for shard in store.shards)
        store.close()

    def test_digest_closes_shards_opened_before_an_error(self, tmp_path):
        store = save_store(tmp_path / "store", make_dataset(), shard_blocks=1)
        victim = store.shards[-1]

        def boom():
            raise DatasetError("injected shard failure")

        victim.reader = boom  # shadow the bound method on this instance
        with pytest.raises(DatasetError, match="injected shard failure"):
            store.digest()
        assert all(
            shard._reader is None
            for shard in store.shards
            if shard is not victim
        )
        store.close()

    def test_abandoned_union_run_generator_closes_shards(self, tmp_path):
        store = save_store(tmp_path / "store", make_dataset(), shard_blocks=1)
        runs = store.iter_union_runs()
        next(runs)
        runs.close()  # consumer walks away after the first run
        gc.collect()
        assert all(shard._reader is None for shard in store.shards)
        store.close()

    def test_union_run_error_mid_read_closes_current_shard(self, tmp_path):
        store = save_store(tmp_path / "store", make_dataset(), shard_blocks=1)
        victim = store.shards[1]
        real_columns = victim.columns

        def boom(index, **kwargs):
            real_columns(index)  # open the reader for real, then fail
            raise DatasetError("injected mid-read failure")

        victim.columns = boom
        with pytest.raises(DatasetError, match="injected mid-read"):
            list(store.iter_union_runs())
        assert victim._reader is None
        store.close()


class TestEmptyShard:
    def empty_columns(self, count):
        return [
            (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64))
            for _ in range(count)
        ]

    def test_all_empty_shard_round_trips(self, tmp_path):
        """A shard whose every column is empty is valid (quiet range)."""
        writer = StoreWriter(
            tmp_path / "store", start=DAY0, window_days=1,
            num_snapshots=2, shard_blocks=1,
        )
        writer.add_shard(np.array([0x0A000000]), self.empty_columns(2))
        writer.add_shard(
            np.array([0x0A000100]),
            [
                (np.array([0x0A000105], dtype=np.uint32),
                 np.array([4], dtype=np.uint64)),
                self.empty_columns(1)[0],
            ],
        )
        store = writer.finalize()
        dataset = store.to_dataset()
        assert dataset[0].ips.tolist() == [0x0A000105]
        assert dataset[1].ips.tolist() == []
        reopened = DatasetStore.open(store.root)
        assert reopened.dataset_sha256 == dataset_digest(dataset)
        reopened.close()
        store.close()

    def test_empty_dataset_day_round_trips(self, tmp_path):
        original = ActivityDataset([snap(0, [0x0A000003]), snap(1, [])])
        store = save_store(tmp_path / "store", original, shard_blocks=1)
        back = store.to_dataset()
        assert back[1].ips.size == 0
        assert dataset_digest(back) == dataset_digest(original)
        store.close()


class TestWriterValidation:
    def writer(self, root, num_snapshots=1):
        return StoreWriter(
            root, start=DAY0, window_days=1,
            num_snapshots=num_snapshots, shard_blocks=2,
        )

    def one_column(self, ips, hits=None):
        ips = np.array(ips, dtype=np.uint32)
        if hits is None:
            hits = np.ones(ips.size, dtype=np.uint64)
        return [(ips, np.asarray(hits, dtype=np.uint64))]

    def test_misaligned_base_splits_a_24(self, tmp_path):
        with pytest.raises(DatasetError, match="splits a /24"):
            self.writer(tmp_path).add_shard(
                np.array([0x0A000080]), self.one_column([])
            )

    def test_shards_must_ascend(self, tmp_path):
        writer = self.writer(tmp_path)
        writer.add_shard(np.array([0x0B000000]), self.one_column([]))
        with pytest.raises(DatasetError, match="ascending address order"):
            writer.add_shard(np.array([0x0A000000]), self.one_column([]))

    def test_unsorted_addresses_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="strictly ascending"):
            self.writer(tmp_path).add_shard(
                np.array([0x0A000000]),
                self.one_column([0x0A000005, 0x0A000002]),
            )

    def test_address_outside_shard_range_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="outside shard range"):
            self.writer(tmp_path).add_shard(
                np.array([0x0A000000]), self.one_column([0x0B000005])
            )

    def test_address_in_uncovered_block_rejected(self, tmp_path):
        # In [base_lo, base_hi) overall, but in a /24 the shard skips.
        with pytest.raises(DatasetError, match="outside this shard's block"):
            self.writer(tmp_path).add_shard(
                np.array([0x0A000000, 0x0A000200]),
                self.one_column([0x0A000105]),
            )

    def test_zero_hits_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="at least one hit"):
            self.writer(tmp_path).add_shard(
                np.array([0x0A000000]), self.one_column([0x0A000001], [0])
            )

    def test_wrong_column_count_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="columns"):
            self.writer(tmp_path, num_snapshots=2).add_shard(
                np.array([0x0A000000]), self.one_column([])
            )

    def test_finalize_twice_rejected(self, tmp_path):
        writer = self.writer(tmp_path)
        writer.add_shard(np.array([0x0A000000]), self.one_column([]))
        writer.finalize().close()
        with pytest.raises(DatasetError, match="already finalized"):
            writer.finalize()

    def test_stale_manifest_deleted_up_front(self, tmp_path):
        root = tmp_path / "store"
        save_store(root, make_dataset()).close()
        self.writer(root)  # a new build starts: no store until finalize
        assert not is_store(root)


class TestOpenValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="no dataset store at"):
            DatasetStore.open(tmp_path)

    def test_corrupt_manifest_json(self, tmp_path):
        (tmp_path / "store.manifest.json").write_text("{not json")
        with pytest.raises(DatasetError, match="corrupt or unreadable"):
            DatasetStore.open(tmp_path)

    def doctored(self, tmp_path, mutate):
        import json

        root = tmp_path / "store"
        save_store(root, make_dataset(), shard_blocks=2).close()
        manifest = store_manifest_path(root)
        with open(manifest, encoding="utf-8") as stream:
            payload = json.load(stream)
        mutate(payload)
        with open(manifest, "w", encoding="utf-8") as stream:
            json.dump(payload, stream)
        return root

    def test_bad_schema(self, tmp_path):
        root = self.doctored(tmp_path, lambda p: p.update(schema=99))
        with pytest.raises(DatasetError, match="unsupported store manifest"):
            DatasetStore.open(root)

    def test_missing_field(self, tmp_path):
        root = self.doctored(tmp_path, lambda p: p.pop("num_blocks"))
        with pytest.raises(DatasetError, match="malformed store manifest"):
            DatasetStore.open(root)

    def test_block_count_mismatch(self, tmp_path):
        root = self.doctored(tmp_path, lambda p: p.update(num_blocks=99))
        with pytest.raises(DatasetError, match="shards cover"):
            DatasetStore.open(root)

    def test_shards_must_tile(self, tmp_path):
        root = self.doctored(tmp_path, lambda p: p["shards"].pop(0))
        with pytest.raises(DatasetError, match="do not tile"):
            DatasetStore.open(root)

    def test_missing_shard_file(self, tmp_path):
        root = tmp_path / "store"
        store = save_store(root, make_dataset(), shard_blocks=2)
        store.close()
        (root / store.shards[0].info.name).unlink()
        with pytest.raises(DatasetError, match="missing store shard"):
            DatasetStore.open(root)

    def test_day_range_mismatch_names_both_shards(self, tmp_path):
        """The satellite contract: the error identifies BOTH shard files."""
        short = ActivityDataset(
            [snap(0, [0x0A000001, 0x0B000001]), snap(1, [0x0B000002])]
        )
        long = ActivityDataset(
            [
                snap(0, [0x0A000001, 0x0B000001]),
                snap(1, [0x0B000002]),
                snap(2, [0x0A000004]),
            ]
        )
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        save_store(root_a, long, shard_blocks=1).close()
        save_store(root_b, short, shard_blocks=1).close()
        # Swap in a shard with the same name but a different day range;
        # open() compares headers before fingerprints, so the mismatch
        # must surface as a day-range error naming both files.
        name = shard_file_name(1, 2)
        shutil.copy(root_b / name, root_a / name)
        with pytest.raises(DatasetError, match="day-range mismatch") as excinfo:
            DatasetStore.open(root_a)
        message = str(excinfo.value)
        assert shard_file_name(0, 1) in message
        assert name in message

    def test_verify_detects_bit_rot(self, tmp_path):
        root = tmp_path / "store"
        store = save_store(root, make_dataset(), shard_blocks=2)
        store.verify()  # pristine store passes
        store.close()
        path = root / store.shards[-1].info.name
        with RawNpzReader(path) as reader:
            offset = reader.data_offset("ips_0")  # flip payload, not headers
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        reopened = DatasetStore.open(root)
        with pytest.raises(DatasetError, match="fingerprint mismatch"):
            reopened.verify()
        reopened.close()


class TestStreamedAnalyses:
    def test_metrics_match_reference(self, tmp_path):
        original = make_dataset()
        store = save_store(tmp_path / "store", original, shard_blocks=1)
        reference = metrics.compute_block_metrics(original)
        streamed = metrics.compute_block_metrics_streamed(store)
        assert np.array_equal(streamed.bases, reference.bases)
        assert np.array_equal(streamed.filling_degree, reference.filling_degree)
        assert np.array_equal(streamed.stu, reference.stu)
        assert streamed.window_days == reference.window_days
        store.close()

    def test_churn_matches_reference(self, tmp_path):
        original = make_dataset()
        store = save_store(tmp_path / "store", original, shard_blocks=1)
        assert churn.transition_churn_streamed(store) == churn.transition_churn(
            original
        )
        store.close()

    def test_empty_store_metrics_raise(self, tmp_path):
        original = ActivityDataset([snap(0, []), snap(1, [])])
        store = save_store(tmp_path / "store", original)
        with pytest.raises(DatasetError, match="no active addresses"):
            metrics.compute_block_metrics_streamed(store)
        store.close()

    def test_single_window_churn_raises(self, tmp_path):
        store = save_store(
            tmp_path / "store", ActivityDataset([snap(0, [0x0A000001])])
        )
        with pytest.raises(DatasetError, match="at least two windows"):
            churn.transition_churn_streamed(store)
        store.close()


def _addresses():
    # A handful of /24s spread over the address space, low addresses
    # per block so collisions across days are common (churn-relevant).
    blocks = st.sampled_from(
        [0x0A000000, 0x0A000100, 0x0A000200, 0x51000000, 0xC0000000]
    )
    return st.builds(
        lambda base, offset: base + offset, blocks, st.integers(0, 255)
    )


@st.composite
def daily_datasets(draw):
    num_days = draw(st.integers(min_value=2, max_value=5))
    snapshots = []
    for day in range(num_days):
        ips = sorted(
            draw(st.lists(_addresses(), min_size=0, max_size=25, unique=True))
        )
        hits = draw(
            st.lists(
                st.integers(1, 1000), min_size=len(ips), max_size=len(ips)
            )
        )
        snapshots.append(snap(day, ips, hits))
    return ActivityDataset(snapshots)


class TestStreamedEquivalenceProperties:
    @settings(max_examples=30, deadline=None)
    @given(daily_datasets(), st.integers(min_value=1, max_value=3))
    # An address in the top /24, whose exclusive end overflows uint32.
    @example(
        ActivityDataset([snap(0, [0x0A000001, 0xFFFFFF00]), snap(1, [0xFFFFFFFF])]),
        1,
    )
    # A later day whose /24 sorts below every /24 seen so far.
    @example(
        ActivityDataset([snap(0, [0x51000004, 0xC0000009]), snap(1, [0x0A000002])]),
        3,
    )
    # An address repeated on a later day counts once in FD.
    @example(
        ActivityDataset([snap(0, [0x0A000007, 0x0A000100]), snap(1, [0x0A000007])]),
        2,
    )
    # All-empty days: no active address at all.
    @example(ActivityDataset([snap(0, []), snap(1, [])]), 1)
    def test_streamed_equals_in_memory(self, dataset, shard_blocks):
        # Both layouts: a batch store tiles addresses, a live store
        # appended interval by interval tiles time; every read path
        # (streamed folds, to_dataset, column_slice, digest) must give
        # the in-memory answer on either.
        with tempfile.TemporaryDirectory() as root:
            batch = save_store(f"{root}/batch", dataset, shard_blocks=shard_blocks)
            with StoreAppender(
                f"{root}/live", start=dataset.start, window_days=1,
                shard_blocks=shard_blocks,
            ) as appender:
                for snapshot in dataset:
                    appender.append(snapshot.ips, snapshot.hits)
            live = open_store(f"{root}/live")
            for store in (batch, live):
                check_store_equals_in_memory(store, dataset)
                store.close()


def check_store_equals_in_memory(store, dataset):
    assert store.dataset_sha256 == dataset_digest(dataset)
    assert store.digest() == dataset_digest(dataset)
    for expected, got in zip(dataset, store.to_dataset()):
        assert np.array_equal(expected.ips, got.ips)
        assert np.array_equal(expected.hits, got.hits)
    for index, snapshot in enumerate(dataset):
        bounds = [(0, 2**32 - 1), (0x0A000100, 0x0A0001FF),
                  (0x0A000005, 0x51000003), (0xFFFFFF00, 0xFFFFFFFF)]
        if snapshot.ips.size:
            # Bounds on active addresses: both ends are inclusive.
            first, last = int(snapshot.ips[0]), int(snapshot.ips[-1])
            bounds += [(first, last), (last, last), (first + 1, last - 1)]
        for lo, hi in bounds:
            keep = (snapshot.ips >= lo) & (snapshot.ips <= hi)
            ips, hits = store.column_slice(index, lo, hi)
            assert ips.dtype == np.uint32 and hits.dtype == np.uint64
            assert np.array_equal(ips, snapshot.ips[keep])
            assert np.array_equal(hits, snapshot.hits[keep])
    if not any(s.ips.size for s in dataset):
        with pytest.raises(DatasetError, match="no active addresses"):
            metrics.compute_block_metrics(dataset)
        with pytest.raises(DatasetError, match="no active addresses"):
            metrics.compute_block_metrics_streamed(store)
    else:
        reference = metrics.compute_block_metrics(dataset)
        streamed = metrics.compute_block_metrics_streamed(store)
        for name in ("bases", "filling_degree", "stu"):
            ours, theirs = getattr(streamed, name), getattr(reference, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name
        assert streamed.filling_degree.dtype == np.int64
        assert streamed.stu.dtype == np.float64
        assert streamed.window_days == reference.window_days
    assert churn.transition_churn_streamed(store) == churn.transition_churn(dataset)
    sizes = [1, 2, len(dataset)]
    assert churn.churn_by_window_size_streamed(
        store, sizes
    ) == churn.churn_by_window_size(dataset, sizes)


class TestUnionRunOrdering:
    def test_overlapping_slices_rejected(self):
        a = [np.array([5, 9], dtype=np.uint32)]
        b = [np.array([9, 11], dtype=np.uint32)]
        hits = [np.array([1, 1], dtype=np.uint64)]
        with pytest.raises(DatasetError, match="out of order"):
            list(iter_union_runs(iter([(a, hits), (b, hits)])))


class TestSaveStoreOfCollection:
    def test_save_store_skips_the_index_and_matches_the_digest(self, tmp_path):
        from repro.sim import CDNObservatory, InternetPopulation, small_config

        world = InternetPopulation.build(small_config(seed=11))
        dataset = CDNObservatory(world).collect_daily(6).dataset
        with save_store(tmp_path / "store", dataset, shard_blocks=3) as store:
            # The /24 bases come from each snapshot's own columns: the
            # memoized index (and its full address union) stays unbuilt.
            assert dataset._index is None
            assert len(store.shards) > 1
            assert store.dataset_sha256 == dataset_digest(dataset)
            for a, b in zip(dataset, store.to_dataset()):
                assert np.array_equal(a.ips, b.ips)
                assert np.array_equal(a.hits, b.hits)
