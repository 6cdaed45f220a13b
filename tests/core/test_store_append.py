"""Tests for the live-store append path (StoreAppender).

A live store commits each interval once, as an immutable one-snapshot
store under ``intervals/<k>/``, and lists the committed intervals in
the root's own ``store.manifest.json``, replaced atomically once per
tick.  These tests pin the crash-safety contract — interval files, then
the manifest replace; a crash at either phase leaves a state from which
deterministic replay rebuilds the identical bytes — and the write-once
contract: no append rewrites or deletes anything under the root, so an
append's bytes do not grow with the history and a reader that opened
the root before a commit still opens it after.  Roots in the retired
layouts (a ``live.json`` pointer naming a ``gen_<k>/`` generation: a
manifest of interval files, or earlier a complete store) have no
reader; appending to one is refused before anything under it changes.
"""

import datetime
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.dataset import ActivityDataset
from repro.core.io import open_store, save_store
from repro.core.store import (
    COMMIT_PHASE_COMMITTED,
    COMMIT_PHASE_WRITTEN,
    DatasetStore,
    RawNpzReader,
    StoreAppender,
    is_store,
    store_manifest_path,
)
from repro.errors import DatasetError
from repro.obs.manifest import dataset_digest
from tests.core.test_store import make_dataset, snap

DAY0 = datetime.date(2015, 8, 17)


def columns_of(dataset):
    return [(s.ips, s.hits) for s in dataset]


def append_all(root, dataset, *, shard_blocks=2, commit_hook=None):
    with StoreAppender(
        root,
        start=DAY0,
        window_days=1,
        shard_blocks=shard_blocks,
        commit_hook=commit_hook,
    ) as appender:
        for ips, hits in columns_of(dataset):
            appender.append(ips, hits)
        assert appender.store is not None
        return appender.store.dataset_sha256


class TestAppend:
    def test_appended_store_matches_batch_store(self, tmp_path):
        dataset = make_dataset()
        batch = save_store(tmp_path / "batch", dataset, shard_blocks=2)
        live_sha = append_all(tmp_path / "live", dataset)
        assert live_sha == batch.dataset_sha256
        batch.close()

    def test_generation_equals_committed_count(self, tmp_path):
        dataset = make_dataset()
        root = tmp_path / "live"
        with StoreAppender(root, start=DAY0, window_days=1) as appender:
            assert appender.committed == 0
            for count, (ips, hits) in enumerate(columns_of(dataset), start=1):
                store = appender.append(ips, hits)
                assert appender.committed == count
                assert store.num_snapshots == count
        assert not (root / "live.json").exists()
        with open_store(root) as reopened:
            assert reopened.num_snapshots == len(dataset)

    def test_root_holds_only_manifest_and_intervals(self, tmp_path):
        root = tmp_path / "live"
        with StoreAppender(root, start=DAY0, window_days=1) as appender:
            for ips, hits in columns_of(make_dataset()):
                appender.append(ips, hits)
                assert sorted(os.listdir(root)) == [
                    "intervals",
                    "store.manifest.json",
                ]

    def test_reader_resolved_before_a_commit_opens_after_it(self, tmp_path):
        # Open the root, commit more intervals, open the root again:
        # every committed column and the committed digest come back,
        # and the early handle still reads its state.
        dataset = make_dataset()
        columns = columns_of(dataset)
        root = tmp_path / "live"
        with StoreAppender(root, start=DAY0, window_days=1) as appender:
            appender.append(*columns[0])
            assert is_store(root)
            early = open_store(root)
            for count, (ips, hits) in enumerate(columns[1:], start=2):
                committed = appender.append(ips, hits)
                with DatasetStore.open(root) as store:
                    assert store.num_snapshots == count
                    assert store.dataset_sha256 == committed.dataset_sha256
                    assert store.digest() == committed.dataset_sha256
                    for expected, got in zip(dataset, store.to_dataset()):
                        assert np.array_equal(expected.ips, got.ips)
                        assert np.array_equal(expected.hits, got.hits)
        with early:
            (only,) = early.to_dataset()
            assert np.array_equal(only.ips, dataset[0].ips)
            assert np.array_equal(only.hits, dataset[0].hits)
        assert committed.dataset_sha256 == dataset_digest(dataset)

    def test_new_blocks_between_appends(self, tmp_path):
        # The second interval activates a /24 far below every block of
        # the first: the union re-tiling must keep ranges sorted and
        # the earlier column intact.
        root = tmp_path / "live"
        with StoreAppender(root, start=DAY0, window_days=1, shard_blocks=1) as app:
            app.append(
                np.array([0x0A000001, 0x0B000005], dtype=np.uint32),
                np.array([3, 4], dtype=np.uint64),
            )
            store = app.append(
                np.array([0x01000002, 0x0A000001], dtype=np.uint32),
                np.array([7, 8], dtype=np.uint64),
            )
            back = store.to_dataset()
        assert np.array_equal(
            back[0].ips, np.array([0x0A000001, 0x0B000005], dtype=np.uint32)
        )
        assert np.array_equal(back[0].hits, np.array([3, 4], dtype=np.uint64))
        assert np.array_equal(
            back[1].ips, np.array([0x01000002, 0x0A000001], dtype=np.uint32)
        )
        assert np.array_equal(back[1].hits, np.array([7, 8], dtype=np.uint64))

    def test_resume_validates_header(self, tmp_path):
        dataset = make_dataset()
        root = tmp_path / "live"
        append_all(root, dataset)
        with pytest.raises(DatasetError, match="window"):
            StoreAppender(root, start=DAY0, window_days=7)
        with pytest.raises(DatasetError, match="start"):
            StoreAppender(
                root, start=DAY0 + datetime.timedelta(days=1), window_days=1
            )

    def test_plain_store_root_is_rejected(self, tmp_path):
        save_store(tmp_path / "plain", make_dataset(), shard_blocks=2).close()
        with pytest.raises(DatasetError, match="plain"):
            StoreAppender(tmp_path / "plain", start=DAY0, window_days=1)

    def test_unsorted_column_is_rejected(self, tmp_path):
        with StoreAppender(tmp_path / "live", start=DAY0, window_days=1) as app:
            with pytest.raises(DatasetError, match="ascending"):
                app.append(
                    np.array([5, 3], dtype=np.uint32),
                    np.array([1, 1], dtype=np.uint64),
                )


class _Bomb(Exception):
    pass


class TestCrashProtocol:
    def run_with_crash(self, tmp_path, crash_interval, crash_phase, after_crash=None):
        """Append with a hook that raises at one commit phase, then
        reopen and finish — the result must match an untouched run.

        *after_crash*, if given, is called with the root between the
        crash and the restart."""
        dataset = make_dataset()
        root = tmp_path / "live"

        def hook(phase):
            if phase == crash_phase and hook.interval == crash_interval:
                raise _Bomb(phase)

        columns = columns_of(dataset)
        with StoreAppender(
            root, start=DAY0, window_days=1, shard_blocks=2, commit_hook=hook
        ) as appender:
            survived = 0
            for interval, (ips, hits) in enumerate(columns, start=1):
                hook.interval = interval
                try:
                    appender.append(ips, hits)
                    survived += 1
                except _Bomb:
                    break
        if after_crash is not None:
            after_crash(root)
        # "Restart": a fresh appender continues from the durable state.
        with StoreAppender(
            root, start=DAY0, window_days=1, shard_blocks=2
        ) as resumed:
            recovered = resumed.committed
            for ips, hits in columns[recovered:]:
                resumed.append(ips, hits)
            sha = resumed.store.dataset_sha256
        batch = save_store(tmp_path / "batch", dataset, shard_blocks=2)
        assert sha == batch.dataset_sha256
        batch.close()
        return survived, recovered

    def test_crash_before_manifest_replace(self, tmp_path):
        # Interval files written, manifest not replaced: the interval is
        # NOT committed; replay rewrites its files bit-identically.
        survived, recovered = self.run_with_crash(
            tmp_path, 2, COMMIT_PHASE_WRITTEN
        )
        assert survived == 1
        assert recovered == 1

    def test_crash_before_first_commit(self, tmp_path):
        # Interval 1's files are written and no root manifest exists
        # yet: a crash state, not a retired layout.  The restart starts
        # from nothing and rewrites interval 1 with the same bytes.
        written = {}

        def crashed(root):
            assert sorted(os.listdir(root)) == ["intervals"]
            assert os.listdir(root / "intervals") == ["000001"]
            assert not is_store(root)
            written.update(
                {path: file_state(path)[1:] for path in interval_files(root, "*")}
            )

        survived, recovered = self.run_with_crash(
            tmp_path, 1, COMMIT_PHASE_WRITTEN, after_crash=crashed
        )
        assert survived == 0
        assert recovered == 0
        assert len(written) == 2  # the shard file and its manifest
        for path, state in written.items():
            assert file_state(path)[1:] == state

    def test_crash_after_manifest_replace(self, tmp_path):
        # Manifest replaced: the interval IS committed even though the
        # appender never returned.
        survived, recovered = self.run_with_crash(
            tmp_path, 2, COMMIT_PHASE_COMMITTED
        )
        assert survived == 1
        assert recovered == 2

    @pytest.mark.parametrize(
        "phase", [COMMIT_PHASE_WRITTEN, COMMIT_PHASE_COMMITTED]
    )
    def test_crash_on_an_interval_adding_a_lower_block(self, tmp_path, phase):
        # Interval 2 activates a /24 below every block of interval 1, so
        # the committed union and the range partition both change at
        # the crash; replay must still converge on the batch bytes.
        dataset = ActivityDataset(
            [
                snap(0, [0x0A000001, 0x0B000005], [3, 4]),
                snap(1, [0x01000002, 0x0A000001], [7, 8]),
                snap(2, [0x01000002, 0x0B000006], [1, 2]),
            ]
        )
        root = tmp_path / "live"

        def hook(at_phase):
            if at_phase == phase and hook.interval == 2:
                raise _Bomb(at_phase)

        with StoreAppender(
            root, start=DAY0, window_days=1, shard_blocks=1, commit_hook=hook
        ) as appender:
            for interval, (ips, hits) in enumerate(columns_of(dataset), start=1):
                hook.interval = interval
                try:
                    appender.append(ips, hits)
                except _Bomb:
                    break
        expected = 2 if phase == COMMIT_PHASE_COMMITTED else 1
        with open_store(root) as crashed:
            assert crashed.num_snapshots == expected
        with StoreAppender(
            root, start=DAY0, window_days=1, shard_blocks=1
        ) as resumed:
            assert resumed.committed == expected
            for ips, hits in columns_of(dataset)[expected:]:
                store = resumed.append(ips, hits)
            assert store.dataset_sha256 == dataset_digest(dataset)
            assert store.block_bases.tolist() == [0x01000000, 0x0A000000, 0x0B000000]
        with open_store(root) as reopened:
            assert reopened.digest() == dataset_digest(dataset)
            assert len(list(reopened.iter_shards())) == 3

    def test_uncommitted_interval_is_ignored_on_open(self, tmp_path):
        dataset = make_dataset()
        root = tmp_path / "live"

        def hook(phase):
            if phase == COMMIT_PHASE_WRITTEN and hook.interval == 3:
                raise _Bomb(phase)

        columns = columns_of(dataset)
        with StoreAppender(
            root, start=DAY0, window_days=1, commit_hook=hook
        ) as appender:
            for interval, (ips, hits) in enumerate(columns, start=1):
                hook.interval = interval
                try:
                    appender.append(ips, hits)
                except _Bomb:
                    break
        # intervals/000003/ exists and is a complete one-snapshot
        # store, but the root manifest still commits two intervals.
        with open_store(root / "intervals" / "000003") as written:
            assert written.num_snapshots == 1
        with open_store(root) as store:
            assert store.num_snapshots == 2
            assert store.digest() == dataset_digest(ActivityDataset(dataset.snapshots[:2]))


class TestColumnSlice:
    def test_slice_reassembles_full_columns(self, tmp_path):
        dataset = make_dataset()
        store = save_store(tmp_path / "store", dataset, shard_blocks=2)
        for index, snapshot in enumerate(dataset):
            ips, hits = store.column_slice(index, 0, 2**32 - 1)
            assert np.array_equal(ips, snapshot.ips)
            assert np.array_equal(hits, snapshot.hits)
        store.close()

    def test_slice_respects_bounds(self, tmp_path):
        dataset = make_dataset()
        store = save_store(tmp_path / "store", dataset, shard_blocks=2)
        ips, hits = store.column_slice(0, 0x0A000100, 0x0A0001FF)
        assert np.array_equal(ips, np.array([0x0A000103], dtype=np.uint32))
        assert np.array_equal(hits, np.array([4], dtype=np.uint64))
        empty_ips, empty_hits = store.column_slice(0, 0xF0000000, 0xF00000FF)
        assert empty_ips.size == 0 and empty_hits.size == 0
        assert empty_ips.dtype == np.uint32 and empty_hits.dtype == np.uint64
        store.close()

    def test_block_bases_union(self, tmp_path):
        # The live store records the /24 union of every appended
        # interval in its root manifest; a reopened store reads it back
        # without touching a column.
        root = tmp_path / "live"
        append_all(root, make_dataset())
        with DatasetStore.open(root) as store:
            assert store.block_bases.tolist() == [
                0x0A000000, 0x0A000100, 0x0B000000, 0xC0000200
            ]
            assert store.num_blocks == 4


def interval_files(root, pattern="shard_*.npz"):
    return sorted(glob.glob(os.path.join(root, "intervals", "*", pattern)))


def file_state(path):
    with open(path, "rb") as stream:
        sha256 = hashlib.sha256(stream.read()).hexdigest()
    stat = os.stat(path)
    return stat.st_ino, stat.st_size, sha256


class TestIntervalLayout:
    def steady_dataset(self, days=8):
        """Same-size days whose /24 set changes, so appends differ only
        in history length."""
        bases = [0x0A000000, 0x0A000100, 0x0B000000, 0x01000000]
        return ActivityDataset(
            [
                snap(
                    day,
                    sorted(bases[(day + k) % len(bases)] + day + k for k in range(3)),
                    [day + 1] * 3,
                )
                for day in range(days)
            ]
        )

    def test_committed_interval_files_are_never_rewritten(self, tmp_path):
        root = str(tmp_path / "live")
        dataset = self.steady_dataset()
        seen = {}
        written = []
        with StoreAppender(root, start=DAY0, window_days=1, shard_blocks=2) as app:
            for interval, (ips, hits) in enumerate(columns_of(dataset), start=1):
                app.append(ips, hits)
                assert len(interval_files(root)) == interval
                files = interval_files(root, "*")
                for path, state in seen.items():
                    assert file_state(path) == state, f"rewritten: {path}"
                fresh = [path for path in files if path not in seen]
                assert len(fresh) == 2  # the shard file and its manifest
                written.append(sum(os.path.getsize(path) for path in fresh))
                seen.update({path: file_state(path) for path in fresh})
        # One interval's bytes per append, whatever the history length
        # (manifests differ only in the digits of their address ranges).
        assert max(written) - min(written) <= 8

    def test_missing_interval_file_is_named(self, tmp_path):
        root = str(tmp_path / "live")
        append_all(root, make_dataset())
        victim = interval_files(root)[1]
        os.unlink(victim)
        with pytest.raises(DatasetError, match="missing store shard") as excinfo:
            open_store(root)
        assert victim in str(excinfo.value)

    def test_bit_flipped_interval_file_fails_verify(self, tmp_path):
        root = str(tmp_path / "live")
        append_all(root, make_dataset())
        victim = interval_files(root)[-1]
        with RawNpzReader(victim) as reader:
            offset = reader.data_offset("ips_0")  # payload, not headers
        with open(victim, "r+b") as stream:
            stream.seek(offset)
            byte = stream.read(1)
            stream.seek(offset)
            stream.write(bytes([byte[0] ^ 0xFF]))
        with open_store(root) as store:
            with pytest.raises(DatasetError, match="fingerprint mismatch") as excinfo:
                store.verify()
        assert victim in str(excinfo.value)


def write_retired_layout(root, dataset, layout):
    """A live root in one of the retired layouts, built by hand.

    ``interval-generations``: interval stores under ``intervals/`` and
    a manifest-only ``gen_<k>/`` whose rows reach them through ``..``.
    ``whole-history``: ``gen_<k>/`` is a complete address-tiled store.
    Either way ``live.json`` names the generation and the root holds
    no manifest of its own.
    """
    generation = root / f"gen_{len(dataset):06d}"
    if layout == "whole-history":
        save_store(generation, dataset, shard_blocks=2).close()
    else:
        append_all(root, dataset)
        with open(store_manifest_path(root)) as handle:
            payload = json.load(handle)
        for row in payload["shards"]:
            row["name"] = f"../{row['name']}"
        os.makedirs(generation)
        with open(store_manifest_path(generation), "w") as handle:
            json.dump(payload, handle)
        os.unlink(store_manifest_path(root))
    with open(root / "live.json", "w") as handle:
        json.dump({"schema": 1, "generation": len(dataset)}, handle)


def tree_state(root):
    """Every path under *root*, with each file's size and SHA-256."""
    state = {}
    for parent, dirs, files in os.walk(root):
        for name in dirs:
            state[os.path.relpath(os.path.join(parent, name), root)] = None
        for name in files:
            path = os.path.join(parent, name)
            state[os.path.relpath(path, root)] = file_state(path)[1:]
    return state


class TestRetiredLayouts:
    @pytest.mark.parametrize("layout", ["interval-generations", "whole-history"])
    def test_retired_root_is_refused_and_left_untouched(
        self, tmp_path, capsys, layout
    ):
        root = tmp_path / "live"
        write_retired_layout(root, make_dataset(), layout)
        before = tree_state(root)
        with pytest.raises(DatasetError, match="legacy layout, now retired") as excinfo:
            StoreAppender(root, start=DAY0, window_days=1, shard_blocks=2)
        message = str(excinfo.value)
        assert "new store directory" in message and "\n" not in message
        code = main(
            [
                "serve",
                "--seed", "4",
                "--ases", "12",
                "--blocks-per-as", "3",
                "--days", "4",
                "--store-dir", str(root),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"repro serve: {message}"]
        assert tree_state(root) == before
        assert not is_store(root)
        with pytest.raises(DatasetError, match="missing store.manifest.json") as excinfo:
            open_store(root)
        assert str(root) in str(excinfo.value)
