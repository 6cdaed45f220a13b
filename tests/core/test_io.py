"""Tests for repro.core.io (dataset and routing persistence)."""

import datetime
import pathlib
import tempfile
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.io import (
    _WIDTHS,
    _decode_column,
    _encode_column,
    atomic_write_npz,
    load_dataset,
    load_routing_series,
    parse_routing_table,
    save_dataset,
    save_routing_series,
)
from repro.errors import DatasetError, RoutingError
from repro.net.prefix import Prefix
from repro.obs.manifest import dataset_digest
from repro.routing.series import RoutingSeries
from repro.routing.table import RoutingTable

DAY0 = datetime.date(2015, 8, 17)


def make_dataset():
    return ActivityDataset(
        [
            Snapshot(DAY0, 1, np.array([10, 20], dtype=np.uint32), np.array([3, 7], dtype=np.uint64)),
            Snapshot(
                DAY0 + datetime.timedelta(days=1),
                1,
                np.array([20, 30], dtype=np.uint32),
                np.array([1, 9], dtype=np.uint64),
            ),
        ]
    )


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "activity.npz"
        original = make_dataset()
        save_dataset(path, original)
        loaded = load_dataset(path)
        assert len(loaded) == len(original)
        assert loaded.start == original.start
        assert loaded.window_days == original.window_days
        for snap_a, snap_b in zip(original, loaded):
            assert np.array_equal(snap_a.ips, snap_b.ips)
            assert np.array_equal(snap_a.hits, snap_b.hits)

    def test_weekly_roundtrip(self, tmp_path):
        path = tmp_path / "weekly.npz"
        weekly = ActivityDataset(
            [Snapshot(DAY0, 7, np.array([5], dtype=np.uint32))]
        )
        save_dataset(path, weekly)
        assert load_dataset(path).window_days == 7

    def test_suffixless_roundtrip(self, tmp_path):
        """Regression: save_dataset("data") wrote data.npz (numpy appends
        the suffix) but load_dataset("data") raised FileNotFoundError."""
        prefix = tmp_path / "data"
        original = make_dataset()
        save_dataset(prefix, original)
        assert (tmp_path / "data.npz").exists()
        loaded = load_dataset(prefix)
        assert len(loaded) == len(original)
        assert loaded.hit_totals().tolist() == original.hit_totals().tolist()

    def test_missing_file_raises_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "nonexistent")
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "nonexistent.npz")

    def test_save_is_atomic_no_temp_leftovers(self, tmp_path):
        path = tmp_path / "activity.npz"
        save_dataset(path, make_dataset())
        save_dataset(path, make_dataset())  # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["activity.npz"]
        assert len(load_dataset(path)) == 2

    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        """A crash mid-write must not leave a truncated artifact."""
        real_write_array = np.lib.format.write_array
        written = []

        def boom(*args, **kwargs):
            # Fail mid-bundle: after the header and the first snapshot's
            # ips member have reached the temp file.
            if len(written) == 5:
                raise RuntimeError("disk full")
            written.append(args)
            return real_write_array(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", boom)
        with pytest.raises(RuntimeError):
            save_dataset(tmp_path / "broken.npz", make_dataset())
        assert len(written) == 5
        assert list(tmp_path.iterdir()) == []

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_foreign_npz_error_names_actual_file(self, tmp_path):
        """Regression: a missing-key bundle opened via a suffixless path
        reported the suffixless name, not the .npz file actually read."""
        np.savez(tmp_path / "broken.npz", stuff=np.arange(3))
        with pytest.raises(DatasetError, match=r"broken\.npz"):
            load_dataset(tmp_path / "broken")

    def test_uncompressed_roundtrip(self, tmp_path):
        path = tmp_path / "fast.npz"
        original = make_dataset()
        save_dataset(path, original, compress=False)
        loaded = load_dataset(path)  # load autodetects the storage mode
        assert len(loaded) == len(original)
        for snap_a, snap_b in zip(original, loaded):
            assert np.array_equal(snap_a.ips, snap_b.ips)
            assert np.array_equal(snap_a.hits, snap_b.hits)
            assert snap_a.ips.dtype == snap_b.ips.dtype
            assert snap_a.hits.dtype == snap_b.hits.dtype

    def test_uncompressed_save_is_atomic(self, tmp_path):
        path = tmp_path / "fast.npz"
        save_dataset(path, make_dataset(), compress=False)
        save_dataset(path, make_dataset(), compress=False)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.npz"]

    def test_compression_modes_load_identically(self, tmp_path):
        original = make_dataset()
        save_dataset(tmp_path / "small.npz", original, compress=True)
        save_dataset(tmp_path / "fast.npz", original, compress=False)
        small = load_dataset(tmp_path / "small.npz")
        fast = load_dataset(tmp_path / "fast.npz")
        for snap_a, snap_b in zip(small, fast):
            assert np.array_equal(snap_a.ips, snap_b.ips)
            assert np.array_equal(snap_a.hits, snap_b.hits)

    def test_truncated_npz_names_actual_file(self, tmp_path):
        """Regression: a file cut short mid-write surfaced as a raw
        zipfile.BadZipFile with no path, not a DatasetError."""
        path = tmp_path / "cut.npz"
        save_dataset(path, make_dataset())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DatasetError, match=r"cut\.npz"):
            load_dataset(path)

    def test_garbage_bytes_name_actual_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(DatasetError, match=r"garbage\.npz"):
            load_dataset(path)

    def test_corrupt_member_names_actual_file(self, tmp_path):
        """Valid zip container, rotten payload: the CRC/zlib error must
        still come back as a DatasetError naming the file."""
        import zipfile

        path = tmp_path / "rotten.npz"
        save_dataset(path, make_dataset())
        data = bytearray(path.read_bytes())
        # Flip bytes inside the first member's payload (past the ~60-byte
        # local header + filename) so decompression or the CRC check fails.
        for offset in range(80, 120):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises((DatasetError, zipfile.BadZipFile)) as excinfo:
            load_dataset(path)
        assert excinfo.type is DatasetError
        assert "rotten.npz" in str(excinfo.value)

    def test_save_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        """Durability regression: os.replace alone does not survive a
        power loss — the temp file and its directory must be fsynced."""
        import os
        import stat

        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        save_dataset(tmp_path / "durable.npz", make_dataset())
        assert True in synced  # the containing directory
        assert False in synced  # the temp data file

    def test_roundtrip_simulated(self, tmp_path):
        from repro.sim import CDNObservatory, InternetPopulation, small_config

        world = InternetPopulation.build(small_config(seed=3))
        dataset = CDNObservatory(world).collect_daily(5).dataset
        path = tmp_path / "sim.npz"
        save_dataset(path, dataset)
        loaded = load_dataset(path)
        assert loaded.total_unique() == dataset.total_unique()
        assert loaded.hit_totals().tolist() == dataset.hit_totals().tolist()


def write_bundle(path, version, ips, hits, writer=np.savez):
    """A one-snapshot dataset bundle with hand-chosen column members."""
    writer(
        path,
        version=np.array([version]),
        start=np.array([DAY0.toordinal()]),
        window_days=np.array([1]),
        num_snapshots=np.array([1]),
        ips_0=ips,
        hits_0=hits,
    )


def byte_planes(values, dtype):
    """The v2 member of a column, built by hand: its little-endian bytes."""
    column = np.array(values, dtype=dtype)
    return np.ascontiguousarray(
        column.view(np.uint8).reshape(-1, column.itemsize).T
    )


class TestColumnValidation:
    @pytest.mark.parametrize("writer", [np.savez, np.savez_compressed])
    def test_unsorted_v1_ips_error_names_file(self, tmp_path, writer):
        """Regression: Snapshot's bare "ips must be sorted" error left the
        loader without the path, unlike every other corrupt-file error."""
        path = tmp_path / "unsorted.npz"
        ips = np.array([30, 10, 20], dtype=np.uint32)
        write_bundle(path, 1, ips, np.ones(3, dtype=np.uint64), writer)
        with pytest.raises(DatasetError, match=r"unsorted\.npz.*sorted"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "ips, hits, reason",
        [
            pytest.param(
                byte_planes([5, 0], np.uint8), byte_planes([1, 1], np.uint8),
                "sorted and unique",
                id="zero-gap",
            ),
            pytest.param(
                byte_planes([0xFFFFFFFF, 2], np.uint32),
                byte_planes([1, 1], np.uint8),
                "sorted and unique",
                id="wrapping-gaps",
            ),
            pytest.param(
                np.array([1, 2], dtype=np.uint64), byte_planes([1, 1], np.uint8),
                "ips_0 is not a byte-plane column",
                id="uint64-ips-member",
            ),
            pytest.param(
                byte_planes([1, 2], np.uint64), byte_planes([1, 1], np.uint8),
                "ips_0 is not a byte-plane column",
                id="uint64-gap-planes",
            ),
            pytest.param(
                byte_planes([1, 2], np.uint8).astype(np.int8),
                byte_planes([1, 1], np.uint8),
                "ips_0 is not a byte-plane column",
                id="signed-ips-member",
            ),
            pytest.param(
                byte_planes([1, 2], np.uint8).astype(np.float64),
                byte_planes([1, 1], np.uint8),
                "ips_0 is not a byte-plane column",
                id="float-ips-member",
            ),
            pytest.param(
                np.array([1, 2], dtype=np.uint8), byte_planes([1, 1], np.uint8),
                "ips_0 is not a byte-plane column",
                id="flat-ips-member",
            ),
            pytest.param(
                byte_planes([1, 2], np.uint8), byte_planes([1], np.uint8),
                "does not match",
                id="short-hits",
            ),
            pytest.param(
                byte_planes([1, 2], np.uint8),
                byte_planes([1, 1], np.uint8).astype(np.int16),
                "hits_0 is not a byte-plane column",
                id="signed-hits-member",
            ),
        ],
    )
    def test_corrupt_v2_error_names_file(self, tmp_path, ips, hits, reason):
        path = tmp_path / "bad.npz"
        write_bundle(path, 2, ips, hits)
        with pytest.raises(DatasetError, match=rf"bad\.npz.*{reason}"):
            load_dataset(path)

    def test_unknown_version_error_names_file(self, tmp_path):
        path = tmp_path / "future.npz"
        write_bundle(path, 3, np.array([1], np.uint32), np.array([1], np.uint64))
        with pytest.raises(DatasetError, match=r"future\.npz.*version: 3"):
            load_dataset(path)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: ``dataset_digest`` of :func:`fixture_dataset`, the content of every
#: committed format fixture under ``fixtures/``.
FIXTURE_SHA256 = "50c4a60bc3aa0e5a4cf183ffde0fdf92e3bbb4dbb2b9c99686063357c1effaba"


def fixture_dataset():
    """The dataset every ``fixtures/dataset_*.npz`` file holds.

    ``dataset_v1_compressed.npz`` was written by the writer that
    predates the column codec (``np.savez_compressed``, zlib level 6,
    raw columns), ``dataset_v1_raw.npz`` and ``dataset_v2.npz`` by
    ``save_dataset(..., compress=False)`` and ``save_dataset(...)``.
    """
    columns = [
        (
            [0, 1, 255, 256, 70000, 0x0A000001, 0xFFFFFFFF],
            [1, 255, 256, 65536, 2**32, 7, 2**64 - 1],
        ),
        ([], []),
        ([5, 6, 7], [1, 2, 3]),
    ]
    return ActivityDataset(
        [
            Snapshot(
                DAY0 + datetime.timedelta(days=day),
                1,
                np.array(ips, dtype=np.uint32),
                np.array(hits, dtype=np.uint64),
            )
            for day, (ips, hits) in enumerate(columns)
        ]
    )


def bundle_members(path):
    with np.load(path) as bundle:
        return {
            key: (bundle[key].dtype.str, bundle[key].shape, bundle[key].tobytes())
            for key in bundle.files
        }


def assert_bit_identical(a, b):
    assert (a.start, a.window_days, len(a)) == (b.start, b.window_days, len(b))
    for snap_a, snap_b in zip(a, b):
        assert snap_a.start == snap_b.start and snap_a.days == snap_b.days
        for column_a, column_b in ((snap_a.ips, snap_b.ips), (snap_a.hits, snap_b.hits)):
            assert column_a.dtype == column_b.dtype
            assert column_a.tobytes() == column_b.tobytes()


class TestFormatVersions:
    """One committed bundle per on-disk format; every one keeps loading."""

    @pytest.mark.parametrize(
        "name, version, compress_type",
        [
            ("dataset_v1_compressed.npz", 1, zipfile.ZIP_DEFLATED),
            ("dataset_v1_raw.npz", 1, zipfile.ZIP_STORED),
            ("dataset_v2.npz", 2, zipfile.ZIP_DEFLATED),
        ],
    )
    def test_fixture_loads_to_pinned_digest(self, name, version, compress_type):
        path = FIXTURES / name
        with zipfile.ZipFile(path) as bundle:
            assert {info.compress_type for info in bundle.infolist()} == {compress_type}
        with np.load(path) as bundle:
            assert int(bundle["version"][0]) == version
        loaded = load_dataset(path)
        assert dataset_digest(loaded) == FIXTURE_SHA256
        for snapshot in loaded:
            assert snapshot.ips.dtype == np.uint32
            assert snapshot.hits.dtype == np.uint64
        assert_bit_identical(loaded, fixture_dataset())

    @pytest.mark.parametrize(
        "name, compress", [("dataset_v1_raw.npz", False), ("dataset_v2.npz", True)]
    )
    def test_writer_reproduces_fixture_members(self, tmp_path, name, compress):
        """The writer's format does not drift: the members it writes today
        equal the committed fixture's, dtype, shape and bytes."""
        path = tmp_path / name
        save_dataset(path, fixture_dataset(), compress=compress)
        assert bundle_members(path) == bundle_members(FIXTURES / name)

    def test_raw_bundle_is_byte_for_byte_np_savez(self, tmp_path, monkeypatch):
        """compress=False writes exactly the bytes np.savez writes, so the
        raw readers (zero-copy load, store shards, checkpoints) see no
        change.  The clock is frozen: zip members carry an mtime."""
        import time

        monkeypatch.setattr(time, "time", lambda: 1_500_000_000.0)
        arrays = {
            "version": np.array([1]),
            "ips_0": np.array([3, 9, 0xFFFFFFFF], dtype=np.uint32),
            "hits_0": np.array([1, 2, 2**64 - 1], dtype=np.uint64),
        }
        atomic_write_npz(tmp_path / "ours.npz", arrays.items(), compress=False)
        np.savez(tmp_path / "numpy.npz", **arrays)
        assert (tmp_path / "ours.npz").read_bytes() == (
            tmp_path / "numpy.npz"
        ).read_bytes()

    def test_v2_narrows_each_column(self):
        with np.load(FIXTURES / "dataset_v2.npz") as bundle:
            shapes = {
                key: bundle[key].shape
                for key in bundle.files
                if key.startswith(("ips_", "hits_"))
            }
        assert shapes == {
            "ips_0": (4, 7), "hits_0": (8, 7),
            "ips_1": (1, 0), "hits_1": (1, 0),
            "ips_2": (1, 3), "hits_2": (1, 3),
        }


#: Values at every narrowed dtype's boundary, 0 included.
EDGE_HITS = [0, 255, 256, 2**16, 2**32, 2**64 - 1]
EDGE_IPS = [0, 1, 255, 256, 2**16, 2**24, 0xFFFFFFFE, 0xFFFFFFFF]


@st.composite
def edge_datasets(draw):
    snapshots = []
    for day in range(draw(st.integers(min_value=1, max_value=4))):
        ips = sorted(
            draw(
                st.sets(
                    st.one_of(
                        st.sampled_from(EDGE_IPS),
                        st.integers(min_value=0, max_value=2**32 - 1),
                    ),
                    max_size=12,
                )
            )
        )
        hits = draw(
            st.lists(
                st.one_of(
                    st.sampled_from(EDGE_HITS[1:]),
                    st.integers(min_value=1, max_value=2**64 - 1),
                ),
                min_size=len(ips),
                max_size=len(ips),
            )
        )
        snapshots.append(
            Snapshot(
                DAY0 + datetime.timedelta(days=day),
                1,
                np.array(ips, dtype=np.uint32),
                np.array(hits, dtype=np.uint64),
            )
        )
    return ActivityDataset(snapshots)


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(EDGE_HITS),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
            max_size=16,
        )
    )
    def test_column_codec_roundtrip(self, values):
        column = np.array(values, dtype=np.uint64)
        planes = _encode_column(column)
        top = max(values, default=0)
        width = next(w for w in (1, 2, 4, 8) if top < 2 ** (8 * w))
        assert planes.dtype == np.uint8
        assert planes.shape == (width, column.size)
        decoded = _decode_column(planes, _WIDTHS, "hits_0")
        assert decoded.astype(np.uint64).tobytes() == column.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(edge_datasets(), st.booleans())
    def test_dataset_roundtrip_bit_identical(self, dataset, compress):
        with tempfile.TemporaryDirectory() as directory:
            path = pathlib.Path(directory) / "edge.npz"
            save_dataset(path, dataset, compress=compress)
            loaded = load_dataset(path)
            assert_bit_identical(loaded, dataset)
            assert dataset_digest(loaded) == dataset_digest(dataset)


class TestZeroCopyFastPath:
    def activate(self):
        from repro.obs import context as obs_api
        from repro.obs.context import ObsContext

        return ObsContext(), obs_api

    def test_uncompressed_load_is_memory_mapped(self, tmp_path):
        path = tmp_path / "raw.npz"
        save_dataset(path, make_dataset(), compress=False)
        ctx, obs_api = self.activate()
        with obs_api.activate(ctx):
            loaded = load_dataset(path)
        # Snapshot's asarray turns the memmap into a view of it, so the
        # zero-copy evidence is the base, not the array's own type.
        assert all(isinstance(s.ips.base, np.memmap) for s in loaded)
        assert ctx.metrics.counters["datasets_loaded_zero_copy_total"] == 1
        assert ctx.metrics.gauges["dataset_load_mapped_bytes"] > 0

    def test_compressed_load_takes_the_copy_path(self, tmp_path):
        path = tmp_path / "small.npz"
        save_dataset(path, make_dataset(), compress=True)
        ctx, obs_api = self.activate()
        with obs_api.activate(ctx):
            loaded = load_dataset(path)
        assert not any(isinstance(s.ips.base, np.memmap) for s in loaded)
        assert "datasets_loaded_zero_copy_total" not in ctx.metrics.counters

    def test_fast_path_content_matches_copy_path(self, tmp_path):
        original = make_dataset()
        save_dataset(tmp_path / "raw.npz", original, compress=False)
        loaded = load_dataset(tmp_path / "raw.npz")
        for a, b in zip(original, loaded):
            assert np.array_equal(a.ips, b.ips)
            assert np.array_equal(a.hits, b.hits)


class TestRoutingIO:
    def make_series(self):
        day0 = RoutingTable([(Prefix.parse("10.0.0.0/8"), 100)])
        day2 = day0.copy()
        day2.announce(Prefix.parse("192.0.2.0/24"), 200)
        return RoutingSeries([day0, day0, day2])

    def test_parse_table(self):
        table = parse_routing_table(["10.0.0.0/8|100", "# comment", "", "192.0.2.0/24|200"])
        assert len(table) == 2
        assert table.origin_of_prefix(Prefix.parse("10.0.0.0/8")) == 100

    def test_parse_rejects_garbage(self):
        with pytest.raises(RoutingError):
            parse_routing_table(["10.0.0.0/8"])
        with pytest.raises(RoutingError):
            parse_routing_table(["10.0.0.0/8|asn"])

    def test_series_roundtrip(self, tmp_path):
        path = tmp_path / "rib.txt"
        original = self.make_series()
        save_routing_series(path, original)
        loaded = load_routing_series(path)
        assert len(loaded) == 3
        for day in range(3):
            assert loaded.table_at(day) == original.table_at(day)

    def test_same_marker_dedupes(self, tmp_path):
        path = tmp_path / "rib.txt"
        save_routing_series(path, self.make_series())
        text = path.read_text()
        assert text.count("=== day 1 same") == 1
        # Day 1 content is not repeated on disk.
        assert text.count("10.0.0.0/8|100") == 2  # day 0 and day 2

    def test_loaded_shared_tables_are_shared(self, tmp_path):
        path = tmp_path / "rib.txt"
        save_routing_series(path, self.make_series())
        loaded = load_routing_series(path)
        assert loaded.table_at(0) is loaded.table_at(1)

    def test_rejects_route_data_under_same_marker(self, tmp_path):
        """Regression: route lines after a '=== day N same' marker were
        parsed and then silently thrown away."""
        path = tmp_path / "rib.txt"
        path.write_text(
            "=== day 0\n10.0.0.0/8|100\n=== day 1 same\n192.0.2.0/24|200\n"
        )
        with pytest.raises(RoutingError):
            load_routing_series(path)

    def test_same_marker_tolerates_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "rib.txt"
        path.write_text("=== day 0\n10.0.0.0/8|100\n=== day 1 same\n\n# note\n")
        loaded = load_routing_series(path)
        assert len(loaded) == 2
        assert loaded.table_at(0) is loaded.table_at(1)

    def test_load_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("10.0.0.0/8|100\n")
        with pytest.raises(RoutingError):
            load_routing_series(path)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(RoutingError):
            load_routing_series(path)
