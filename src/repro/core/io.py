"""Persistence for datasets and routing series.

Activity datasets are the expensive artifact of a collection run; the
analyses are cheap by comparison.  These helpers store a dataset (and
a routing series) on disk so a measurement pipeline can separate
collection from analysis, exactly as the paper's distributed log
aggregation precedes its offline study.

Formats:

- datasets: a single ``.npz`` with per-snapshot IP/hit columns plus a
  small header (start date, window length, format version); loads
  back bit-identically.  Two versions exist, and ``load_dataset``
  reads both:

  - **v2** (the default, ``compress=True``): each snapshot's sorted
    ``ips`` are stored as gaps (the first entry is the absolute
    address) and its ``hits`` as they are, each column narrowed to
    the smallest unsigned dtype that holds its maximum and split into
    its little-endian byte planes (a ``uint8`` array of shape
    ``(itemsize, n)``), then deflated at zlib level 1.  On the
    benchmark's world 564 (56 daily snapshots, 33.5 MB of raw
    columns) that writes 5.2 MB in ~0.3 s of CPU, against 10.2 MB in
    ~3 s for numpy's ``savez_compressed`` (zlib level 6) on the raw
    columns, and a load takes ~0.17 s of CPU against ~0.19 s;
  - **v1** (``compress=False``): the raw ``uint32``/``uint64``
    columns, stored uncompressed.  Bundles written before the codec
    hold the same v1 columns deflated at zlib level 6; they still
    load.

  The ``.npz`` suffix is appended when missing, so ``save_dataset("data",
  ds)`` and ``load_dataset("data")`` round-trip; writes are atomic
  (temp file + ``os.replace``), so a crash mid-write cannot leave a
  truncated artifact behind;
- routing tables/series: a line-oriented text format
  (``prefix|origin_asn``) with day separators, mirroring the shape of
  RIB dump exports;
- sharded stores: a directory of raw-member ``.npz`` shards plus a
  JSON manifest (:mod:`repro.core.store`), for worlds too large to
  materialize — :func:`save_store` / :func:`open_store` here convert
  to and from the legacy single-file format bit-identically.

``load_dataset`` additionally has a zero-copy fast path: when every
member of a v1 bundle is stored raw (``compress=False``), the snapshot
columns are memory-mapped read-only instead of being decompressed
through a full in-memory copy per array.
"""

from __future__ import annotations

import datetime
import io as _io
import os
import tempfile
import zipfile
import zlib
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from repro.core.dataset import ActivityDataset, Snapshot
from repro.errors import DatasetError, RoutingError
from repro.net.prefix import Prefix
from repro.obs import context as obs
from repro.routing.series import RoutingSeries
from repro.routing.table import RoutingTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.store import DatasetStore

#: Dataset bundle versions (see the module docstring): v2 holds codec
#: columns, v1 raw ones.  ``compress=False`` still writes v1, which
#: the zero-copy fast path maps straight out of the file.
_FORMAT_VERSION = 2
_RAW_FORMAT_VERSION = 1

#: zlib level of compressed bundles: on byte planes of narrowed
#: columns, level 1 writes a smaller file than level 6 does on the
#: raw columns, at a fraction of the CPU.
_DEFLATE_LEVEL = 1

#: Byte widths of the narrowed dtypes, ``uint8`` to ``uint64``: the
#: byte-plane counts a v2 column may have.  Gaps must fit ``uint32``,
#: the decoded ``ips`` dtype.
_WIDTHS = (1, 2, 4, 8)
_IPS_WIDTHS = (1, 2, 4)

#: The only dtypes a v1 bundle's ``ips_k``/``hits_k`` members may have.
_IPS_DTYPE = np.dtype("<u4")
_HITS_DTYPE = np.dtype("<u8")


def _dataset_path(path: str | os.PathLike[str]) -> str:
    """Canonical on-disk path: append ``.npz`` when missing.

    Save and load both apply it, so ``save_dataset("data", ...)`` and
    ``load_dataset("data")`` name the same file.
    """
    text = os.fspath(path)
    if not text.endswith(".npz"):
        text += ".npz"
    return text


def _fsync_directory(directory: str) -> None:
    """Flush a directory entry to stable storage (best effort).

    After ``os.replace`` the rename itself lives in the directory, so
    durability needs the directory fsynced too.  Platforms that cannot
    open directories (e.g. Windows) skip silently — the rename is still
    atomic there, just not durable against power loss.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_npz(
    path: str | os.PathLike[str],
    arrays: Iterable[tuple[str, NDArray[Any]]],
    compress: bool = True,
) -> None:
    """Durably and atomically write *arrays* as an ``.npz`` at *path*.

    *arrays* yields ``(name, array)`` members in file order; a
    generator lets the caller build each member only as it is written.
    ``compress=False`` stores the members raw, byte for byte what
    ``np.savez`` writes; ``compress=True`` deflates them at zlib level
    :data:`_DEFLATE_LEVEL`.  Either way ``np.load`` opens the result.

    The data goes to a temporary file in the target's directory, is
    fsynced, renamed over *path*, and the directory entry is fsynced —
    so a crash (or power loss on a journaled filesystem) at any point
    leaves either the old file or the complete new one, never a
    truncated artifact.  Shared by :func:`save_dataset` and the
    collection engine's shard checkpoints.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    handle, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
    )
    compression = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    try:
        with os.fdopen(handle, "wb") as stream:
            with zipfile.ZipFile(
                stream, "w", compression, allowZip64=True,
                compresslevel=_DEFLATE_LEVEL,
            ) as bundle:
                for name, array in arrays:
                    # force_zip64 as np.savez does: a member's size is
                    # unknown until it has been streamed.
                    with bundle.open(name + ".npy", "w", force_zip64=True) as member:
                        np.lib.format.write_array(
                            member, np.asanyarray(array), allow_pickle=False
                        )
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, target)
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: str | os.PathLike[str], text: str, encoding: str = "utf-8"
) -> None:
    """Durably and atomically write *text* at *path*.

    The same temp-file + fsync + rename + directory-fsync discipline as
    :func:`atomic_write_npz`, for small text artifacts (run manifests,
    exported metrics) that must never exist half-written next to a
    complete dataset.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    handle, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(handle, "w", encoding=encoding) as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, target)
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _encode_column(column: NDArray[Any]) -> NDArray[np.uint8]:
    """The v2 form of one column: narrowed, then split into byte planes.

    The column is cast to the narrowest little-endian unsigned dtype
    that holds its maximum, and row ``k`` of the ``(itemsize, n)``
    result holds byte ``k`` of every entry — the mostly-zero high
    bytes of small gaps and counts then deflate as long runs.
    """
    top = int(column.max()) if column.size else 0
    width = next(w for w in _WIDTHS if top >> (8 * w) == 0)
    narrowed = column.astype(f"<u{width}", copy=False)
    return np.ascontiguousarray(narrowed.view(np.uint8).reshape(-1, width).T)


def _decode_column(
    planes: NDArray[Any], widths: tuple[int, ...], member: str
) -> NDArray[Any]:
    """Invert :func:`_encode_column`; reject a member it could not write."""
    if planes.dtype != np.uint8 or planes.ndim != 2 or planes.shape[0] not in widths:
        raise DatasetError(
            f"{member} is not a byte-plane column "
            f"(dtype {planes.dtype}, shape {planes.shape})"
        )
    width = planes.shape[0]
    return np.ascontiguousarray(planes.T).view(f"<u{width}").reshape(-1)


def _check_raw_member(column: NDArray[Any], dtype: np.dtype[Any], member: str) -> None:
    """Reject a v1 column :func:`save_dataset` could not have written.

    ``Snapshot`` would cast it silently: ``uint64`` ips past 2**32 wrap,
    negative ``int64`` hits turn huge.
    """
    if column.dtype != dtype:
        raise DatasetError(
            f"{member} is not a {dtype.str} column (dtype {column.dtype})"
        )


def _dataset_members(
    dataset: ActivityDataset, compress: bool
) -> Iterator[tuple[str, NDArray[Any]]]:
    """The bundle members of *dataset*, each encoded as it is yielded."""
    yield "version", np.array([_FORMAT_VERSION if compress else _RAW_FORMAT_VERSION])
    yield "start", np.array([dataset.start.toordinal()])
    yield "window_days", np.array([dataset.window_days])
    yield "num_snapshots", np.array([len(dataset)])
    for index, snapshot in enumerate(dataset):
        if compress:
            gaps = np.diff(snapshot.ips, prepend=np.uint32(0))
            yield f"ips_{index}", _encode_column(gaps)
            yield f"hits_{index}", _encode_column(snapshot.hits)
        else:
            yield f"ips_{index}", snapshot.ips
            yield f"hits_{index}", snapshot.hits


def save_dataset(
    path: str | os.PathLike[str], dataset: ActivityDataset, compress: bool = True
) -> None:
    """Write a dataset to ``path`` as ``.npz``.

    ``compress=True`` writes a v2 bundle through the column codec (see
    the module docstring).  ``compress=False`` writes the raw v1
    columns uncompressed — 6.4x the bytes on disk on the benchmark's
    world 564 (33.5 MB against 5.2 MB), but :func:`load_dataset` maps
    them without decoding, the right trade-off for intermediate
    artifacts in a collect-then-analyze pipeline.
    :func:`load_dataset` reads either flavour.

    The write is atomic and durable: data goes to a temporary file in
    the same directory which is fsynced and then renamed over *path*
    (followed by a directory fsync), so readers never see a truncated
    dataset even if the process — or the machine — dies mid-write.
    """
    target = _dataset_path(path)
    with obs.span("io/save_dataset"):
        atomic_write_npz(target, _dataset_members(dataset, compress), compress=compress)
        obs.add("datasets_saved_total")


#: Exceptions a corrupt or truncated ``.npz`` can leak from numpy's
#: loader: a damaged zip directory (``BadZipFile``), a truncated or
#: bit-flipped member (``zlib.error``, ``EOFError``, CRC ``BadZipFile``),
#: garbage headers (``ValueError``/``OverflowError``), or plain I/O
#: failure (``OSError``).  ``FileNotFoundError`` is handled separately.
_CORRUPT_NPZ_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    ValueError,
    OverflowError,
    OSError,
)


def load_dataset(path: str | os.PathLike[str]) -> ActivityDataset:
    """Load a dataset written by :func:`save_dataset`.

    Applies the same ``.npz`` suffix rule as :func:`save_dataset` and
    raises :class:`~repro.errors.DatasetError` — never a bare
    ``FileNotFoundError``, ``zipfile.BadZipFile``, ``zlib.error`` or
    ``ValueError`` — when no dataset exists at *path* or the file is
    corrupt/truncated.  The error message names the ``.npz`` path
    actually read (which may differ from *path* by the appended
    suffix).
    """
    target = _dataset_path(path)
    with obs.span("io/load_dataset"):
        fast = _load_dataset_raw(target)
        if fast is not None:
            obs.add("datasets_loaded_total")
            return fast
        return _load_dataset(target)


#: Anything that should make the zero-copy fast path quietly step
#: aside: the legacy loader owns the canonical error taxonomy, so any
#: defect detected here is re-detected (and properly reported) there.
_FAST_PATH_BAILOUTS: tuple[type[BaseException], ...] = (
    DatasetError,
    KeyError,
    IndexError,
) + _CORRUPT_NPZ_ERRORS


def _load_dataset_raw(target: str) -> ActivityDataset | None:
    """Zero-copy fast path for raw-member (uncompressed) bundles.

    Maps each snapshot column read-only straight out of the ``.npz``
    instead of decompressing it through a full in-memory copy.  Returns
    ``None`` — never raises — whenever the bundle is compressed,
    missing, malformed, or otherwise something the legacy loader should
    handle, so the error taxonomy stays exactly the legacy path's.
    """
    from repro.core.store import RawNpzReader

    try:
        reader = RawNpzReader(target)
    except _CORRUPT_NPZ_ERRORS:
        return None
    mapped_bytes = 0
    try:
        if int(reader.array("version")[0]) != _RAW_FORMAT_VERSION:
            return None
        start = datetime.date.fromordinal(int(reader.array("start")[0]))
        window_days = int(reader.array("window_days")[0])
        count = int(reader.array("num_snapshots")[0])
        snapshots = []
        for index in range(count):
            for member in (f"ips_{index}", f"hits_{index}"):
                if reader.data_offset(member) < 0:
                    return None  # compressed member: not zero-copy eligible
            ips = reader.array(f"ips_{index}", mmap=True)
            hits = reader.array(f"hits_{index}", mmap=True)
            if ips.dtype != _IPS_DTYPE or hits.dtype != _HITS_DTYPE:
                return None  # the legacy loader names the bad member
            mapped_bytes += ips.nbytes + hits.nbytes
            window_start = start + datetime.timedelta(days=index * window_days)
            snapshots.append(Snapshot(window_start, window_days, ips, hits))
        dataset = ActivityDataset(snapshots)
    except _FAST_PATH_BAILOUTS:
        return None
    finally:
        reader.close()
    obs.add("datasets_loaded_zero_copy_total")
    obs.gauge("dataset_load_mapped_bytes", float(mapped_bytes))
    return dataset


def _load_dataset(target: str) -> ActivityDataset:
    try:
        bundle = np.load(target)
    except FileNotFoundError as exc:
        raise DatasetError(f"no dataset file at: {target}") from exc
    except _CORRUPT_NPZ_ERRORS as exc:
        raise DatasetError(
            f"corrupt or unreadable dataset file: {target} ({exc})"
        ) from exc
    with bundle:
        try:
            version = int(bundle["version"][0])
            start = datetime.date.fromordinal(int(bundle["start"][0]))
            window_days = int(bundle["window_days"][0])
            count = int(bundle["num_snapshots"][0])
            if version not in (_RAW_FORMAT_VERSION, _FORMAT_VERSION):
                raise DatasetError(f"unsupported dataset format version: {version}")
            snapshots = []
            for index in range(count):
                ips = bundle[f"ips_{index}"]
                hits = bundle[f"hits_{index}"]
                if version == _FORMAT_VERSION:
                    gaps = _decode_column(ips, _IPS_WIDTHS, f"ips_{index}")
                    # A zero gap or a sum past 2**32 decodes to ips that
                    # are not strictly increasing: Snapshot rejects them.
                    ips = np.cumsum(gaps, dtype=np.uint32)
                    hits = _decode_column(hits, _WIDTHS, f"hits_{index}")
                    hits = hits.astype(np.uint64)
                else:
                    _check_raw_member(ips, _IPS_DTYPE, f"ips_{index}")
                    _check_raw_member(hits, _HITS_DTYPE, f"hits_{index}")
                window_start = start + datetime.timedelta(days=index * window_days)
                snapshots.append(Snapshot(window_start, window_days, ips, hits))
        except KeyError as exc:
            raise DatasetError(f"not a dataset file: {target}") from exc
        except DatasetError as exc:
            raise DatasetError(f"invalid dataset file: {target} ({exc})") from exc
        except _CORRUPT_NPZ_ERRORS as exc:
            # Truncation inside a member surfaces only when the member
            # is decompressed, i.e. mid-decode rather than at np.load.
            raise DatasetError(
                f"corrupt or truncated dataset file: {target} ({exc})"
            ) from exc
    obs.add("datasets_loaded_total")
    return ActivityDataset(snapshots)


def dump_routing_table(table: RoutingTable, stream: _io.TextIOBase) -> None:
    """Write one table as ``prefix|origin`` lines."""
    for prefix, origin in table:
        stream.write(f"{prefix}|{origin}\n")


def parse_routing_table(lines: Iterable[str]) -> RoutingTable:
    """Parse ``prefix|origin`` lines into a table."""
    table = RoutingTable()
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        prefix_text, _, origin_text = stripped.partition("|")
        if not origin_text:
            raise RoutingError(f"malformed route line: {line!r}")
        try:
            origin = int(origin_text)
        except ValueError as exc:
            raise RoutingError(f"bad origin in route line: {line!r}") from exc
        table.announce(Prefix.parse(prefix_text), origin)
    return table


def save_routing_series(path: str | os.PathLike[str], series: RoutingSeries) -> None:
    """Write a daily series as a text file with ``=== day N`` separators.

    Consecutive identical tables are stored once with a reference line
    (``=== day N same``), keeping year-long series compact.  The series
    is rendered in memory and written through the fsynced atomic path,
    so the ``.rib.txt`` artifact obeys the same crash-safety contract
    as the dataset it accompanies.
    """
    buffer = _io.StringIO()
    previous: RoutingTable | None = None
    for day in range(len(series)):
        table = series.table_at(day)
        if previous is not None and table is previous:
            buffer.write(f"=== day {day} same\n")
            continue
        buffer.write(f"=== day {day}\n")
        dump_routing_table(table, buffer)
        previous = table
    atomic_write_text(path, buffer.getvalue(), encoding="ascii")


def load_routing_series(path: str | os.PathLike[str]) -> RoutingSeries:
    """Load a series written by :func:`save_routing_series`."""
    tables: list[RoutingTable] = []
    current_lines: list[str] = []
    pending_same = False

    def flush() -> None:
        nonlocal current_lines
        if pending_same:
            if not tables:
                raise RoutingError("'same' marker before any table")
            for line in current_lines:
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    raise RoutingError(
                        f"route data under a 'same' day marker: {line!r}"
                    )
            tables.append(tables[-1])
        else:
            tables.append(parse_routing_table(current_lines))
        current_lines = []

    started = False
    with open(path, encoding="ascii") as stream:
        for line in stream:
            if line.startswith("=== day"):
                if started:
                    flush()
                started = True
                pending_same = line.strip().endswith("same")
                continue
            if not started:
                raise RoutingError(f"route data before day header: {line!r}")
            current_lines.append(line)
    if not started:
        raise RoutingError(f"empty routing series file: {path}")
    flush()
    return RoutingSeries(tables)


def open_store(path: str | os.PathLike[str]) -> "DatasetStore":
    """Open and validate the sharded dataset store at directory *path*.

    Eagerly checks the manifest and every shard's header (day range,
    block tiling, address ranges) but reads shard data lazily — see
    :class:`repro.core.store.DatasetStore`.  Live-store roots (appended
    interval by interval through ``StoreAppender``) resolve to their
    committed generation transparently.  Raises
    :class:`~repro.errors.DatasetError` on any structural defect.
    """
    from repro.core.store import DatasetStore, resolve_store_root

    with obs.span("io/open_store"):
        store = DatasetStore.open(resolve_store_root(path))
        obs.add("stores_opened_total")
        return store


def save_store(
    path: str | os.PathLike[str],
    dataset: ActivityDataset,
    shard_blocks: int = 256,
) -> "DatasetStore":
    """Write *dataset* as a sharded store under directory *path*.

    The dataset's active /24 blocks (sorted by base address) are tiled
    into shards of *shard_blocks* blocks each; every snapshot column is
    sliced by ``searchsorted`` on the shard's address range, so shard
    members are contiguous views of the legacy columns and the store's
    dataset SHA-256 equals :func:`repro.obs.manifest.dataset_digest` of
    *dataset* exactly.
    """
    from repro.core.store import StoreWriter

    with obs.span("io/save_store"):
        writer = StoreWriter(
            path,
            start=dataset.start,
            window_days=dataset.window_days,
            num_snapshots=len(dataset),
            shard_blocks=shard_blocks,
        )
        bases = dataset.index.block_bases
        snapshots = list(dataset)
        for chunk_start in range(0, int(bases.size), shard_blocks):
            chunk = bases[chunk_start : chunk_start + shard_blocks]
            lo = int(chunk[0])
            # Inclusive last address of the chunk's top /24: stays in
            # uint32 range, unlike the exclusive bound 2**32 would not.
            hi = int(chunk[-1]) + 255
            columns: list[tuple[NDArray[Any], NDArray[Any]]] = []
            for snapshot in snapshots:
                left = int(np.searchsorted(snapshot.ips, lo))
                right = int(np.searchsorted(snapshot.ips, hi, side="right"))
                columns.append(
                    (snapshot.ips[left:right], snapshot.hits[left:right])
                )
            writer.add_shard(chunk, columns)
        store = writer.finalize()
        obs.add("stores_saved_total")
        return store


def export_store(
    store: "DatasetStore", path: str | os.PathLike[str], compress: bool = True
) -> None:
    """Write *store* back out as a legacy single-``.npz`` dataset.

    The round trip is bit-identical: for any dataset ``x``,
    ``save_store(d, load_dataset(x))`` then
    ``export_store(open_store(d), y)`` makes ``y`` load back with the
    same columns — and the same dataset SHA-256 — as ``x``.
    """
    save_dataset(path, store.to_dataset(), compress=compress)
