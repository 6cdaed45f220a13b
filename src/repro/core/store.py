"""Out-of-core dataset store: sharded raw ``.npz`` layout + manifest.

The legacy persistence format (:mod:`repro.core.io`) is one ``.npz``
holding every snapshot column — loading it materializes the full
address matrix, which caps analysis at whatever fits in RAM.  The paper
analyzed 1.2B active addresses over a year; this module is the layout
that lets the reproduction head there: a **store** is a directory of
shard files, each a raw-member (uncompressed) ``.npz`` covering a
contiguous range of the dataset's active /24 blocks, plus a JSON
manifest binding them together.

Layout::

    <root>/
        store.manifest.json          # schema, day range, shard table,
                                     # per-shard SHA-256, dataset SHA-256
        shard_000000_000256.npz      # blocks [0, 256) of the sorted
        shard_000256_000512.npz      # active-/24 table, all snapshots

Shard files reuse the checkpoint naming convention from
:mod:`repro.sim.checkpoint` (``shard_<start>_<stop>.npz`` keyed by
global block range).  Each shard holds, per snapshot, the ``(ips,
hits)`` columns restricted to its address range, sorted — plus the same
header members as the legacy format, so every shard is independently a
valid (partial) dataset file.

Shards are keyed by **sorted /24 base address**, not by world-gen block
index: the population allocator interleaves countries, so block index
order is not address order, and only address-keyed ranges make
``searchsorted`` slicing of sorted snapshot columns valid.  Shard
boundaries are 256-aligned — a /24 is never split across shards — so
per-/24 quantities (filling degree, STU, block activity) decompose
exactly over shards, and concatenating shard columns in shard order
reproduces the legacy arrays bit-identically.

Memory model: analyses stream shard by shard.  Shard *data* is read
with bounded buffered copies (one member at a time) rather than
``mmap`` — mapped pages fault into the process RSS and would defeat a
constant-memory ceiling — while :meth:`DatasetStore.to_dataset` and the
``load_dataset`` fast path use true zero-copy ``np.memmap`` views where
the caller wants the whole matrix anyway.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import re
import shutil
import zipfile
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import IO, Any

import numpy as np
from numpy.typing import NDArray

from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.io import _CORRUPT_NPZ_ERRORS, atomic_write_npz, atomic_write_text
from repro.errors import DatasetError
from repro.obs import context as obs

#: Bump when the shard payload or manifest schema changes.
STORE_FORMAT_VERSION = 1

#: Manifest file name inside a store directory.
STORE_MANIFEST_NAME = "store.manifest.json"

#: Pointer file name inside a *live* store directory (appendable store).
LIVE_POINTER_NAME = "live.json"

#: Bump when the live-pointer schema changes.
LIVE_POINTER_VERSION = 1

#: Generation directory names inside a live store root.
_GENERATION_PATTERN = re.compile(r"^gen_(\d{6})$")

#: Addresses per /24 block.
_BLOCK_SPAN = 256

#: Dataset-format version shared with the legacy single-file layout —
#: each shard is independently a valid (partial) legacy dataset file.
_DATASET_VERSION = 1

#: Size of the fixed portion of a zip local file header (bytes).
_ZIP_LOCAL_HEADER_SIZE = 30

_ZIP_LOCAL_MAGIC = b"PK\x03\x04"


def shard_file_name(block_start: int, block_stop: int) -> str:
    """Shard file name for a global block range — checkpoint convention."""
    return f"shard_{block_start:06d}_{block_stop:06d}.npz"


def store_manifest_path(root: str | os.PathLike[str]) -> str:
    """Path of the manifest inside store directory *root*."""
    return os.path.join(os.fspath(root), STORE_MANIFEST_NAME)


def generation_dir_name(generation: int) -> str:
    """Directory name of one live-store generation (1-based)."""
    return f"gen_{generation:06d}"


def live_pointer_path(root: str | os.PathLike[str]) -> str:
    """Path of the generation pointer inside live store *root*."""
    return os.path.join(os.fspath(root), LIVE_POINTER_NAME)


def read_live_pointer(root: str | os.PathLike[str]) -> int | None:
    """The committed generation number of live store *root*.

    Returns ``None`` when no pointer file exists (the directory is not
    a live store, or no generation has ever been committed); raises
    :class:`~repro.errors.DatasetError` on a malformed pointer.
    """
    target = live_pointer_path(root)
    try:
        with open(target, encoding="utf-8") as stream:
            payload = json.load(stream)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, OSError) as exc:
        raise DatasetError(
            f"corrupt or unreadable live-store pointer: {target} ({exc})"
        ) from exc
    if not isinstance(payload, dict):
        raise DatasetError(f"malformed live-store pointer: {target}")
    try:
        schema = int(payload["schema"])
        generation = int(payload["generation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(
            f"malformed live-store pointer: {target} ({exc})"
        ) from exc
    if schema != LIVE_POINTER_VERSION:
        raise DatasetError(
            f"unsupported live-store pointer schema in {target}: {schema}"
        )
    if generation < 1:
        raise DatasetError(
            f"malformed live-store pointer: {target} (generation {generation})"
        )
    return generation


def resolve_store_root(path: str | os.PathLike[str]) -> str:
    """The directory whose manifest describes *path*'s dataset.

    A plain store directory resolves to itself.  A **live** store —
    one whose snapshots are appended interval by interval through
    :class:`StoreAppender` — keeps each committed state as a complete
    store under a generation directory and points at the current one
    with ``live.json``; such a root resolves to its committed
    generation directory, so every store consumer (``open_store``,
    ``repro analyze``) reads a live store transparently.
    """
    root = os.fspath(path)
    if os.path.isfile(store_manifest_path(root)):
        return root
    generation = read_live_pointer(root)
    if generation is not None:
        return os.path.join(root, generation_dir_name(generation))
    return root


def is_store(path: str | os.PathLike[str]) -> bool:
    """True when *path* is (or resolves to) a store-manifest directory."""
    target = os.fspath(path)
    if not os.path.isdir(target):
        return False
    try:
        resolved = resolve_store_root(target)
    except DatasetError:
        return False
    return os.path.isfile(store_manifest_path(resolved))


class RawNpzReader:
    """Random access to ``.npz`` members without whole-bundle loads.

    ``np.load`` on an ``.npz`` decompresses each member through a full
    in-memory copy even when the member was stored raw.  This reader
    parses the zip central directory once, locates each member's array
    data by its local-header offset, and then serves reads three ways:

    - :meth:`header` — shape and dtype from the ``.npy`` header alone
      (no data read), for size accounting and digests;
    - :meth:`array` — a bounded buffered copy (``np.fromfile`` at the
      data offset), the streaming-analysis path that keeps RSS flat;
    - :meth:`array` with ``mmap=True`` — a read-only ``np.memmap``
      view, true zero-copy for whole-matrix consumers.

    Members that are compressed (or Fortran-ordered / object-dtype)
    fall back to ``np.lib.format.read_array`` through the zip stream;
    :meth:`data_offset` returns ``-1`` for them so callers needing the
    zero-copy guarantee can detect and bail.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._path = os.fspath(path)
        self._zip = zipfile.ZipFile(self._path)
        self._file: IO[bytes] = open(self._path, "rb")
        # member name -> (shape, dtype, data offset; -1 = not raw)
        self._headers: dict[str, tuple[tuple[int, ...], np.dtype[Any], int]] = {}

    def close(self) -> None:
        self._zip.close()
        self._file.close()

    def __enter__(self) -> "RawNpzReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def path(self) -> str:
        return self._path

    def keys(self) -> list[str]:
        """Member names (without the ``.npy`` suffix), archive order."""
        return [
            name[: -len(".npy")]
            for name in self._zip.namelist()
            if name.endswith(".npy")
        ]

    def _locate(self, name: str) -> tuple[tuple[int, ...], np.dtype[Any], int]:
        cached = self._headers.get(name)
        if cached is not None:
            return cached
        try:
            info = self._zip.getinfo(name + ".npy")
        except KeyError as exc:
            raise DatasetError(
                f"not a dataset file: {self._path} (missing member {name!r})"
            ) from exc
        if info.compress_type == zipfile.ZIP_STORED:
            self._file.seek(info.header_offset)
            local = self._file.read(_ZIP_LOCAL_HEADER_SIZE)
            if (
                len(local) < _ZIP_LOCAL_HEADER_SIZE
                or local[:4] != _ZIP_LOCAL_MAGIC
            ):
                raise DatasetError(
                    f"corrupt or unreadable dataset file: {self._path} "
                    f"(bad local header for member {name!r})"
                )
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            payload = (
                info.header_offset + _ZIP_LOCAL_HEADER_SIZE + name_len + extra_len
            )
            self._file.seek(payload)
            shape, fortran, dtype = self._read_npy_header(self._file)
            offset = -1 if fortran or dtype.hasobject else self._file.tell()
        else:
            with self._zip.open(info) as stream:
                shape, _fortran, dtype = self._read_npy_header(stream)
            offset = -1
        located = (shape, dtype, offset)
        self._headers[name] = located
        return located

    @staticmethod
    def _read_npy_header(
        stream: IO[bytes],
    ) -> tuple[tuple[int, ...], bool, np.dtype[Any]]:
        version = np.lib.format.read_magic(stream)
        if version == (1, 0):
            return np.lib.format.read_array_header_1_0(stream)
        if version == (2, 0):
            return np.lib.format.read_array_header_2_0(stream)
        raise DatasetError(f"unsupported .npy member format version: {version}")

    def header(self, name: str) -> tuple[tuple[int, ...], np.dtype[Any]]:
        """Member *name*'s ``(shape, dtype)`` without reading its data."""
        shape, dtype, _offset = self._locate(name)
        return shape, dtype

    def data_offset(self, name: str) -> int:
        """Byte offset of *name*'s raw array data; ``-1`` when not raw."""
        _shape, _dtype, offset = self._locate(name)
        return offset

    def array(self, name: str, *, mmap: bool = False) -> NDArray[Any]:
        """Member *name* as an array.

        Raw members are read with a bounded buffered copy, or mapped
        read-only when ``mmap=True``.  Non-raw members (compressed,
        Fortran, object dtype) are decoded through the zip stream.
        """
        shape, dtype, offset = self._locate(name)
        if offset < 0:
            with self._zip.open(name + ".npy") as stream:
                decoded: NDArray[Any] = np.lib.format.read_array(
                    stream, allow_pickle=False
                )
            return decoded
        count = math.prod(shape)
        if count == 0:
            return np.empty(shape, dtype=dtype)
        if mmap:
            mapped: NDArray[Any] = np.memmap(
                self._path, mode="r", dtype=dtype, shape=shape, offset=offset
            )
            return mapped
        flat = np.fromfile(self._path, dtype=dtype, count=count, offset=offset)
        if flat.size != count:
            raise DatasetError(
                f"corrupt or truncated dataset file: {self._path} "
                f"(member {name!r} holds {flat.size} of {count} items)"
            )
        return flat.reshape(shape)


@dataclass(frozen=True)
class StoreHeader:
    """The day-range header every shard of one store must agree on."""

    start: datetime.date
    window_days: int
    num_snapshots: int

    def describe(self) -> str:
        return (
            f"{self.num_snapshots} x {self.window_days}d "
            f"from {self.start.isoformat()}"
        )


@dataclass(frozen=True)
class ShardInfo:
    """One manifest row: a shard's block range, address range, and hash."""

    name: str
    block_start: int
    block_stop: int
    base_lo: int
    base_hi: int  # exclusive
    sha256: str
    nbytes: int

    @property
    def num_blocks(self) -> int:
        return self.block_stop - self.block_start

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "block_start": self.block_start,
            "block_stop": self.block_stop,
            "base_lo": self.base_lo,
            "base_hi": self.base_hi,
            "sha256": self.sha256,
            "bytes": self.nbytes,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ShardInfo":
        try:
            return cls(
                name=str(payload["name"]),
                block_start=int(payload["block_start"]),
                block_stop=int(payload["block_stop"]),
                base_lo=int(payload["base_lo"]),
                base_hi=int(payload["base_hi"]),
                sha256=str(payload["sha256"]),
                nbytes=int(payload["bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"malformed store manifest shard entry: {exc}") from exc


class StoreShard:
    """One shard of a store: lazy reader plus its manifest row."""

    def __init__(self, root: str | os.PathLike[str], info: ShardInfo) -> None:
        self.info = info
        self.path = os.path.join(os.fspath(root), info.name)
        self._reader: RawNpzReader | None = None
        self._header: StoreHeader | None = None
        self._sizes: list[int] | None = None

    def reader(self) -> RawNpzReader:
        if self._reader is None:
            try:
                self._reader = RawNpzReader(self.path)
            except FileNotFoundError as exc:
                raise DatasetError(f"missing store shard file: {self.path}") from exc
            except _CORRUPT_NPZ_ERRORS as exc:
                raise DatasetError(
                    f"corrupt or unreadable store shard: {self.path} ({exc})"
                ) from exc
        return self._reader

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def _scalar(self, name: str) -> int:
        try:
            return int(self.reader().array(name)[0])
        except (KeyError, IndexError) as exc:
            raise DatasetError(
                f"not a store shard: {self.path} (missing member {name!r})"
            ) from exc
        except _CORRUPT_NPZ_ERRORS as exc:
            raise DatasetError(
                f"corrupt or truncated store shard: {self.path} ({exc})"
            ) from exc

    def header(self) -> StoreHeader:
        """The shard's day-range header (validated dataset version)."""
        if self._header is None:
            version = self._scalar("version")
            if version != _DATASET_VERSION:
                raise DatasetError(
                    f"unsupported dataset format version in shard "
                    f"{self.path}: {version}"
                )
            self._header = StoreHeader(
                start=datetime.date.fromordinal(self._scalar("start")),
                window_days=self._scalar("window_days"),
                num_snapshots=self._scalar("num_snapshots"),
            )
        return self._header

    def ranges(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The shard's recorded ``(block_range, base_range)`` members."""
        try:
            block_range = self.reader().array("block_range")
            base_range = self.reader().array("base_range")
        except _CORRUPT_NPZ_ERRORS as exc:
            raise DatasetError(
                f"corrupt or truncated store shard: {self.path} ({exc})"
            ) from exc
        if block_range.size != 2 or base_range.size != 2:
            raise DatasetError(f"malformed range members in shard: {self.path}")
        return (
            (int(block_range[0]), int(block_range[1])),
            (int(base_range[0]), int(base_range[1])),
        )

    def snapshot_sizes(self) -> list[int]:
        """Active addresses per snapshot, from headers only (no data read)."""
        if self._sizes is None:
            count = self.header().num_snapshots
            sizes: list[int] = []
            for index in range(count):
                shape, _dtype = self.reader().header(f"ips_{index}")
                sizes.append(math.prod(shape))
            self._sizes = sizes
        return self._sizes

    def columns(
        self, index: int, *, mmap: bool = False
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Snapshot *index*'s ``(ips, hits)`` columns within this shard."""
        try:
            ips = self.reader().array(f"ips_{index}", mmap=mmap)
            hits = self.reader().array(f"hits_{index}", mmap=mmap)
        except _CORRUPT_NPZ_ERRORS as exc:
            raise DatasetError(
                f"corrupt or truncated store shard: {self.path} ({exc})"
            ) from exc
        return ips, hits


def _streamed_digest(
    shards: Sequence[StoreShard],
    start: datetime.date,
    window_days: int,
    num_snapshots: int,
) -> str:
    """The dataset SHA-256, computed shard-at-a-time in bounded memory.

    Byte-for-byte the same stream as
    :func:`repro.obs.manifest.dataset_digest` hashes for the in-memory
    dataset: the header line, then per snapshot, per column kind, the
    dtype/size prefix followed by the column bytes.  A store's column
    is split across shards in ascending address order, so feeding each
    shard's member bytes in shard order reproduces the concatenated
    column exactly — holding only one member in memory at a time.
    """
    digest = hashlib.sha256()
    digest.update(f"v1|{start.toordinal()}|{window_days}|{num_snapshots}".encode())
    try:
        sizes = [shard.snapshot_sizes() for shard in shards]
        for index in range(num_snapshots):
            total = sum(per_shard[index] for per_shard in sizes)
            for member_prefix, expected_dtype in (("ips", "<u4"), ("hits", "<u8")):
                digest.update(f"|{expected_dtype}|{total}|".encode())
                for shard in shards:
                    column = shard.reader().array(f"{member_prefix}_{index}")
                    if column.dtype.str != expected_dtype:
                        raise DatasetError(
                            f"bad column dtype in shard {shard.path}: "
                            f"{member_prefix}_{index} is {column.dtype.str}, "
                            f"expected {expected_dtype}"
                        )
                    digest.update(column.tobytes())
    finally:
        # Each shard's reader was opened here; release every one even
        # on a mid-stream error (the callers' shards reopen lazily).
        for shard in shards:
            shard.close()
    return digest.hexdigest()


class DatasetStore:
    """A validated handle to an on-disk sharded dataset store.

    Open one with :meth:`DatasetStore.open` (or
    :func:`repro.core.io.open_store`).  Opening validates the manifest
    and every shard's header eagerly — block ranges must tile
    ``[0, num_blocks)`` contiguously, address ranges must be
    256-aligned, ascending, and disjoint, and every shard must agree on
    the day range — but reads shard *data* lazily, one member at a
    time.
    """

    def __init__(
        self,
        root: str,
        *,
        start: datetime.date,
        window_days: int,
        num_snapshots: int,
        shard_blocks: int,
        num_blocks: int,
        dataset_sha256: str,
        shards: list[StoreShard],
    ) -> None:
        self.root = root
        self.start = start
        self.window_days = window_days
        self.num_snapshots = num_snapshots
        self.shard_blocks = shard_blocks
        self.num_blocks = num_blocks
        self.dataset_sha256 = dataset_sha256
        self.shards = shards

    def __repr__(self) -> str:
        return (
            f"DatasetStore({self.root!r}, {self.num_blocks} blocks / "
            f"{len(self.shards)} shards, {self.num_snapshots} x "
            f"{self.window_days}d from {self.start.isoformat()})"
        )

    def __len__(self) -> int:
        return self.num_snapshots

    @property
    def total_days(self) -> int:
        """Days covered end to end."""
        return self.num_snapshots * self.window_days

    @property
    def header(self) -> StoreHeader:
        return StoreHeader(self.start, self.window_days, self.num_snapshots)

    def snapshot_start(self, index: int) -> datetime.date:
        return self.start + datetime.timedelta(days=index * self.window_days)

    def active_counts(self) -> NDArray[np.int64]:
        """Active addresses per snapshot — from ``.npy`` headers only."""
        counts = np.zeros(self.num_snapshots, dtype=np.int64)
        for shard in self.shards:
            counts += np.asarray(shard.snapshot_sizes(), dtype=np.int64)
        return counts

    def nbytes(self) -> int:
        """Total shard file bytes, per the manifest."""
        return sum(shard.info.nbytes for shard in self.shards)

    def iter_shards(self) -> Iterator[StoreShard]:
        """Each shard in ascending address order, closed once passed.

        The one per-shard loop of every streamed pass: the ``finally``
        also runs when the consumer raises mid-shard or abandons the
        iteration, so no shard's reader outlives its turn.
        """
        for shard in self.shards:
            try:
                yield shard
            finally:
                shard.close()

    def active_block_bases(self) -> NDArray[np.int64]:
        """Sorted /24 bases with any activity, streamed shard by shard.

        Shards cover ascending disjoint address ranges, so per-shard
        sorted base sets concatenate into the global sorted base table;
        peak memory is one shard's columns plus the base table itself
        (O(active /24s), not O(addresses)).
        """
        parts: list[NDArray[np.int64]] = []
        for shard in self.iter_shards():
            masked = [
                (shard.columns(index)[0] & np.uint32(0xFFFFFF00)).astype(np.int64)
                for index in range(self.num_snapshots)
            ]
            nonempty = [blocks for blocks in masked if blocks.size]
            if nonempty:
                parts.append(np.unique(np.concatenate(nonempty)))  # bounded: one shard
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)  # O(active /24s), not O(addresses)

    def column_slice(
        self, index: int, lo: int, hi: int
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Snapshot *index*'s ``(ips, hits)`` restricted to ``[lo, hi]``.

        *hi* is inclusive (the exclusive bound of the top /24 would
        overflow ``uint32``).  Reads only the shards whose address
        range overlaps the request, so the result is bounded by the
        requested slice plus one shard's columns.
        """
        ips_parts: list[NDArray[Any]] = []
        hits_parts: list[NDArray[Any]] = []
        for shard in self.shards:
            if shard.info.base_hi <= lo or shard.info.base_lo > hi:
                continue
            ips, hits = shard.columns(index)
            left = int(np.searchsorted(ips, lo))
            right = int(np.searchsorted(ips, hi, side="right"))
            if right > left:
                ips_parts.append(ips[left:right])
                hits_parts.append(hits[left:right])
        if not ips_parts:
            return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64)
        return (
            np.concatenate(ips_parts),  # bounded: one requested address slice
            np.concatenate(hits_parts),  # bounded: one requested address slice
        )

    def iter_union_runs(self) -> Iterator[tuple[NDArray[Any], NDArray[Any]]]:
        """Sorted ``(ips, hits)`` union runs, one per shard, streaming.

        Concatenating every run reproduces ``kway_union`` of the whole
        dataset; peak memory is one shard's columns plus one run.
        """
        from repro.core.index import iter_union_runs

        def groups() -> Iterator[tuple[list[NDArray[Any]], list[NDArray[Any]]]]:
            for shard in self.iter_shards():
                ips_parts: list[NDArray[Any]] = []
                hits_parts: list[NDArray[Any]] = []
                for index in range(self.num_snapshots):
                    ips, hits = shard.columns(index)
                    if ips.size:
                        ips_parts.append(ips)
                        hits_parts.append(hits)
                yield ips_parts, hits_parts

        return iter_union_runs(groups())

    def to_dataset(self, *, mmap: bool = True) -> ActivityDataset:
        """Materialize the full in-memory dataset, bit-identically.

        Shards cover disjoint ascending address ranges, so per-snapshot
        concatenation in shard order yields the legacy sorted columns
        (``Snapshot`` re-validates strict ascent).  ``mmap=True`` backs
        the columns with read-only maps instead of copies.
        """
        snapshots: list[Snapshot] = []
        for index in range(self.num_snapshots):
            ips_parts: list[NDArray[Any]] = []
            hits_parts: list[NDArray[Any]] = []
            for shard in self.shards:
                ips, hits = shard.columns(index, mmap=mmap)
                if ips.size:
                    ips_parts.append(ips)
                    hits_parts.append(hits)
            if ips_parts:
                # Materializing is this method's contract:
                ips_col: NDArray[Any] = np.concatenate(ips_parts)  # whole matrix wanted
                hits_col: NDArray[Any] = np.concatenate(hits_parts)  # whole matrix wanted
            else:
                ips_col = np.empty(0, dtype=np.uint32)
                hits_col = np.empty(0, dtype=np.uint64)
            snapshots.append(
                Snapshot(
                    self.snapshot_start(index), self.window_days, ips_col, hits_col
                )
            )
        return ActivityDataset(snapshots)

    def digest(self) -> str:
        """Recompute the dataset SHA-256 by streaming over the shards."""
        return _streamed_digest(
            self.shards, self.start, self.window_days, self.num_snapshots
        )

    def verify(self) -> None:
        """Re-hash every shard file against its manifest fingerprint."""
        for shard in self.shards:
            digest = hashlib.sha256()
            nbytes = 0
            try:
                with open(shard.path, "rb") as stream:
                    while True:
                        chunk = stream.read(1 << 20)
                        if not chunk:
                            break
                        digest.update(chunk)
                        nbytes += len(chunk)
            except FileNotFoundError as exc:
                raise DatasetError(
                    f"missing store shard file: {shard.path}"
                ) from exc
            if nbytes != shard.info.nbytes or digest.hexdigest() != shard.info.sha256:
                raise DatasetError(
                    f"store shard fingerprint mismatch: {shard.path} does not "
                    f"match the manifest at {store_manifest_path(self.root)}"
                )

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "DatasetStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @classmethod
    def open(cls, path: str | os.PathLike[str]) -> "DatasetStore":
        """Open and validate the store at directory *path*."""
        root = os.fspath(path)
        manifest_file = store_manifest_path(root)
        try:
            with open(manifest_file, encoding="utf-8") as stream:
                payload = json.load(stream)
        except FileNotFoundError as exc:
            raise DatasetError(
                f"no dataset store at: {root} (missing {STORE_MANIFEST_NAME})"
            ) from exc
        except (json.JSONDecodeError, OSError) as exc:
            raise DatasetError(
                f"corrupt or unreadable store manifest: {manifest_file} ({exc})"
            ) from exc
        if not isinstance(payload, dict):
            raise DatasetError(f"malformed store manifest: {manifest_file}")
        try:
            schema = int(payload["schema"])
            start = datetime.date.fromordinal(int(payload["start_ordinal"]))
            window_days = int(payload["window_days"])
            num_snapshots = int(payload["num_snapshots"])
            shard_blocks = int(payload["shard_blocks"])
            num_blocks = int(payload["num_blocks"])
            dataset_sha256 = str(payload["dataset_sha256"])
            shard_entries = list(payload["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                f"malformed store manifest: {manifest_file} ({exc})"
            ) from exc
        if schema != STORE_FORMAT_VERSION:
            raise DatasetError(
                f"unsupported store manifest schema in {manifest_file}: {schema}"
            )
        if window_days < 1 or num_snapshots < 1 or shard_blocks < 1:
            raise DatasetError(f"malformed store manifest: {manifest_file}")
        infos = [ShardInfo.from_dict(entry) for entry in shard_entries]
        next_block = 0
        next_base = 0
        for info in infos:
            if info.name != shard_file_name(info.block_start, info.block_stop):
                raise DatasetError(
                    f"store manifest at {manifest_file} names shard "
                    f"{info.name!r} for block range "
                    f"[{info.block_start}, {info.block_stop})"
                )
            if info.block_start != next_block or info.block_stop <= info.block_start:
                raise DatasetError(
                    f"store shards do not tile the block range: {info.name} "
                    f"starts at block {info.block_start}, expected {next_block}"
                )
            if (
                info.base_lo % _BLOCK_SPAN
                or info.base_hi % _BLOCK_SPAN
                or info.base_lo < next_base
                or info.base_hi - info.base_lo < info.num_blocks * _BLOCK_SPAN
                or info.base_hi > 2**32
            ):
                raise DatasetError(
                    f"store shard {info.name} has a malformed address range "
                    f"[{info.base_lo:#010x}, {info.base_hi:#010x})"
                )
            next_block = info.block_stop
            next_base = info.base_hi
        if next_block != num_blocks:
            raise DatasetError(
                f"store manifest at {manifest_file} declares {num_blocks} "
                f"blocks but its shards cover {next_block}"
            )
        shards = [StoreShard(root, info) for info in infos]
        expected = StoreHeader(start, window_days, num_snapshots)
        reference: StoreShard | None = None
        for shard in shards:
            header = shard.header()
            if reference is None:
                reference = shard
                if header != expected:
                    raise DatasetError(
                        f"store manifest at {manifest_file} declares "
                        f"{expected.describe()} but shard {shard.path} "
                        f"covers {header.describe()}"
                    )
            elif header != reference.header():
                raise DatasetError(
                    f"day-range mismatch between shards: {reference.path} "
                    f"covers {reference.header().describe()} but "
                    f"{shard.path} covers {header.describe()}"
                )
            block_range, base_range = shard.ranges()
            if block_range != (shard.info.block_start, shard.info.block_stop) or (
                base_range != (shard.info.base_lo, shard.info.base_hi)
            ):
                raise DatasetError(
                    f"store shard {shard.path} records ranges "
                    f"{block_range}/{base_range} but the manifest at "
                    f"{manifest_file} declares "
                    f"({shard.info.block_start}, {shard.info.block_stop})/"
                    f"({shard.info.base_lo}, {shard.info.base_hi})"
                )
        return cls(
            root,
            start=start,
            window_days=window_days,
            num_snapshots=num_snapshots,
            shard_blocks=shard_blocks,
            num_blocks=num_blocks,
            dataset_sha256=dataset_sha256,
            shards=shards,
        )


class StoreWriter:
    """Incremental, constant-memory store writer.

    Shards are added one at a time in ascending /24 base order; each
    :meth:`add_shard` validates its columns and writes one raw-member
    ``.npz`` atomically.  :meth:`finalize` computes the streaming
    dataset digest and writes the manifest — which is deleted up front,
    so a crash mid-build leaves "no store here" rather than a manifest
    pointing at half-rewritten shards.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        start: datetime.date,
        window_days: int,
        num_snapshots: int,
        shard_blocks: int,
    ) -> None:
        if window_days < 1:
            raise DatasetError(f"bad window length: {window_days}")
        if num_snapshots < 1:
            raise DatasetError(f"bad snapshot count: {num_snapshots}")
        if shard_blocks < 1:
            raise DatasetError(f"bad shard size: {shard_blocks} blocks")
        self._root = os.fspath(root)
        os.makedirs(self._root, exist_ok=True)
        manifest_file = store_manifest_path(self._root)
        if os.path.exists(manifest_file):
            os.unlink(manifest_file)
        self._start = start
        self._window_days = window_days
        self._num_snapshots = num_snapshots
        self._shard_blocks = shard_blocks
        self._infos: list[ShardInfo] = []
        self._next_block = 0
        self._next_base = 0
        self._finalized = False

    @property
    def root(self) -> str:
        return self._root

    def add_shard(
        self,
        bases: NDArray[Any],
        columns: Sequence[tuple[NDArray[Any], NDArray[Any]]],
    ) -> ShardInfo:
        """Write the next shard covering the /24 *bases* (sorted, aligned).

        *columns* holds one ``(ips, hits)`` pair per snapshot,
        restricted to the shard's address range; ``ips`` must be sorted
        strictly ascending ``uint32`` and every address must fall in
        one of *bases*.  Raises :class:`DatasetError` on any violation
        — including a shard boundary that would split a /24.
        """
        if self._finalized:
            raise DatasetError("store already finalized")
        base_array = np.asarray(bases, dtype=np.int64)
        if base_array.ndim != 1 or base_array.size == 0:
            raise DatasetError("a store shard must cover at least one /24 block")
        misaligned = base_array[base_array % _BLOCK_SPAN != 0]
        if misaligned.size:
            raise DatasetError(
                f"shard boundary splits a /24: base {int(misaligned[0]):#010x} "
                "is not 256-aligned"
            )
        if base_array.size > 1 and not (base_array[1:] > base_array[:-1]).all():
            raise DatasetError("shard /24 bases must be strictly ascending")
        if int(base_array[0]) < self._next_base:
            raise DatasetError(
                "shards must be added in ascending address order: base "
                f"{int(base_array[0]):#010x} precedes the previous shard's "
                f"end {self._next_base:#010x}"
            )
        if int(base_array[0]) < 0 or int(base_array[-1]) >= 2**32:
            raise DatasetError(
                f"shard /24 base out of the IPv4 range: {int(base_array[-1])}"
            )
        if len(columns) != self._num_snapshots:
            raise DatasetError(
                f"shard has {len(columns)} columns for "
                f"{self._num_snapshots} snapshots"
            )
        base_lo = int(base_array[0])
        base_hi = int(base_array[-1]) + _BLOCK_SPAN
        block_start = self._next_block
        block_stop = block_start + int(base_array.size)
        arrays: dict[str, NDArray[Any]] = {
            "version": np.array([_DATASET_VERSION]),
            "start": np.array([self._start.toordinal()]),
            "window_days": np.array([self._window_days]),
            "num_snapshots": np.array([self._num_snapshots]),
            "block_range": np.array([block_start, block_stop], dtype=np.int64),
            "base_range": np.array([base_lo, base_hi], dtype=np.int64),
        }
        for index, (ips, hits) in enumerate(columns):
            ips_col = np.ascontiguousarray(ips, dtype=np.uint32)
            hits_col = np.ascontiguousarray(hits, dtype=np.uint64)
            if ips_col.ndim != 1 or hits_col.shape != ips_col.shape:
                raise DatasetError(
                    f"snapshot {index} column shape mismatch in shard "
                    f"[{block_start}, {block_stop})"
                )
            if ips_col.size:
                if ips_col.size > 1 and not (ips_col[1:] > ips_col[:-1]).all():
                    raise DatasetError(
                        f"snapshot {index} addresses are not strictly "
                        f"ascending in shard [{block_start}, {block_stop})"
                    )
                if int(ips_col[0]) < base_lo or int(ips_col[-1]) >= base_hi:
                    raise DatasetError(
                        f"snapshot {index} has addresses outside shard range "
                        f"[{base_lo:#010x}, {base_hi:#010x})"
                    )
                blocks = (ips_col & np.uint32(0xFFFFFF00)).astype(np.int64)
                positions = np.searchsorted(base_array, blocks)
                if not (base_array[positions] == blocks).all():
                    raise DatasetError(
                        f"snapshot {index} has addresses in a /24 outside "
                        f"this shard's block set"
                    )
                if int(hits_col.min()) == 0:
                    raise DatasetError(
                        "active addresses must have at least one hit"
                    )
            arrays[f"ips_{index}"] = ips_col
            arrays[f"hits_{index}"] = hits_col
        name = shard_file_name(block_start, block_stop)
        path = os.path.join(self._root, name)
        atomic_write_npz(path, arrays, compress=False)
        digest = hashlib.sha256()
        nbytes = 0
        with open(path, "rb") as stream:
            while True:
                chunk = stream.read(1 << 20)
                if not chunk:
                    break
                digest.update(chunk)
                nbytes += len(chunk)
        info = ShardInfo(
            name=name,
            block_start=block_start,
            block_stop=block_stop,
            base_lo=base_lo,
            base_hi=base_hi,
            sha256=digest.hexdigest(),
            nbytes=nbytes,
        )
        self._infos.append(info)
        self._next_block = block_stop
        self._next_base = base_hi
        obs.add("store_shards_written_total")
        return info

    def finalize(self) -> DatasetStore:
        """Digest the shards, write the manifest, return the open store."""
        if self._finalized:
            raise DatasetError("store already finalized")
        self._finalized = True
        shards = [StoreShard(self._root, info) for info in self._infos]
        dataset_sha256 = _streamed_digest(
            shards, self._start, self._window_days, self._num_snapshots
        )
        payload = {
            "schema": STORE_FORMAT_VERSION,
            "start_ordinal": self._start.toordinal(),
            "window_days": self._window_days,
            "num_snapshots": self._num_snapshots,
            "shard_blocks": self._shard_blocks,
            "num_blocks": self._next_block,
            "dataset_sha256": dataset_sha256,
            "shards": [info.as_dict() for info in self._infos],
        }
        atomic_write_text(
            store_manifest_path(self._root),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        for shard in shards:
            shard.close()
        obs.add("stores_finalized_total")
        return DatasetStore(
            self._root,
            start=self._start,
            window_days=self._window_days,
            num_snapshots=self._num_snapshots,
            shard_blocks=self._shard_blocks,
            num_blocks=self._next_block,
            dataset_sha256=dataset_sha256,
            shards=shards,
        )


#: Commit-protocol phase names passed to a :class:`StoreAppender` hook.
COMMIT_PHASE_FINALIZED = "generation-finalized"
COMMIT_PHASE_FLIPPED = "pointer-flipped"


class StoreAppender:
    """Append one snapshot interval at a time to a **live** store.

    A live store root holds generation directories — each a complete,
    independently valid store — plus a ``live.json`` pointer naming the
    committed one::

        <root>/
            live.json                # {"schema": 1, "generation": 2}
            gen_000002/              # the committed 2-snapshot store
                store.manifest.json
                shard_*.npz

    :meth:`append` builds generation ``k+1`` beside the committed
    generation ``k`` (re-slicing the old columns plus the new one into
    fresh shards), finalizes its manifest, then atomically flips the
    pointer and garbage-collects the old generation.  The pointer flip
    is the *only* commit point, so a crash at any instant leaves either
    generation ``k`` or generation ``k+1`` committed — never a torn
    store — and a restarted service replays the missed interval into
    the same (deterministic) bytes.

    The optional *commit_hook* is called with
    :data:`COMMIT_PHASE_FINALIZED` after the new generation's manifest
    lands and :data:`COMMIT_PHASE_FLIPPED` after the pointer flip;
    fault-injection tests use it to kill the process at the
    worst-possible instants.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        start: datetime.date,
        window_days: int,
        shard_blocks: int = 256,
        commit_hook: Callable[[str], None] | None = None,
    ) -> None:
        if window_days < 1:
            raise DatasetError(f"bad window length: {window_days}")
        if shard_blocks < 1:
            raise DatasetError(f"bad shard size: {shard_blocks} blocks")
        self._root = os.fspath(root)
        if os.path.isfile(store_manifest_path(self._root)):
            raise DatasetError(
                f"not a live store: {self._root} holds a plain store manifest"
            )
        os.makedirs(self._root, exist_ok=True)
        self._start = start
        self._window_days = window_days
        self._shard_blocks = shard_blocks
        self._commit_hook = commit_hook
        self._store: DatasetStore | None = None
        generation = read_live_pointer(self._root)
        self._committed = 0 if generation is None else generation
        if generation is not None:
            store = DatasetStore.open(
                os.path.join(self._root, generation_dir_name(generation))
            )
            if store.num_snapshots != generation:
                raise DatasetError(
                    f"live store at {self._root} points at generation "
                    f"{generation} holding {store.num_snapshots} snapshots"
                )
            if (
                store.start != start
                or store.window_days != window_days
                or store.shard_blocks != shard_blocks
            ):
                raise DatasetError(
                    f"live store at {self._root} was built with "
                    f"start={store.start.isoformat()} "
                    f"window_days={store.window_days} "
                    f"shard_blocks={store.shard_blocks}; refusing to append "
                    f"with start={start.isoformat()} "
                    f"window_days={window_days} shard_blocks={shard_blocks}"
                )
            self._store = store

    @property
    def root(self) -> str:
        return self._root

    @property
    def committed(self) -> int:
        """Number of snapshots in the committed generation (0 = none)."""
        return self._committed

    @property
    def store(self) -> DatasetStore | None:
        """The committed generation's store, or ``None`` before any commit."""
        return self._store

    def _signal(self, phase: str) -> None:
        if self._commit_hook is not None:
            self._commit_hook(phase)

    @staticmethod
    def _validated_column(
        ips: NDArray[Any], hits: NDArray[Any]
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        ips_col = np.ascontiguousarray(ips, dtype=np.uint32)
        hits_col = np.ascontiguousarray(hits, dtype=np.uint64)
        if ips_col.ndim != 1 or hits_col.shape != ips_col.shape:
            raise DatasetError("appended snapshot column shape mismatch")
        if ips_col.size > 1 and not (ips_col[1:] > ips_col[:-1]).all():
            raise DatasetError(
                "appended snapshot addresses are not strictly ascending"
            )
        return ips_col, hits_col

    def append(self, ips: NDArray[Any], hits: NDArray[Any]) -> DatasetStore:
        """Commit snapshot ``committed + 1`` and return the new store.

        *ips*/*hits* are one interval's sorted sparse columns (the
        shapes every snapshot carries).  The commit is crash-safe: the
        new generation's manifest is written before the pointer flips,
        and the old generation is removed only after.
        """
        ips_col, hits_col = self._validated_column(ips, hits)
        generation = self._committed + 1
        gen_dir = os.path.join(self._root, generation_dir_name(generation))
        if os.path.isdir(gen_dir):
            # A crash between finalize and pointer flip leaves a complete
            # but uncommitted generation; rebuilding it from scratch is
            # deterministic, so replay converges on identical bytes.
            shutil.rmtree(gen_dir)  # reprolint: disable=P602 -- removes only the *uncommitted* next generation, which no pointer has ever named; the committed generation is untouched (covered by the commit-phase fault-injection tests)
        prev = self._store
        if prev is None:
            prev_bases = np.empty(0, dtype=np.int64)
        else:
            prev_bases = prev.active_block_bases()
        new_bases = np.unique(
            (ips_col & np.uint32(0xFFFFFF00)).astype(np.int64)
        )
        union = np.union1d(prev_bases, new_bases)
        writer = StoreWriter(
            gen_dir,
            start=self._start,
            window_days=self._window_days,
            num_snapshots=generation,
            shard_blocks=self._shard_blocks,
        )
        for offset in range(0, int(union.size), self._shard_blocks):
            chunk = union[offset : offset + self._shard_blocks]
            lo = int(chunk[0])
            hi = int(chunk[-1]) + _BLOCK_SPAN - 1  # inclusive top address
            columns: list[tuple[NDArray[Any], NDArray[Any]]] = []
            for index in range(self._committed):
                assert prev is not None
                columns.append(prev.column_slice(index, lo, hi))
            left = int(np.searchsorted(ips_col, lo))
            right = int(np.searchsorted(ips_col, hi, side="right"))
            columns.append((ips_col[left:right], hits_col[left:right]))
            writer.add_shard(chunk, columns)
        store = writer.finalize()
        self._signal(COMMIT_PHASE_FINALIZED)
        atomic_write_text(
            live_pointer_path(self._root),
            json.dumps(
                {"schema": LIVE_POINTER_VERSION, "generation": generation},
                sort_keys=True,
            )
            + "\n",
        )
        self._signal(COMMIT_PHASE_FLIPPED)
        if prev is not None:
            prev.close()
        for entry in os.listdir(self._root):
            match = _GENERATION_PATTERN.match(entry)
            if match is not None and int(match.group(1)) != generation:
                shutil.rmtree(os.path.join(self._root, entry), ignore_errors=True)
        self._store = store
        self._committed = generation
        obs.add("store_appends_total")
        return store

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "StoreAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
