"""Out-of-core dataset store: sharded raw ``.npz`` layout + manifest.

The legacy persistence format (:mod:`repro.core.io`) is one ``.npz``
holding every snapshot column — loading it materializes the full
address matrix, which caps analysis at whatever fits in RAM.  The paper
analyzed 1.2B active addresses over a year; this module is the layout
that lets the reproduction head there: a **store** is a set of shard
files, each a raw-member (uncompressed) ``.npz`` holding the columns of
a range of snapshots over a range of addresses, plus a JSON manifest
binding them together.

A batch store (:class:`StoreWriter`) tiles the address space: each
shard covers a contiguous range of the dataset's active /24 blocks and
holds every snapshot of it::

    <root>/
        store.manifest.json          # schema, day range, shard table,
                                     # per-shard file SHA-256
        shard_000000_000256.npz      # blocks [0, 256) of the sorted
        shard_000256_000512.npz      # active-/24 table, all snapshots

A live store (:class:`StoreAppender`) tiles time instead: each committed
interval is one immutable one-snapshot store, and the root's own
manifest lists them (see :class:`StoreAppender` for the layout).  Both
are read through one lookup — snapshot → the shard files holding it, in
address order — so :meth:`DatasetStore.column_slice`,
:meth:`~DatasetStore.to_dataset`, :meth:`~DatasetStore.digest` and the
streamed passes of :meth:`~DatasetStore.iter_shards` have a single read
path; a batch store is the case where one file holds every snapshot of
its range.  Either kind opens one way: :meth:`DatasetStore.open` reads
the root's ``store.manifest.json``, the only manifest a store has.  It
records files, not the dataset SHA-256, which is computed on demand.

Shard files reuse the checkpoint naming convention from
:mod:`repro.sim.checkpoint` (``shard_<start>_<stop>.npz`` keyed by
block range).  Each shard holds, per snapshot, the ``(ips, hits)``
columns restricted to its address range, sorted — plus the same header
members as the legacy format, so every shard is independently a valid
(partial) dataset file.

Shards are keyed by **sorted /24 base address**, not by world-gen block
index: the population allocator interleaves countries, so block index
order is not address order, and only address-keyed ranges make
``searchsorted`` slicing of sorted snapshot columns valid.  Shard
boundaries are 256-aligned — a /24 is never split across shards — so
per-/24 quantities (filling degree, STU, block activity) decompose
exactly over shards, and concatenating shard columns in shard order
reproduces the legacy arrays bit-identically.

Memory model: analyses stream one address range at a time.  Shard
*data* is read with bounded buffered copies (one member, or one slice
of a member, at a time) rather than ``mmap`` — mapped pages fault into
the process RSS and would defeat a constant-memory ceiling — while the
``load_dataset`` fast path uses true zero-copy ``np.memmap`` views, and
:meth:`DatasetStore.to_dataset` maps the parts of a column it
concatenates, where the caller wants the whole matrix anyway.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import re
import zipfile
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import IO, Any

import numpy as np
from numpy.typing import NDArray

from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.index import block_runs, distinct_union
from repro.core.io import (
    _CORRUPT_NPZ_ERRORS,
    _fsync_directory,
    atomic_write_npz,
    atomic_write_text,
)
from repro.errors import DatasetError
from repro.obs import context as obs
from repro.obs.manifest import digest_stream

#: Bump when the shard payload or manifest schema changes.
STORE_FORMAT_VERSION = 1

#: Manifest schema of a live store: one interval store per snapshot
#: plus the /24 union, instead of address-tiled whole-history shards.
INTERVAL_FORMAT_VERSION = 2

#: Manifest file name inside a store directory.
STORE_MANIFEST_NAME = "store.manifest.json"

#: Directory inside a live store root holding one store per interval.
INTERVALS_DIR_NAME = "intervals"

#: Addresses per /24 block.
_BLOCK_SPAN = 256

#: One past the highest IPv4 address.
_ADDRESS_END = 2**32

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


def interval_dir_name(interval: int) -> str:
    """Directory name of one committed live-store interval (1-based)."""
    return f"{interval:06d}"


def interval_shard_name(interval: int, num_blocks: int) -> str:
    """A live manifest's name for interval *interval*'s shard file.

    Relative to the live store root, whose manifest sits beside
    ``intervals/``.
    """
    return "/".join(
        (INTERVALS_DIR_NAME, interval_dir_name(interval), shard_file_name(0, num_blocks))
    )


def is_store(path: str | os.PathLike[str]) -> bool:
    """True when *path* is a directory holding a store manifest."""
    return os.path.isfile(store_manifest_path(path))


#: The header ``np.save`` writes for a plain array, e.g.
#: ``{'descr': '<u4', 'fortran_order': False, 'shape': (3,), }`` plus
#: space padding — matched directly instead of parsed as a literal.
_NPY_HEADER = re.compile(
    rb"\{'descr': '([<>|=]?[a-zA-Z]\d*)', 'fortran_order': (False|True), "
    rb"'shape': \(((?:\d+, )*\d*,?)\), \} *\n"
)

#: Where one ``.npy`` member's array lives: shape, dtype, and the byte
#: offset of its raw data in the bundle (``-1`` = not raw).
MemberLocation = tuple[tuple[int, ...], np.dtype[Any], int]


class RawNpzReader:
    """Random access to ``.npz`` members without whole-bundle loads.

    ``np.load`` on an ``.npz`` decompresses each member through a full
    in-memory copy even when the member was stored raw.  This reader
    parses the zip central directory, locates each member's array data
    by its local-header offset, and then serves reads three ways:

    - :meth:`header` — shape and dtype from the ``.npy`` header alone
      (no data read), for size accounting and digests;
    - :meth:`array` — a bounded buffered copy (``np.fromfile`` at the
      data offset), the streaming-analysis path that keeps RSS flat;
      ``start``/``stop`` copy only that run of items;
    - :meth:`array` with ``mmap=True`` — a read-only ``np.memmap``
      view, true zero-copy for whole-matrix consumers.

    Members that are compressed (or Fortran-ordered / object-dtype)
    fall back to ``np.lib.format.read_array`` through the zip stream;
    :meth:`data_offset` returns ``-1`` for them so callers needing the
    zero-copy guarantee can detect and bail.

    *locations* is a member-location cache the caller owns and the
    reader fills.  Handed a non-empty one, the reader opens the bundle
    only when asked for a member the cache does not know, so a caller
    that keeps the cache across readers (:class:`StoreShard`) parses
    each file's headers once and afterwards reads raw members by offset
    without holding any file open.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        locations: dict[str, MemberLocation] | None = None,
    ) -> None:
        self._path = os.fspath(path)
        self._zip: zipfile.ZipFile | None = None
        self._file: IO[bytes] | None = None
        # member name -> (shape, dtype, data offset; -1 = not raw)
        self._headers: dict[str, MemberLocation] = (
            {} if locations is None else locations
        )
        if not self._headers:
            self._open()

    def _open(self) -> tuple[zipfile.ZipFile, IO[bytes]]:
        if self._zip is None or self._file is None:
            self._zip = zipfile.ZipFile(self._path)
            try:
                self._file = open(self._path, "rb")
            except BaseException:
                self._zip.close()
                self._zip = None
                raise
        return self._zip, self._file

    def close(self) -> None:
        if self._zip is not None:
            self._zip.close()
            self._zip = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "RawNpzReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def path(self) -> str:
        return self._path

    def keys(self) -> list[str]:
        """Member names (without the ``.npy`` suffix), archive order."""
        bundle, _file = self._open()
        return [
            name[: -len(".npy")]
            for name in bundle.namelist()
            if name.endswith(".npy")
        ]

    def _locate(self, name: str) -> MemberLocation:
        cached = self._headers.get(name)
        if cached is not None:
            return cached
        bundle, file = self._open()
        try:
            info = bundle.getinfo(name + ".npy")
        except KeyError as exc:
            raise DatasetError(
                f"not a dataset file: {self._path} (missing member {name!r})"
            ) from exc
        if info.compress_type == zipfile.ZIP_STORED:
            file.seek(info.header_offset)
            local = file.read(_ZIP_LOCAL_HEADER_SIZE)
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
            file.seek(payload)
            shape, fortran, dtype = self._read_npy_header(file)
            offset = -1 if fortran or dtype.hasobject else file.tell()
        else:
            with bundle.open(info) as stream:
                shape, _fortran, dtype = self._read_npy_header(stream)
            offset = -1
        located = (shape, dtype, offset)
        self._headers[name] = located
        return located

    @staticmethod
    def _read_npy_header(
        stream: IO[bytes],
    ) -> tuple[tuple[int, ...], bool, np.dtype[Any]]:
        start = stream.tell()
        version = np.lib.format.read_magic(stream)
        if version not in ((1, 0), (2, 0)):
            raise DatasetError(f"unsupported .npy member format version: {version}")
        length = int.from_bytes(stream.read(2 if version == (1, 0) else 4), "little")
        match = _NPY_HEADER.fullmatch(stream.read(length))
        if match is not None:
            descr, fortran, dims = match.groups()
            shape = tuple(int(dim) for dim in dims.split(b",") if dim.strip())
            return shape, fortran == b"True", np.dtype(descr.decode("ascii"))
        # Anything else (structured dtypes, other spellings) goes through
        # numpy's own, slower, literal_eval parser.
        stream.seek(start)
        np.lib.format.read_magic(stream)
        if version == (1, 0):
            return np.lib.format.read_array_header_1_0(stream)
        return np.lib.format.read_array_header_2_0(stream)

    def header(self, name: str) -> tuple[tuple[int, ...], np.dtype[Any]]:
        """Member *name*'s ``(shape, dtype)`` without reading its data."""
        shape, dtype, _offset = self._locate(name)
        return shape, dtype

    def data_offset(self, name: str) -> int:
        """Byte offset of *name*'s raw array data; ``-1`` when not raw."""
        _shape, _dtype, offset = self._locate(name)
        return offset

    def array(
        self,
        name: str,
        *,
        mmap: bool = False,
        start: int = 0,
        stop: int | None = None,
    ) -> NDArray[Any]:
        """Member *name* as an array, or items ``[start, stop)`` of it.

        Raw members are read with a bounded buffered copy, or mapped
        read-only when ``mmap=True``.  Non-raw members (compressed,
        Fortran, object dtype) are decoded through the zip stream.  An
        item range applies to one-dimensional members only.
        """
        shape, dtype, offset = self._locate(name)
        if offset < 0:
            bundle, _file = self._open()
            with bundle.open(name + ".npy") as stream:
                decoded: NDArray[Any] = np.lib.format.read_array(
                    stream, allow_pickle=False
                )
            return decoded if start == 0 and stop is None else decoded[start:stop]
        if start != 0 or stop is not None:
            if len(shape) != 1:
                raise DatasetError(
                    f"item range of a {len(shape)}-d member {name!r} in "
                    f"{self._path}"
                )
            stop = shape[0] if stop is None else min(stop, shape[0])
            offset += start * dtype.itemsize
            shape = (max(stop - start, 0),)
        count = math.prod(shape)
        if count == 0:
            return np.empty(shape, dtype=dtype)
        if mmap:
            mapped: NDArray[Any] = np.memmap(
                self._path, mode="r", dtype=dtype, shape=shape, offset=offset
            )
            return mapped
        if self._file is not None:
            self._file.seek(offset)
            flat = np.fromfile(self._file, dtype=dtype, count=count)
        else:
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
    """One shard file of a store: lazy reader plus its manifest row.

    A shard holds the columns of the snapshots in :attr:`snapshots`
    over the address range of its :attr:`info` — every snapshot in a
    batch store, one in a live store's interval file.  Member
    locations are cached on the shard and survive :meth:`close`, so
    the file's headers are parsed once per shard and later reads open
    the file only for as long as they take.
    """

    def __init__(
        self, root: str | os.PathLike[str], info: ShardInfo, snapshots: range
    ) -> None:
        self.info = info
        self.path = os.path.normpath(os.path.join(os.fspath(root), info.name))
        #: Global indices of the snapshots this file holds, in member order.
        self.snapshots = snapshots
        self._reader: RawNpzReader | None = None
        self._header: StoreHeader | None = None
        self._sizes: list[int] | None = None
        self._locations: dict[str, MemberLocation] = {}

    def reader(self) -> RawNpzReader:
        if self._reader is None:
            try:
                self._reader = RawNpzReader(self.path, locations=self._locations)
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
        """Active addresses per held snapshot, from headers only (no data read).

        The first call locates every column member while the bundle is
        open, then closes it: from then on columns are read by offset,
        and no file stays open between reads.
        """
        if self._sizes is None:
            reader = self.reader()
            sizes: list[int] = []
            for index in self.snapshots:
                shape, _dtype = reader.header(self.member("ips", index))
                reader.header(self.member("hits", index))
                sizes.append(math.prod(shape))
            self._sizes = sizes
            self.close()
        return self._sizes

    def member(self, kind: str, index: int) -> str:
        """The member holding global snapshot *index*'s *kind* column."""
        return f"{kind}_{index - self.snapshots.start}"

    def columns(
        self, index: int, *, mmap: bool = False
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Global snapshot *index*'s ``(ips, hits)`` columns within this shard."""
        try:
            self.snapshot_sizes()  # every column member located
            reader = self.reader()
            return (
                reader.array(self.member("ips", index), mmap=mmap),
                reader.array(self.member("hits", index), mmap=mmap),
            )
        except _CORRUPT_NPZ_ERRORS as exc:
            raise DatasetError(
                f"corrupt or truncated store shard: {self.path} ({exc})"
            ) from exc

    def columns_between(
        self, index: int, lo: int, hi: int
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """:meth:`columns` restricted to addresses ``[lo, hi]`` (inclusive).

        The bounds are found by binary search over a read-only map of
        the address member, so only the requested run of items is
        copied.
        """
        ips_name = self.member("ips", index)
        hits_name = self.member("hits", index)
        try:
            self.snapshot_sizes()  # every column member located
            reader = self.reader()
            addresses = reader.array(ips_name, mmap=True)
            left = int(np.searchsorted(addresses, lo))
            right = int(np.searchsorted(addresses, hi, side="right"))
            del addresses
            return (
                reader.array(ips_name, start=left, stop=right),
                reader.array(hits_name, start=left, stop=right),
            )
        except _CORRUPT_NPZ_ERRORS as exc:
            raise DatasetError(
                f"corrupt or truncated store shard: {self.path} ({exc})"
            ) from exc


class StoreRange:
    """One address range of a store across every snapshot.

    The unit a streamed pass folds (:meth:`DatasetStore.iter_shards`):
    ranges are disjoint, ascending and 256-aligned, so per-/24 results
    computed range by range concatenate into the whole-store result.
    A batch store's ranges are its shards'; a live store's chunk its
    /24 union into ``shard_blocks`` /24s each.
    """

    def __init__(self, store: "DatasetStore", lo: int, hi: int) -> None:
        self.store = store
        self.lo = lo
        self.hi = hi  # inclusive

    def columns(self, index: int) -> tuple[NDArray[Any], NDArray[Any]]:
        """Snapshot *index*'s ``(ips, hits)`` within this range."""
        return self.store.read(index, self.lo, self.hi)

    def close(self) -> None:
        """Release the readers of every shard file this range reads."""
        for shard in self.store.shards:
            if shard.info.base_hi > self.lo and shard.info.base_lo <= self.hi:
                shard.close()


class DatasetStore:
    """A validated handle to an on-disk sharded dataset store.

    Open one with :meth:`DatasetStore.open` (or
    :func:`repro.core.io.open_store`).  Opening validates the manifest
    and every shard's header eagerly — a batch store's block ranges
    must tile ``[0, num_blocks)`` contiguously, address ranges must be
    256-aligned, ascending, and disjoint, and every shard must agree
    with the manifest on its day range — but reads shard *data*
    lazily, one member at a time.

    Every read goes through one lookup, from a snapshot to the shard
    files holding it in address order (:meth:`read`): all of a batch
    store's shards, or the one interval file of a live store.
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
        shards: list[StoreShard],
        block_bases: NDArray[np.int64] | None = None,
    ) -> None:
        self.root = root
        self.start = start
        self.window_days = window_days
        self.num_snapshots = num_snapshots
        self.shard_blocks = shard_blocks
        self.num_blocks = num_blocks
        self.shards = shards
        #: The sorted /24 union a live manifest records; ``None`` for
        #: a batch store, whose shards carry the block table.
        self.block_bases = block_bases
        self._dataset_sha256: str | None = None
        self._holders: list[list[StoreShard]] = [[] for _ in range(num_snapshots)]
        for shard in shards:
            for index in shard.snapshots:
                self._holders[index].append(shard)
        self._ranges: list[tuple[int, int]]
        if block_bases is None:
            self._ranges = [
                (shard.info.base_lo, shard.info.base_hi - 1) for shard in shards
            ]
        else:
            # Edge to edge from address 0 to the top, so every address
            # falls in exactly one range whatever the union holds.
            firsts = [int(base) for base in block_bases[::shard_blocks]]
            edges = [0, *firsts[1:], _ADDRESS_END]
            self._ranges = [
                (edges[position], edges[position + 1] - 1)
                for position in range(len(firsts))
            ]

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
            held = shard.snapshots
            counts[held.start : held.stop] += np.asarray(
                shard.snapshot_sizes(), dtype=np.int64
            )
        return counts

    def nbytes(self) -> int:
        """Total shard file bytes, per the manifest."""
        return sum(shard.info.nbytes for shard in self.shards)

    def read(
        self, index: int, lo: int, hi: int, *, mmap: bool = False
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Snapshot *index*'s ``(ips, hits)`` restricted to ``[lo, hi]``.

        The store's one read path.  *hi* is inclusive (the exclusive
        bound of the top /24 would overflow ``uint32``).  Only the
        shards holding the snapshot whose address range overlaps the
        request are read, and only the requested run of each, so the
        result is bounded by the requested slice.  ``mmap=True`` maps
        the whole-file parts of a slice split across shards before
        concatenating them; a slice held by one file is read straight
        into memory.  Either way the result is an in-memory array: a
        mapping left in it would pin a file descriptor for as long as
        it lives.
        """
        shards = [
            shard
            for shard in self._holders[index]
            if shard.info.base_hi > lo and shard.info.base_lo <= hi
        ]
        mmap = mmap and len(shards) > 1
        ips_parts: list[NDArray[Any]] = []
        hits_parts: list[NDArray[Any]] = []
        for shard in shards:
            if lo <= shard.info.base_lo and shard.info.base_hi - 1 <= hi:
                ips, hits = (
                    shard.columns(index, mmap=True) if mmap else shard.columns(index)
                )
            else:
                ips, hits = shard.columns_between(index, lo, hi)
            if ips.size:
                ips_parts.append(ips)
                hits_parts.append(hits)
        if not ips_parts:
            return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64)
        if len(ips_parts) == 1 and not mmap:
            return ips_parts[0], hits_parts[0]
        return (
            np.concatenate(ips_parts),  # bounded: one requested address slice
            np.concatenate(hits_parts),  # bounded: one requested address slice
        )

    def iter_shards(self) -> Iterator[StoreRange]:
        """Each address range in ascending order, closed once passed.

        The one per-range loop of every streamed pass: the ``finally``
        also runs when the consumer raises mid-range or abandons the
        iteration, so no shard's reader outlives its turn.
        """
        for lo, hi in self._ranges:
            view = StoreRange(self, lo, hi)
            try:
                yield view
            finally:
                view.close()

    def column_slice(
        self, index: int, lo: int, hi: int
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Snapshot *index*'s ``(ips, hits)`` restricted to ``[lo, hi]``.

        *hi* is inclusive; see :meth:`read`.
        """
        return self.read(index, lo, hi)

    def iter_union_runs(self) -> Iterator[tuple[NDArray[Any], NDArray[Any]]]:
        """Sorted ``(ips, hits)`` union runs, one per range, streaming.

        Concatenating every run reproduces ``kway_union`` of the whole
        dataset; peak memory is one range's columns plus one run.
        """
        from repro.core.index import iter_union_runs

        def groups() -> Iterator[tuple[list[NDArray[Any]], list[NDArray[Any]]]]:
            for view in self.iter_shards():
                ips_parts: list[NDArray[Any]] = []
                hits_parts: list[NDArray[Any]] = []
                for index in range(self.num_snapshots):
                    ips, hits = view.columns(index)
                    if ips.size:
                        ips_parts.append(ips)
                        hits_parts.append(hits)
                yield ips_parts, hits_parts

        return iter_union_runs(groups())

    def to_dataset(self, *, mmap: bool = True) -> ActivityDataset:
        """Materialize the full in-memory dataset, bit-identically.

        Each snapshot's column is read across its shards in address
        order (``Snapshot`` re-validates strict ascent).  ``mmap=True``
        reads the parts of a column split across shards through
        read-only maps instead of intermediate copies (see :meth:`read`).
        """
        snapshots: list[Snapshot] = []
        for index in range(self.num_snapshots):
            ips_col, hits_col = self.read(index, 0, _ADDRESS_END - 1, mmap=mmap)
            snapshots.append(
                Snapshot(
                    self.snapshot_start(index), self.window_days, ips_col, hits_col
                )
            )
        return ActivityDataset(snapshots)

    @property
    def dataset_sha256(self) -> str:
        """The dataset SHA-256: :meth:`digest`, computed once per handle."""
        if self._dataset_sha256 is None:
            self._dataset_sha256 = self.digest()
        return self._dataset_sha256

    def digest(self) -> str:
        """The dataset SHA-256, fed one shard member at a time (bounded
        memory) into :func:`~repro.obs.manifest.digest_stream`."""

        def parts(index: int, kind: str, dtype: str) -> Iterator[memoryview]:
            for shard in self._holders[index]:
                name = shard.member(kind, index)
                column = shard.reader().array(name)
                if column.dtype.str != dtype:
                    raise DatasetError(
                        f"bad column dtype in shard {shard.path}: "
                        f"{name} is {column.dtype.str}, expected {dtype}"
                    )
                yield np.ascontiguousarray(column).data

        columns = (
            (dtype, int(size), parts(index, kind, dtype))
            for index, size in enumerate(self.active_counts())
            for kind, dtype in (("ips", "<u4"), ("hits", "<u8"))
        )
        try:
            return digest_stream(self.start, self.window_days, len(self), columns)
        finally:
            self.close()  # the readers opened here, even on an error

    def verify(self) -> None:
        """Re-hash every shard file against its manifest fingerprint."""
        for shard in self.shards:
            try:
                sha256, nbytes = _file_sha256(shard.path)
            except FileNotFoundError as exc:
                raise DatasetError(
                    f"missing store shard file: {shard.path}"
                ) from exc
            if nbytes != shard.info.nbytes or sha256 != shard.info.sha256:
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
            shard_entries = list(payload["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                f"malformed store manifest: {manifest_file} ({exc})"
            ) from exc
        if schema not in (STORE_FORMAT_VERSION, INTERVAL_FORMAT_VERSION):
            raise DatasetError(
                f"unsupported store manifest schema in {manifest_file}: {schema}"
            )
        if window_days < 1 or num_snapshots < 1 or shard_blocks < 1:
            raise DatasetError(f"malformed store manifest: {manifest_file}")
        infos = [ShardInfo.from_dict(entry) for entry in shard_entries]
        block_bases: NDArray[np.int64] | None = None
        if schema == STORE_FORMAT_VERSION:
            _check_tiling(infos, num_blocks, manifest_file)
            shards = [StoreShard(root, info, range(num_snapshots)) for info in infos]
        else:
            block_bases = _manifest_bases(payload, num_blocks, manifest_file)
            shards = _interval_shards(
                root, infos, shard_entries, num_snapshots, num_blocks, manifest_file
            )
        checked: list[StoreShard] = []
        for shard in shards:
            try:
                _check_shard_file(shard, start, window_days, manifest_file, checked)
            finally:
                shard.close()
            checked.append(shard)
        return cls(
            root,
            start=start,
            window_days=window_days,
            num_snapshots=num_snapshots,
            shard_blocks=shard_blocks,
            num_blocks=num_blocks,
            shards=shards,
            block_bases=block_bases,
        )


def _manifest_text(payload: dict[str, Any]) -> str:
    # Compact separators keep json on its C encoder (indent= falls back
    # to the pure-Python one): the live root manifest is re-encoded on
    # every tick and grows a row per interval.
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def _file_sha256(path: str) -> tuple[str, int]:
    """SHA-256 and size of the file at *path*, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    nbytes = 0
    with open(path, "rb") as stream:
        while True:
            chunk = stream.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
            nbytes += len(chunk)
    return digest.hexdigest(), nbytes


def _check_tiling(
    infos: Sequence[ShardInfo], num_blocks: int, manifest_file: str
) -> None:
    """A batch manifest's shards must tile its ascending block table."""
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
        _check_base_range(info, next_base)
        next_block = info.block_stop
        next_base = info.base_hi
    if next_block != num_blocks:
        raise DatasetError(
            f"store manifest at {manifest_file} declares {num_blocks} "
            f"blocks but its shards cover {next_block}"
        )


def _check_base_range(info: ShardInfo, floor: int) -> None:
    if (
        info.base_lo % _BLOCK_SPAN
        or info.base_hi % _BLOCK_SPAN
        or info.base_lo < floor
        or info.base_hi - info.base_lo < info.num_blocks * _BLOCK_SPAN
        or info.base_hi > _ADDRESS_END
    ):
        raise DatasetError(
            f"store shard {info.name} has a malformed address range "
            f"[{info.base_lo:#010x}, {info.base_hi:#010x})"
        )


def _manifest_bases(
    payload: dict[str, Any], num_blocks: int, manifest_file: str
) -> NDArray[np.int64]:
    """A live manifest's recorded /24 union, validated."""
    try:
        bases = np.array([int(base) for base in payload["block_bases"]], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(
            f"malformed store manifest: {manifest_file} ({exc})"
        ) from exc
    if (
        bases.size != num_blocks
        or (bases % _BLOCK_SPAN).any()
        or (bases.size and (bases[0] < 0 or bases[-1] >= _ADDRESS_END))
        or (bases[1:] <= bases[:-1]).any()
    ):
        raise DatasetError(
            f"store manifest at {manifest_file} records a malformed /24 "
            f"union ({bases.size} bases for {num_blocks} blocks)"
        )
    return bases


def _interval_shards(
    root: str,
    infos: Sequence[ShardInfo],
    entries: Sequence[Any],
    num_snapshots: int,
    num_blocks: int,
    manifest_file: str,
) -> list[StoreShard]:
    """A live manifest's interval files, one per non-empty snapshot."""
    shards: list[StoreShard] = []
    previous = -1
    for info, entry in zip(infos, entries):
        try:
            index = int(entry["snapshot"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                f"malformed store manifest shard entry: {exc}"
            ) from exc
        if not previous < index < num_snapshots:
            raise DatasetError(
                f"store manifest at {manifest_file} lists interval file "
                f"{info.name!r} at snapshot {index}, out of order or past "
                f"its {num_snapshots} snapshots"
            )
        name = interval_shard_name(index + 1, info.block_stop)
        if (
            info.name != name
            or info.block_start != 0
            or not 0 < info.block_stop <= num_blocks
        ):
            raise DatasetError(
                f"store manifest at {manifest_file} names interval file "
                f"{info.name!r} for snapshot {index}, block range "
                f"[{info.block_start}, {info.block_stop})"
            )
        _check_base_range(info, 0)
        shards.append(StoreShard(root, info, range(index, index + 1)))
        previous = index
    return shards


def _check_shard_file(
    shard: StoreShard,
    start: datetime.date,
    window_days: int,
    manifest_file: str,
    checked: Sequence[StoreShard],
) -> None:
    """*shard*'s own header and ranges must match its manifest row.

    Also locates every column member (headers only), so a missing one
    fails here and later reads need not parse the file again.
    """
    held = shard.snapshots
    expected = StoreHeader(
        start + datetime.timedelta(days=held.start * window_days),
        window_days,
        len(held),
    )
    header = shard.header()
    if header != expected:
        peer = next((other for other in checked if other.snapshots == held), None)
        if peer is not None:
            raise DatasetError(
                f"day-range mismatch between shards: {peer.path} "
                f"covers {peer.header().describe()} but "
                f"{shard.path} covers {header.describe()}"
            )
        raise DatasetError(
            f"store manifest at {manifest_file} declares "
            f"{expected.describe()} but shard {shard.path} "
            f"covers {header.describe()}"
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
    shard.snapshot_sizes()


class StoreWriter:
    """Incremental, constant-memory store writer.

    Shards are added one at a time in ascending /24 base order; each
    :meth:`add_shard` validates its columns and writes one raw-member
    ``.npz`` atomically.  :meth:`finalize` writes the manifest — which
    is deleted up front, so a crash mid-build leaves "no store here"
    rather than a manifest pointing at half-rewritten shards.
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
        atomic_write_npz(path, arrays.items(), compress=False)
        sha256, nbytes = _file_sha256(path)
        info = ShardInfo(
            name=name,
            block_start=block_start,
            block_stop=block_stop,
            base_lo=base_lo,
            base_hi=base_hi,
            sha256=sha256,
            nbytes=nbytes,
        )
        self._infos.append(info)
        self._next_block = block_stop
        self._next_base = base_hi
        obs.add("store_shards_written_total")
        return info

    def finalize(self) -> DatasetStore:
        """Write the manifest and return the open store."""
        if self._finalized:
            raise DatasetError("store already finalized")
        self._finalized = True
        payload = {
            "schema": STORE_FORMAT_VERSION,
            "start_ordinal": self._start.toordinal(),
            "window_days": self._window_days,
            "num_snapshots": self._num_snapshots,
            "shard_blocks": self._shard_blocks,
            "num_blocks": self._next_block,
            "shards": [info.as_dict() for info in self._infos],
        }
        atomic_write_text(store_manifest_path(self._root), _manifest_text(payload))
        obs.add("stores_finalized_total")
        return DatasetStore(
            self._root,
            start=self._start,
            window_days=self._window_days,
            num_snapshots=self._num_snapshots,
            shard_blocks=self._shard_blocks,
            num_blocks=self._next_block,
            shards=[
                StoreShard(self._root, info, range(self._num_snapshots))
                for info in self._infos
            ],
        )


#: Commit-protocol phase names passed to a :class:`StoreAppender` hook.
COMMIT_PHASE_WRITTEN = "interval-written"
COMMIT_PHASE_COMMITTED = "manifest-committed"


class StoreAppender:
    """Append one snapshot interval at a time to a **live** store.

    A live store root holds one immutable store per committed interval
    and one manifest listing the intervals committed so far::

        <root>/
            store.manifest.json          # intervals 1-2 + the /24 union
            intervals/
                000001/                  # a one-snapshot store
                    store.manifest.json
                    shard_000000_000003.npz
                000002/
                    store.manifest.json
                    shard_000000_000002.npz

    :meth:`append` writes interval ``k+1`` once, as a one-snapshot store
    through :class:`StoreWriter` (the interval's own /24s in one shard
    file), then atomically replaces the root manifest — the committed
    interval files, named relative to the root, with their SHA-256s,
    and the /24 union.  Nothing under the root is ever deleted, and
    committed interval files are never rewritten or read back, so a
    tick writes and reads O(interval) bytes: the only file it reads is
    the shard it just wrote, to fingerprint it.  The dataset SHA-256 is
    not part of a commit; it is computed when asked for.  The
    manifest replace is the *only* commit point: a crash at any instant
    leaves ``k`` or ``k+1`` intervals committed — never a torn store —
    and a restarted service replays the missed interval, rewriting its
    uncommitted files by atomic replace with the same (deterministic)
    bytes.  A reader that opened the root before a commit keeps reading
    the files its manifest named; one that opens it after reads the new
    manifest.

    A root in a retired layout (a ``live.json`` pointer naming a
    ``gen_<k>/`` generation) is refused before anything is written
    under it; ``open_store`` reports it as a directory with no
    ``store.manifest.json``.

    The optional *commit_hook* is called with
    :data:`COMMIT_PHASE_WRITTEN` once the interval's files are durable,
    before the manifest replace, and :data:`COMMIT_PHASE_COMMITTED`
    after it; fault-injection tests use it to kill the process at the
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
        if os.path.exists(os.path.join(self._root, "live.json")):
            raise DatasetError(
                f"live store at {self._root} uses a legacy layout, now "
                "retired (a live.json pointer to gen_<k>/ generations); "
                "collect into a new store directory"
            )
        os.makedirs(self._root, exist_ok=True)
        self._start = start
        self._window_days = window_days
        self._shard_blocks = shard_blocks
        self._commit_hook = commit_hook
        self._store: DatasetStore | None = None
        self._bases: NDArray[np.int64] = np.empty(0, dtype=np.int64)
        if os.path.isfile(store_manifest_path(self._root)):
            store = DatasetStore.open(self._root)
            if store.block_bases is None:
                raise DatasetError(
                    f"not a live store: {self._root} holds a plain store manifest"
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
            self._bases = store.block_bases

    @property
    def root(self) -> str:
        return self._root

    @property
    def committed(self) -> int:
        """Number of snapshots the root manifest commits (0 = none)."""
        return 0 if self._store is None else self._store.num_snapshots

    @property
    def store(self) -> DatasetStore | None:
        """The committed store, or ``None`` before any commit."""
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

    def _write_interval(
        self,
        interval: int,
        ips: NDArray[Any],
        hits: NDArray[Any],
        bases: NDArray[np.int64],
    ) -> list[StoreShard]:
        """Write interval *interval* as a one-snapshot store; its shard(s).

        The interval's shard row is renamed relative to the root, whose
        manifest lists it.
        """
        intervals = os.path.join(self._root, INTERVALS_DIR_NAME)
        interval_root = os.path.join(intervals, interval_dir_name(interval))
        created = not os.path.isdir(interval_root)
        writer = StoreWriter(
            interval_root,
            start=self._start
            + datetime.timedelta(days=(interval - 1) * self._window_days),
            window_days=self._window_days,
            num_snapshots=1,
            shard_blocks=max(1, int(bases.size)),
        )
        if created:
            _fsync_directory(intervals)
        infos = [writer.add_shard(bases, [(ips, hits)])] if bases.size else []
        writer.finalize()
        return [
            StoreShard(
                self._root,
                replace(info, name=interval_shard_name(interval, info.block_stop)),
                range(interval - 1, interval),
            )
            for info in infos
        ]

    def append(self, ips: NDArray[Any], hits: NDArray[Any]) -> DatasetStore:
        """Commit snapshot ``committed + 1`` and return the new store.

        *ips*/*hits* are one interval's sorted sparse columns (the
        shapes every snapshot carries).  The commit is crash-safe: the
        interval's files are durable before the root manifest is
        replaced to name them, and committed intervals are never
        touched.
        """
        ips_col, hits_col = self._validated_column(ips, hits)
        interval = self.committed + 1
        new_bases = block_runs(ips_col)[0].astype(np.int64)
        added = self._write_interval(interval, ips_col, hits_col, new_bases)
        prev = self._store
        bases = distinct_union([self._bases, new_bases])  # O(active /24s)
        store = DatasetStore(
            self._root,
            start=self._start,
            window_days=self._window_days,
            num_snapshots=interval,
            shard_blocks=self._shard_blocks,
            num_blocks=int(bases.size),
            shards=([] if prev is None else prev.shards) + added,
            block_bases=bases,
        )
        payload = {
            "schema": INTERVAL_FORMAT_VERSION,
            "start_ordinal": self._start.toordinal(),
            "window_days": self._window_days,
            "num_snapshots": interval,
            "shard_blocks": self._shard_blocks,
            "num_blocks": int(bases.size),
            "block_bases": [int(base) for base in bases],
            "shards": [
                {**shard.info.as_dict(), "snapshot": shard.snapshots.start}
                for shard in store.shards
            ],
        }
        self._signal(COMMIT_PHASE_WRITTEN)
        atomic_write_text(store_manifest_path(self._root), _manifest_text(payload))
        self._signal(COMMIT_PHASE_COMMITTED)
        self._store = store
        self._bases = bases
        obs.add("store_appends_total")
        return store

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "StoreAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
