"""Shard checkpoints: crash-safe persistence for the collection engine.

A year-long collection run is the one artifact of this pipeline too
expensive to lose, so the sharded engine (:mod:`repro.sim.engine`) can
checkpoint every finished shard to disk and, on a restarted run with
``resume=True``, load the finished shards back and simulate only the
remainder.  Longitudinal measurement studies (the paper's year of CDN
logs, *Lost in Space*-style darknet monitoring) live or die on exactly
this property.

Design:

- One checkpoint file per shard, named by the shard's **global block
  range** (``shard_<start>_<stop>.npz``) rather than its shard index,
  so a resume only reuses a checkpoint whose blocks match exactly.
- Checkpoints for one run live under ``<root>/run_<fingerprint>``
  where the fingerprint digests everything that determines shard
  output: the simulation config, horizon, window length, UA window,
  scan days, login panel and restructure directives — but *not* the
  worker count, which is an operational knob.  A run restarted with a
  different seed or horizon therefore can never load a stale shard.
- Files are written through :func:`repro.core.io.atomic_write_npz`
  (temp file + fsync + rename + directory fsync), so a crash mid-
  checkpoint leaves either no file or a complete one.
- Loading is defensive: a corrupt, truncated, or mismatched checkpoint
  is reported as "absent" (the shard is simply re-simulated), never an
  exception — a half-written checkpoint must not be able to kill the
  resumed run that is trying to recover from the original crash.

The serialized payload is a flat dict of numpy arrays (no pickling):
window columns, flattened UA counters, the login trace, per-scan-day
assignment state, and final policy kinds — everything a
:class:`~repro.sim.engine.ShardResult` carries, reconstructed
bit-identically on load so the engine's determinism contract survives
a kill-and-resume cycle.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import Counter
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from repro.core.io import _CORRUPT_NPZ_ERRORS, atomic_write_npz
from repro.obs import context as obs_api
from repro.sim.policies import PolicyKind

if TYPE_CHECKING:
    # engine imports this module at import time; type-only imports
    # keep the annotations without the runtime cycle.
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import ShardResult, ShardTask

#: Bump when the checkpoint payload layout changes; old files are then
#: treated as absent and their shards re-simulated.
CHECKPOINT_VERSION = 1

_RUN_DIR_RE = re.compile(r"^run_[0-9a-f]{16}$")
_SHARD_FILE_RE = re.compile(r"^shard_(\d{6})_(\d{6})\.npz$")


def run_fingerprint(
    config: "SimulationConfig",
    num_days: int,
    window_days: int,
    ua_window: tuple[int, int] | None,
    scan_days: tuple[int, ...],
    login_panel_rate: float,
    directives: tuple[object, ...],
    perturbations: tuple[object, ...] = (),
) -> str:
    """Digest of everything that determines a shard's output.

    Two runs share a fingerprint iff their shards would compute
    identical results for identical block ranges; the worker count is
    deliberately excluded (it only changes how blocks are grouped).
    ``perturbations`` carries a scenario's compiled hit-volume windows
    (:mod:`repro.sim.scenario`) — a resume under a different timeline
    must never reuse a shard.
    """
    payload = repr(
        (
            CHECKPOINT_VERSION,
            config,
            num_days,
            window_days,
            ua_window,
            tuple(scan_days),
            login_panel_rate,
            tuple(directives),
            tuple(perturbations),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_directory(root: str | os.PathLike[str], fingerprint: str) -> str:
    """The directory holding one run's shard checkpoints."""
    return os.path.join(os.fspath(root), f"run_{fingerprint}")


def shard_checkpoint_path(
    root: str | os.PathLike[str], fingerprint: str, start: int, stop: int
) -> str:
    """Checkpoint file for the shard covering blocks ``[start, stop)``."""
    return os.path.join(
        run_directory(root, fingerprint), f"shard_{start:06d}_{stop:06d}.npz"
    )


def _shard_bounds(task: "ShardTask") -> tuple[int, int]:
    """Global ``[start, stop)`` block-index range of a shard task."""
    return task.blocks[0].index, task.blocks[-1].index + 1


def _flatten_counters(
    samples: dict[int, Counter[int]]
) -> dict[str, NDArray[Any]]:
    """UA counters as three parallel arrays, sorted for determinism."""
    bases: list[int] = []
    ids: list[int] = []
    counts: list[int] = []
    for base in sorted(samples):
        counter = samples[base]
        for ua_id in sorted(counter):
            bases.append(base)
            ids.append(ua_id)
            counts.append(counter[ua_id])
    return {
        "ua_bases": np.asarray(bases, dtype=np.int64),
        "ua_ids": np.asarray(ids, dtype=np.int64),
        "ua_counts": np.asarray(counts, dtype=np.int64),
    }


def _restore_counters(
    bases: NDArray[Any], ids: NDArray[Any], counts: NDArray[Any]
) -> dict[int, Counter[int]]:
    samples: dict[int, Counter[int]] = {}
    for base, ua_id, count in zip(
        bases.tolist(), ids.tolist(), counts.tolist()
    ):
        samples.setdefault(base, Counter())[ua_id] = count
    return samples


def serialize_shard_result(
    result: "ShardResult", fingerprint: str, start: int, stop: int
) -> dict[str, NDArray[Any]]:
    """Flatten a :class:`~repro.sim.engine.ShardResult` to plain arrays."""
    arrays: dict[str, NDArray[Any]] = {
        "version": np.array([CHECKPOINT_VERSION], dtype=np.int64),
        "fingerprint": np.frombuffer(  # uint8 = raw digest bytes, not an accumulator
            bytes.fromhex(fingerprint), dtype=np.uint8
        ),
        "block_range": np.array([start, stop], dtype=np.int64),
        "shard_index": np.array([result.shard_index], dtype=np.int64),
        "addr_days": np.array([result.addr_days], dtype=np.int64),
        "num_windows": np.array([len(result.window_ips)], dtype=np.int64),
        "has_login": np.array(
            [0 if result.login_trace is None else 1], dtype=np.int64
        ),
        "num_login_days": np.array(
            [0 if result.login_trace is None else len(result.login_trace)],
            dtype=np.int64,
        ),
    }
    for index, (ips, hits) in enumerate(zip(result.window_ips, result.window_hits)):
        arrays[f"wips_{index}"] = ips
        arrays[f"whits_{index}"] = hits
    arrays.update(_flatten_counters(result.ua_samples))
    if result.login_trace is not None:
        for day, (ips, users) in enumerate(result.login_trace):
            arrays[f"login_ips_{day}"] = ips
            arrays[f"login_users_{day}"] = users
    arrays["scan_days"] = np.asarray(sorted(result.scan_states), dtype=np.int64)
    for day in result.scan_states:
        states = result.scan_states[day]
        blocks = sorted(states)
        offsets = [states[b][1].astype(np.int64) for b in blocks]
        arrays[f"scan{day}_blocks"] = np.asarray(blocks, dtype=np.int64)
        arrays[f"scan{day}_kinds"] = np.asarray(
            [states[b][0].value for b in blocks], dtype="U16"
        )
        arrays[f"scan{day}_offlens"] = np.asarray(
            [off.size for off in offsets], dtype=np.int64
        )
        arrays[f"scan{day}_offsets"] = (
            np.concatenate(offsets) if offsets else np.empty(0, dtype=np.int64)
        )
    final_blocks = sorted(result.final_kinds)
    arrays["final_blocks"] = np.asarray(final_blocks, dtype=np.int64)
    arrays["final_kinds"] = np.asarray(
        [result.final_kinds[b].value for b in final_blocks], dtype="U16"
    )
    return arrays


def save_shard_checkpoint(
    root: str | os.PathLike[str],
    fingerprint: str,
    task: "ShardTask",
    result: "ShardResult",
) -> str:
    """Atomically persist one finished shard; returns the file path.

    Stored uncompressed: checkpoints are transient crash-recovery
    state on a local disk, where load/store speed matters more than
    size (the same trade-off as ``save_dataset(compress=False)``).
    """
    start, stop = _shard_bounds(task)
    path = shard_checkpoint_path(root, fingerprint, start, stop)
    with obs_api.span("checkpoint/save"):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        arrays = serialize_shard_result(result, fingerprint, start, stop)
        atomic_write_npz(path, arrays.items(), compress=False)
    obs_api.event(
        "checkpoint_save", shard=result.shard_index, blocks=[start, stop]
    )
    return path


def load_shard_checkpoint(
    root: str | os.PathLike[str], fingerprint: str, task: "ShardTask"
) -> "ShardResult | None":
    """Load the checkpoint matching *task*, or ``None``.

    Returns ``None`` when the file is missing, corrupt, truncated, of
    another format version, or written for a different fingerprint or
    block range — every such case simply re-simulates the shard, so a
    damaged checkpoint can never poison a resumed run.  A present but
    unusable file is reported as a ``checkpoint_skip`` event (with the
    rejection reason) on the ambient observation context; a clean miss
    (no file) records nothing, since that is the normal state of a
    fresh run.
    """
    # Imported here: engine imports this module at import time and the
    # ShardResult container lives on the engine side.
    from repro.sim.engine import ShardResult

    start, stop = _shard_bounds(task)
    path = shard_checkpoint_path(root, fingerprint, start, stop)

    def skip(reason: str) -> None:
        obs_api.event(
            "checkpoint_skip",
            shard=task.shard_index,
            blocks=[start, stop],
            reason=reason,
        )
        return None

    try:
        with np.load(path) as bundle, obs_api.span("checkpoint/load"):
            if int(bundle["version"][0]) != CHECKPOINT_VERSION:
                return skip("version")
            stored_fp = bytes(bundle["fingerprint"]).hex()
            if stored_fp != fingerprint:
                return skip("fingerprint")
            if bundle["block_range"].tolist() != [start, stop]:
                return skip("block_range")
            num_windows = int(bundle["num_windows"][0])
            window_ips = [bundle[f"wips_{i}"] for i in range(num_windows)]
            window_hits = [bundle[f"whits_{i}"] for i in range(num_windows)]
            ua_samples = _restore_counters(
                bundle["ua_bases"], bundle["ua_ids"], bundle["ua_counts"]
            )
            login_trace = None
            if int(bundle["has_login"][0]):
                login_trace = [
                    (bundle[f"login_ips_{d}"], bundle[f"login_users_{d}"])
                    for d in range(int(bundle["num_login_days"][0]))
                ]
            scan_states: dict[
                int, dict[int, tuple[PolicyKind, NDArray[Any]]]
            ] = {}
            for day in bundle["scan_days"].tolist():
                blocks = bundle[f"scan{day}_blocks"].tolist()
                kinds = bundle[f"scan{day}_kinds"].tolist()
                lengths = bundle[f"scan{day}_offlens"].tolist()
                flat = bundle[f"scan{day}_offsets"]
                states: dict[int, tuple[PolicyKind, NDArray[Any]]] = {}
                cursor = 0
                for block, kind, length in zip(blocks, kinds, lengths):
                    states[block] = (
                        PolicyKind(kind),
                        flat[cursor : cursor + length].astype(np.int64),
                    )
                    cursor += length
                scan_states[day] = states
            final_kinds = {
                block: PolicyKind(kind)
                for block, kind in zip(
                    bundle["final_blocks"].tolist(),
                    bundle["final_kinds"].tolist(),
                )
            }
            obs_api.event(
                "checkpoint_load", shard=task.shard_index, blocks=[start, stop]
            )
            return ShardResult(
                shard_index=task.shard_index,
                window_ips=window_ips,
                window_hits=window_hits,
                ua_samples=ua_samples,
                login_trace=login_trace,
                scan_states=scan_states,
                final_kinds=final_kinds,
                addr_days=int(bundle["addr_days"][0]),
            )
    except FileNotFoundError:
        return None
    except (KeyError, *_CORRUPT_NPZ_ERRORS):
        return skip("corrupt")


# -- inspection / garbage collection (consumed by tools/checkpoints.py) --


def inspect_checkpoint(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Lightweight header read of one shard checkpoint file.

    Returns a dict with ``valid`` plus (when readable) the version,
    fingerprint, block range, window count and address-days — enough
    for an operator to see what a checkpoint directory holds without
    deserializing the payload.
    """
    info: dict[str, Any] = {
        "path": os.fspath(path),
        "bytes": 0,
        "valid": False,
    }
    try:
        info["bytes"] = os.path.getsize(path)
        with np.load(path) as bundle:
            info["version"] = int(bundle["version"][0])
            info["fingerprint"] = bytes(bundle["fingerprint"]).hex()
            start, stop = bundle["block_range"].tolist()
            info["blocks"] = (int(start), int(stop))
            info["num_windows"] = int(bundle["num_windows"][0])
            info["addr_days"] = int(bundle["addr_days"][0])
            info["valid"] = info["version"] == CHECKPOINT_VERSION
    except (FileNotFoundError, KeyError, *_CORRUPT_NPZ_ERRORS):
        pass
    return info


def list_runs(root: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Summaries of every ``run_<fingerprint>`` directory under *root*."""
    root_text = os.fspath(root)
    runs: list[dict[str, Any]] = []
    try:
        entries = sorted(os.listdir(root_text))
    except FileNotFoundError:
        return runs
    for name in entries:
        directory = os.path.join(root_text, name)
        if not (_RUN_DIR_RE.match(name) and os.path.isdir(directory)):
            continue
        shards: list[dict[str, Any]] = []
        for file_name in sorted(os.listdir(directory)):
            if _SHARD_FILE_RE.match(file_name):
                shards.append(inspect_checkpoint(os.path.join(directory, file_name)))
        runs.append(
            {
                "fingerprint": name[len("run_") :],
                "directory": directory,
                "shards": shards,
                "total_bytes": sum(shard["bytes"] for shard in shards),
                "invalid": sum(1 for shard in shards if not shard["valid"]),
            }
        )
    return runs


def gc_run(directory: str | os.PathLike[str], dry_run: bool = False) -> int:
    """Delete one run directory's checkpoints; returns files removed.

    Only recognised shard checkpoint files are deleted (and the
    directory, once empty) — a foreign file in the directory is left
    in place and prevents the rmdir, so ``gc`` can never eat data the
    engine did not write.
    """
    directory_text = os.fspath(directory)
    removed = 0
    for file_name in sorted(os.listdir(directory_text)):
        if not _SHARD_FILE_RE.match(file_name):
            continue
        removed += 1
        if not dry_run:
            os.unlink(os.path.join(directory_text, file_name))
    if not dry_run:
        try:
            os.rmdir(directory_text)
        except OSError:
            pass
    return removed
