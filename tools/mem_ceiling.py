#!/usr/bin/env python3
"""Constant-memory acceptance gate for the out-of-core dataset store.

Synthesizes a store too large to analyze comfortably in RAM, then runs
the streamed analyses (filling degree / STU, transition churn, the
window-size churn sweep) in a child process whose heap is capped with
``RLIMIT_DATA`` at the documented memory ceiling.  The same world is
also appended day by day through ``StoreAppender`` into a live store
(the ``repro serve`` layout: one interval file per day), outside any
cap, and the same streamed analyses run over it in a second capped
child.  Both streamed children must complete under the cap; the
in-memory reference path is run in a third (uncapped) child and its
peak RSS recorded, demonstrating that the same analyses would blow the
ceiling without the store.

Usage::

    # the CI gate world: 2048 /24 blocks x 90 days, 256 MiB ceiling
    python tools/mem_ceiling.py --out BENCH_mem_ceiling.json

    # a quick local run
    python tools/mem_ceiling.py --blocks 256 --days 30 --ceiling-mb 192

Exit code 0 only when both streamed children finish under the ceiling
(and, unless ``--skip-inmemory``, the in-memory child's peak RSS
exceeds it — a ceiling both paths fit under gates nothing).  The live
store is kept beside the batch one, at ``<store-root>-live``.

The synthesizer (:func:`synthesize_store`) is deterministic per
``(seed, chunk)`` and writes shard-by-shard in bounded memory; the
store-streaming benchmark reuses it for its worlds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

#: First /24 base of the synthetic world (10.0.0.0).
BASE0 = 0x0A000000

#: Day-one date ordinal for synthetic stores (2016-03-14, the golden seed's).
START_ORDINAL = 735671


def synthesize_store(
    root: str,
    num_blocks: int,
    num_days: int,
    shard_blocks: int = 64,
    seed: int = 0,
    fill: float = 0.5,
):
    """Write a deterministic synthetic store; returns the open store.

    Contiguous /24 blocks from ``10.0.0.0``; each address is active on
    each day independently with probability *fill*, drawn from a
    ``SeedSequence([seed, chunk_index])`` stream so any shard can be
    regenerated without the others.  Peak memory is one shard's
    activity mask — the synthesizer itself honors the store's
    constant-memory contract.
    """
    import datetime

    from repro.core.store import StoreWriter

    if not 0.0 < fill <= 1.0:
        raise ValueError(f"fill must be in (0, 1]: {fill}")
    writer = StoreWriter(
        root,
        start=datetime.date.fromordinal(START_ORDINAL),
        window_days=1,
        num_snapshots=num_days,
        shard_blocks=shard_blocks,
    )
    for chunk_index, chunk_start in enumerate(range(0, num_blocks, shard_blocks)):
        chunk_stop = min(chunk_start + shard_blocks, num_blocks)
        bases = BASE0 + 256 * np.arange(chunk_start, chunk_stop, dtype=np.int64)
        addresses = (bases[:, None] + np.arange(256, dtype=np.int64)).ravel()
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        columns = []
        for _day in range(num_days):
            mask = rng.random(addresses.size) < fill
            ips = addresses[mask].astype(np.uint32)
            hits = rng.integers(1, 50, size=ips.size).astype(np.uint64)
            columns.append((ips, hits))
        writer.add_shard(bases, columns)
    return writer.finalize()


def append_live_store(store_root: str, live_root: str, shard_blocks: int = 64):
    """Append every snapshot of the store at *store_root* to a live store.

    One ``StoreAppender.append`` per snapshot, as ``repro serve`` commits
    one interval per tick; resumes a partly built *live_root*.  Returns
    the open live store.  Peak memory is one snapshot column.
    """
    from repro.core.io import open_store
    from repro.core.store import StoreAppender

    with open_store(store_root) as store:
        with StoreAppender(
            live_root, start=store.start, window_days=store.window_days,
            shard_blocks=shard_blocks,
        ) as appender:
            for index in range(appender.committed, store.num_snapshots):
                appender.append(*store.column_slice(index, 0, 2**32 - 1))
    return open_store(live_root)


def _child_streamed(root: str) -> None:
    from repro.core.churn import (
        churn_by_window_size_streamed,
        transition_churn_streamed,
    )
    from repro.core.io import open_store
    from repro.core.metrics import compute_block_metrics_streamed

    with open_store(root) as store:
        block_metrics = compute_block_metrics_streamed(store)
        transitions = transition_churn_streamed(store)
        sweep = churn_by_window_size_streamed(store)
    print(f"streamed ok: {block_metrics.num_blocks} blocks, "
          f"{len(transitions)} transitions, {len(sweep)} window sizes")


def _child_inmemory(root: str) -> None:
    from repro.core.churn import churn_by_window_size, transition_churn
    from repro.core.io import open_store
    from repro.core.metrics import compute_block_metrics

    with open_store(root) as store:
        dataset = store.to_dataset(mmap=False)
        block_metrics = compute_block_metrics(dataset)
        transitions = transition_churn(dataset)
        sweep = churn_by_window_size(dataset)
    print(f"inmemory ok: {block_metrics.num_blocks} blocks, "
          f"{len(transitions)} transitions, {len(sweep)} window sizes")


def _run_child(root: str, mode: str, limit_bytes: int | None) -> dict:
    """Run one analysis child; returns its outcome and peak RSS.

    ``RLIMIT_DATA`` (not ``RLIMIT_AS``) is the right cap: since Linux
    4.7 it covers private anonymous mappings (numpy's large buffers)
    but not the read-only file maps a zero-copy path may hold, and
    ``RLIMIT_RSS`` is a no-op on Linux.  Peak RSS comes from
    ``os.wait4``'s ``ru_maxrss`` (kilobytes on Linux).
    """

    def set_limit() -> None:
        if limit_bytes is not None:
            import resource

            resource.setrlimit(resource.RLIMIT_DATA, (limit_bytes, limit_bytes))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         "--root", root],
        preexec_fn=set_limit,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    output = process.stdout.read() if process.stdout is not None else ""
    _pid, status, usage = os.wait4(process.pid, 0)
    process.wait()  # reap the Popen object's bookkeeping
    elapsed = time.monotonic() - started
    return {
        "mode": mode,
        "ok": os.waitstatus_to_exitcode(status) == 0,
        "exit_status": os.waitstatus_to_exitcode(status),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "elapsed_s": round(elapsed, 2),
        "limit_mb": None if limit_bytes is None else limit_bytes // (1 << 20),
        "output_tail": output.strip().splitlines()[-3:],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=2048)
    parser.add_argument("--days", type=int, default=90)
    parser.add_argument("--shard-blocks", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fill", type=float, default=0.5)
    parser.add_argument(
        "--ceiling-mb", type=int, default=256, metavar="MB",
        help="RLIMIT_DATA cap for the streamed child (documented bound)",
    )
    parser.add_argument("--store-root", default=None, metavar="DIR",
                        help="reuse/synthesize the store here (default: temp)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON record here")
    parser.add_argument("--skip-inmemory", action="store_true",
                        help="skip the uncapped in-memory comparison child")
    parser.add_argument("--child", choices=["streamed", "inmemory"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--root", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        if args.child == "streamed":
            _child_streamed(args.root)
        else:
            _child_inmemory(args.root)
        return 0

    import tempfile

    from repro.core.store import is_store

    with tempfile.TemporaryDirectory() as scratch:
        root = args.store_root or os.path.join(scratch, "store")
        if is_store(root):
            from repro.core.io import open_store

            store = open_store(root)
        else:
            print(
                f"mem_ceiling: synthesizing {args.blocks} blocks x "
                f"{args.days} days (fill {args.fill}) at {root}"
            )
            store = synthesize_store(
                root, args.blocks, args.days,
                shard_blocks=args.shard_blocks,
                seed=args.seed, fill=args.fill,
            )
        store_bytes = store.nbytes()
        store.close()
        print(f"mem_ceiling: store is {store_bytes / (1 << 20):.1f} MiB on disk")
        live_root = root.rstrip(os.sep) + "-live"
        print(f"mem_ceiling: appending its {args.days} days to a live store "
              f"at {live_root}")
        live = append_live_store(root, live_root, shard_blocks=args.shard_blocks)
        live_bytes = live.nbytes()
        live.close()

        ceiling_bytes = args.ceiling_mb << 20
        results = []
        passed = True
        for layout, layout_root in (("batch", root), ("live", live_root)):
            streamed = _run_child(layout_root, "streamed", ceiling_bytes)
            streamed["layout"] = layout
            print(
                f"mem_ceiling: streamed child ({layout} store) "
                f"{'finished' if streamed['ok'] else 'FAILED'} under "
                f"{args.ceiling_mb} MiB RLIMIT_DATA "
                f"(peak RSS {streamed['peak_rss_mb']} MiB, "
                f"{streamed['elapsed_s']}s)"
            )
            results.append(streamed)
            passed = passed and streamed["ok"]
        if not args.skip_inmemory:
            inmemory = _run_child(root, "inmemory", None)
            results.append(inmemory)
            exceeds = inmemory["peak_rss_mb"] > args.ceiling_mb
            print(
                f"mem_ceiling: in-memory child peak RSS "
                f"{inmemory['peak_rss_mb']} MiB "
                f"({'exceeds' if exceeds else 'DOES NOT exceed'} the "
                f"{args.ceiling_mb} MiB ceiling)"
            )
            if not inmemory["ok"]:
                print("mem_ceiling: note: in-memory child failed outright")
            # A ceiling both paths fit under gates nothing: require the
            # reference path to actually need more than the cap.
            passed = passed and (exceeds or not inmemory["ok"])

    record = {
        "benchmark": "mem_ceiling",
        "world": {
            "num_blocks": args.blocks,
            "num_days": args.days,
            "shard_blocks": args.shard_blocks,
            "seed": args.seed,
            "fill": args.fill,
        },
        "store_bytes": store_bytes,
        "live_store_bytes": live_bytes,
        "ceiling_mb": args.ceiling_mb,
        "children": results,
        "passed": passed,
    }
    if args.out:
        from repro.core.io import atomic_write_text

        atomic_write_text(
            args.out, json.dumps(record, indent=2, sort_keys=False) + "\n",
            encoding="ascii",
        )
        print(f"mem_ceiling: wrote {args.out}")
    print(f"mem_ceiling: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
