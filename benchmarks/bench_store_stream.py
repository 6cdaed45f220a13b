#!/usr/bin/env python3
"""Record streamed-vs-in-memory analysis throughput as ``BENCH_store_stream.json``.

For each world size, a synthetic store (``tools.mem_ceiling.synthesize_store``)
is analyzed twice — once with the constant-memory streamed implementations
(filling degree / STU, transition churn) and once with the in-memory
reference path (the classic functions over a fresh ``store.to_dataset()``
per repeat, built outside the timer) — and the results are verified
equal before any timing is recorded.  Throughput
is reported in block-days/s so records stay comparable across sizes.

Usage::

    # the full three-world record
    python benchmarks/bench_store_stream.py --out BENCH_store_stream.json

    # a CI-sized smoke run, self-gated against the committed record
    python benchmarks/bench_store_stream.py --smoke \
        --out BENCH_store_stream.json --gate-against BENCH_store_stream.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, ".."))

import numpy as np  # noqa: E402

from repro.core import churn, metrics  # noqa: E402
from repro.obs import peak_rss_bytes  # noqa: E402
from tools.mem_ceiling import synthesize_store  # noqa: E402

#: (num_blocks, num_days) per world — small / medium / large.
FULL_WORLDS = [(256, 30), (1024, 60), (2048, 90)]

#: CI-sized worlds: quick, but still multi-shard.
SMOKE_WORLDS = [(64, 10), (128, 14)]

SHARD_BLOCKS = 64


def _verify_equal(store, dataset) -> None:
    """The timed paths must agree before a record is written."""
    streamed = metrics.compute_block_metrics_streamed(store)
    reference = metrics.compute_block_metrics(dataset)
    if not (
        np.array_equal(streamed.bases, reference.bases)
        and np.array_equal(streamed.filling_degree, reference.filling_degree)
        and np.array_equal(streamed.stu, reference.stu)
    ):
        raise RuntimeError("streamed block metrics deviate from the reference")
    if churn.transition_churn_streamed(store) != churn.transition_churn(dataset):
        raise RuntimeError("streamed churn deviates from the reference")


def _best_of(repeats: int, prepare, work) -> float:
    """Fastest of *repeats* timed ``work(prepare())`` calls.

    *prepare* runs outside the timer, once per repeat, so that no
    repeat reads a cache an earlier one warmed.
    """
    best = None
    for _ in range(repeats):
        subject = prepare()
        started = time.monotonic()
        work(subject)
        elapsed = time.monotonic() - started
        del subject
        if best is None or elapsed < best:
            best = elapsed
    return float(best)


def measure_world(
    num_blocks: int, num_days: int, seed: int, repeats: int
) -> dict:
    """Time both paths on one synthetic world; returns the world record.

    The in-memory side gets a freshly built dataset per repeat: its
    analyses memoize a ``DatasetIndex`` on the dataset object, and a
    warm index would time only the fold, not the work a command does.
    """
    block_days = num_blocks * num_days
    with tempfile.TemporaryDirectory() as scratch:
        store = synthesize_store(
            os.path.join(scratch, "store"), num_blocks, num_days,
            shard_blocks=SHARD_BLOCKS, seed=seed,
        )
        _verify_equal(store, store.to_dataset(mmap=False))
        streamed_s = _best_of(repeats, lambda: store, lambda opened: (
            metrics.compute_block_metrics_streamed(opened),
            churn.transition_churn_streamed(opened),
        ))
        inmemory_s = _best_of(
            repeats, lambda: store.to_dataset(mmap=False), lambda dataset: (
                metrics.compute_block_metrics(dataset),
                churn.transition_churn(dataset),
            ),
        )
        record = {
            "num_blocks": num_blocks,
            "num_days": num_days,
            "block_days": block_days,
            "store_bytes": store.nbytes(),
            "streamed_s": round(streamed_s, 4),
            "inmemory_s": round(inmemory_s, 4),
            "streamed_block_days_per_s": round(block_days / streamed_s, 1),
            "inmemory_block_days_per_s": round(block_days / inmemory_s, 1),
            "peak_rss_mb": round(peak_rss_bytes() / (1 << 20), 1),
        }
        store.close()
    return record


def gate_against(baseline: dict, record: dict, tolerance: float) -> tuple[bool, str]:
    """Fail when a matching world's streamed throughput regressed.

    Worlds are matched on ``(num_blocks, num_days)``; a baseline world
    absent from this run (or vice versa) is skipped — as with the
    collection-engine gate, a baseline that measured something else
    says nothing about this run.
    """
    old_worlds = {
        (w["num_blocks"], w["num_days"]): w for w in baseline.get("worlds", [])
    }
    verdicts = []
    passed = True
    for world in record.get("worlds", []):
        key = (world["num_blocks"], world["num_days"])
        old = old_worlds.get(key)
        if old is None:
            continue
        old_rate = float(old["streamed_block_days_per_s"])
        new_rate = float(world["streamed_block_days_per_s"])
        floor = old_rate * (1.0 - tolerance)
        verdicts.append(
            f"{key[0]}x{key[1]}: streamed {new_rate:,.0f} block-days/s "
            f"vs baseline {old_rate:,.0f} (floor {floor:,.0f})"
        )
        if new_rate < floor:
            passed = False
    if not verdicts:
        return True, "gate skipped: no matching world sizes in the baseline"
    status = "passed" if passed else "FAILED"
    return passed, f"gate {status}: " + "; ".join(verdicts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_store_stream.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized worlds instead of the full three")
    parser.add_argument("--all-worlds", action="store_true",
                        help="measure the smoke worlds AND the full three "
                        "(the committed baseline covers both, so the CI "
                        "smoke gate has matching world sizes)")
    parser.add_argument("--repeats", type=int, default=1, metavar="N",
                        help="time each path N times, record the fastest")
    parser.add_argument("--gate-against", default=None, metavar="PATH",
                        help="fail (exit 1) when a matching world's streamed "
                        "throughput regresses beyond --gate-tolerance")
    parser.add_argument("--gate-tolerance", type=float, default=0.5,
                        metavar="FRAC",
                        help="allowed fractional regression (default 0.5 — "
                        "shared CI runners are noisy at these run lengths)")
    args = parser.parse_args(argv)

    baseline = None
    if args.gate_against is not None:
        with open(args.gate_against, encoding="ascii") as handle:
            baseline = json.load(handle)

    if args.all_worlds:
        worlds = SMOKE_WORLDS + FULL_WORLDS
    elif args.smoke:
        worlds = SMOKE_WORLDS
    else:
        worlds = FULL_WORLDS
    records = []
    for num_blocks, num_days in worlds:
        record = measure_world(num_blocks, num_days, args.seed, args.repeats)
        print(
            f"bench_store_stream: {num_blocks}x{num_days}: streamed "
            f"{record['streamed_block_days_per_s']:,.0f} block-days/s, "
            f"in-memory {record['inmemory_block_days_per_s']:,.0f}"
        )
        records.append(record)

    payload = {
        "benchmark": "store_stream",
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "seed": args.seed,
        "repeats": args.repeats,
        "shard_blocks": SHARD_BLOCKS,
        "worlds": records,
    }
    from repro.core.io import atomic_write_text

    atomic_write_text(
        args.out, json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="ascii",
    )
    print(f"bench_store_stream: wrote {args.out}")
    if baseline is not None:
        passed, message = gate_against(baseline, payload, args.gate_tolerance)
        print(f"bench_store_stream: {message}")
        if not passed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
