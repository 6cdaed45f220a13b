#!/usr/bin/env python3
"""Record the collection engine's perf trajectory as ``BENCH_collect.json``.

Runs the sharded CDN collection at several worker counts on one world
and writes a JSON record — world size, workers, wall-clock, and
throughput (block-days/s, addr-days/s, and for the serial run
addr-days per CPU second) — so perf regressions and scaling changes
leave a comparable trace over time.

Usage::

    # the paper-scale benchmark world (bench_config, 112 days)
    python tools/bench_record.py --out BENCH_collect.json

    # a CI-sized smoke run (small world, two worker counts)
    python tools/bench_record.py --smoke --out BENCH_collect.json

The determinism contract is re-checked on every run: each worker
count's dataset must be bit-identical to the serial one, and a record
is only written when the check passes.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.obs import ObsContext, peak_rss_bytes  # noqa: E402
from repro.sim import CDNObservatory, InternetPopulation, SimulationConfig, bench_config  # noqa: E402

#: The serial run — the figure :func:`gate_against` reads — is the best
#: of at least this many back-to-back collections in this process: one
#: short run is at the mercy of whatever else the machine does in its
#: few dozen milliseconds, the best of several much less so.
SERIAL_SAMPLES = 5

#: The serial run's throughput per CPU second of its ``collect/simulate``
#: span, which :func:`gate_against` compares when both records carry
#: it.  CPU time leaves out the time the run waits while other processes
#: of the machine run, but not a slower CPU: on a VM whose host is busy
#: it swings about as far as the wall-clock rate.
CPU_RATE_KEY = "addr_days_per_cpu_s"


def _datasets_identical(reference, candidate) -> bool:
    if len(reference) != len(candidate):
        return False
    for snap_a, snap_b in zip(reference, candidate):
        if not (
            np.array_equal(snap_a.ips, snap_b.ips)
            and np.array_equal(snap_a.hits, snap_b.hits)
        ):
            return False
    return True


def measure(
    config: SimulationConfig,
    num_days: int,
    workers_list: list[int],
    repeats: int = 1,
) -> dict:
    """Collect *num_days* days at each worker count; return the record.

    Each worker count runs ``repeats`` times — the serial one at least
    :data:`SERIAL_SAMPLES` times — and the fastest attempt is recorded
    (machine noise otherwise dominates small worlds; the record's
    ``serial_samples`` says how many serial attempts ran).  The serial
    run is the one with the fewest CPU seconds in its
    ``collect/simulate`` span, recorded as ``sim_cpu_s`` and
    :data:`CPU_RATE_KEY`; parallel runs simulate in worker processes
    that span does not see, so they keep the fastest wall clock.
    Worker counts above the machine's CPU count are measured
    anyway but flagged — an "oversubscribed" run times context
    switching, not scaling, and the record must say so rather than
    report a misleading sub-1.0 "speedup".

    Raises ``RuntimeError`` if any parallel dataset deviates from the
    serial one — a perf record of a broken engine is worse than none.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive: {repeats}")
    cpu_count = os.cpu_count() or 1
    world = InternetPopulation.build(config)
    observatory = CDNObservatory(world)
    runs = []
    warnings: list[str] = []
    reference = None
    serial_wall = None
    serial_samples = max(repeats, SERIAL_SAMPLES)
    for workers in workers_list:
        best = None
        for _ in range(serial_samples if workers == 1 else repeats):
            ctx = ObsContext()
            result = observatory.collect_daily(num_days, workers=workers, obs=ctx)
            if reference is None:
                reference = result.dataset
            elif not _datasets_identical(reference, result.dataset):
                raise RuntimeError(
                    f"determinism violation: workers={workers} dataset deviates"
                )
            run = result.perf.as_dict()
            if workers == 1:
                cpu = ctx.spans.stats("collect/simulate").cpu_seconds
                run["sim_cpu_s"] = round(cpu, 6)
                run[CPU_RATE_KEY] = round(run["addr_days"] / max(cpu, 1e-9), 1)
                faster = best is None or run["sim_cpu_s"] < best["sim_cpu_s"]
            else:
                faster = best is None or run["total_s"] < best["total_s"]
            if faster:
                best = run
        # Memory footprint of the run: ru_maxrss is a process-lifetime
        # high-water mark, so later worker counts can only inherit or
        # raise it — read it per run anyway so the first (serial) entry
        # is an honest ceiling for the out-of-core comparison.
        best["peak_rss_mb"] = round(peak_rss_bytes() / (1 << 20), 1)
        best["dataset_bytes"] = sum(
            s.ips.nbytes + s.hits.nbytes for s in reference
        )
        if workers > cpu_count:
            best["oversubscribed"] = True
            message = (
                f"workers={workers} exceeds cpu_count={cpu_count}: this run "
                "measures oversubscription, not parallel scaling"
            )
            warnings.append(message)
            print(f"bench_record: warning: {message}", file=sys.stderr)
        if workers == 1:
            serial_wall = best["total_s"]
        runs.append(best)
    speedups = {}
    if serial_wall:
        for run in runs:
            if run["workers"] != 1:
                speedups[str(run["workers"])] = round(serial_wall / run["total_s"], 3)
    return {
        "benchmark": "collect",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": {
            "cpu_count": cpu_count,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "world": {
            "seed": config.seed,
            "num_ases": config.num_ases,
            "mean_blocks_per_as": config.mean_blocks_per_as,
            "num_blocks": len(world.blocks),
            "num_days": num_days,
        },
        "repeats": repeats,
        "serial_samples": serial_samples,
        "warnings": warnings,
        "runs": runs,
        "speedup_vs_serial": speedups,
    }


def write_record(path: str, record: dict) -> None:
    """Atomically write the bench record (rule A201: no bare open-for-write)."""
    from repro.core.io import atomic_write_text

    atomic_write_text(
        path, json.dumps(record, indent=2, sort_keys=False) + "\n",
        encoding="ascii",
    )


def _serial_rate(record: dict, key: str) -> float | None:
    for run in record.get("runs", []):
        if run.get("workers") == 1:
            rate = run.get(key)
            return float(rate) if rate is not None else None
    return None


def gate_against(baseline: dict, record: dict, tolerance: float) -> tuple[bool, str]:
    """Compare serial throughput against a baseline record.

    Returns ``(passed, message)``.  The rate compared is
    :data:`CPU_RATE_KEY` when both serial runs carry it, else the
    wall-clock ``addr_days_per_s``; the message names which.  The gate
    only fires when both records benchmarked the same world shape — a
    baseline from a different world says nothing about this run, so a
    mismatch skips the gate (with a message) rather than failing it.
    """
    shape_keys = ("seed", "num_ases", "mean_blocks_per_as", "num_blocks", "num_days")
    old_world = baseline.get("world", {})
    new_world = record.get("world", {})
    mismatched = [
        key for key in shape_keys if old_world.get(key) != new_world.get(key)
    ]
    if mismatched:
        return True, (
            "gate skipped: baseline world differs on "
            + ", ".join(
                f"{key} ({old_world.get(key)!r} -> {new_world.get(key)!r})"
                for key in mismatched
            )
        )
    key = CPU_RATE_KEY
    if _serial_rate(baseline, key) is None or _serial_rate(record, key) is None:
        key = "addr_days_per_s"
    old_rate = _serial_rate(baseline, key)
    new_rate = _serial_rate(record, key)
    if old_rate is None or new_rate is None:
        return True, "gate skipped: no serial (workers=1) run to compare"
    floor = old_rate * (1.0 - tolerance)
    verdict = (
        f"serial {key} {new_rate:,.1f} vs baseline {old_rate:,.1f} "
        f"(floor {floor:,.1f} at tolerance {tolerance:.0%})"
    )
    if new_rate < floor:
        return False, f"gate FAILED: {verdict}"
    return True, f"gate passed: {verdict}"


def _parse_workers(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values or any(value < 1 for value in values):
        raise argparse.ArgumentTypeError(f"bad workers list: {text!r}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_collect.json")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--days", type=int, default=112)
    parser.add_argument("--ases", type=int, default=None, help="override AS count")
    parser.add_argument(
        "--blocks-per-as", type=float, default=None, help="override mean /24s per AS"
    )
    parser.add_argument(
        "--workers", type=_parse_workers, default=[1, 2, 4], metavar="N,N,...",
        help="comma-separated worker counts (serial first for the baseline)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: tiny world, 14 days, workers 1 and 2",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="run each worker count N times (the serial one at least "
        f"{SERIAL_SAMPLES}), record the fastest (noise guard)",
    )
    parser.add_argument(
        "--gate-against", default=None, metavar="PATH",
        help="fail (exit 1) if serial throughput regresses more than "
        "--gate-tolerance below this baseline record's",
    )
    parser.add_argument(
        "--gate-tolerance", type=float, default=0.30, metavar="FRAC",
        help="allowed fractional regression before the gate fails (default 0.30)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        config = SimulationConfig(
            seed=args.seed, num_ases=15, mean_blocks_per_as=3.0
        )
        num_days = min(args.days, 14)
        workers_list = [1, 2]
    else:
        config = bench_config(seed=args.seed)
        num_days = args.days
        workers_list = args.workers
    if args.ases is not None or args.blocks_per_as is not None:
        config = SimulationConfig(
            seed=args.seed,
            num_ases=args.ases if args.ases is not None else config.num_ases,
            mean_blocks_per_as=(
                args.blocks_per_as
                if args.blocks_per_as is not None
                else config.mean_blocks_per_as
            ),
        )

    # Load the baseline before write_record: --gate-against may name the
    # same path as --out (self-gating against the committed record).
    baseline = None
    if args.gate_against is not None:
        with open(args.gate_against, encoding="ascii") as handle:
            baseline = json.load(handle)

    record = measure(config, num_days, workers_list, repeats=args.repeats)
    write_record(args.out, record)
    best = max(record["speedup_vs_serial"].values(), default=None)
    print(
        f"wrote {args.out}: {record['world']['num_blocks']} blocks x "
        f"{num_days} days, workers {workers_list}"
        + (f", best speedup {best}x" if best is not None else "")
    )
    if baseline is not None:
        passed, message = gate_against(baseline, record, args.gate_tolerance)
        print(f"bench_record: {message}")
        if not passed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
