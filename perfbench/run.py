"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-npz --seed 3 --seconds 40 --trace 0

Runs from the root of a repository checkout and builds nothing: the
program is the pure-Python package under ``src/``.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with no shims installed.
``--trace 1`` makes three passes of one round each: a warm-up, a pass
with a shim around every layer function (``layertrace.py``) and an
untraced pass.  It reports the
per-layer metrics, the time no shim covers (``trace.unspanned_s``) and
the tracing overhead (``trace.overhead_s``: traced minus untraced
operation time, as noisy as the machine).  The spans
go to ``perfbench/out/trace-<workload>-seed<seed>.json``.

Workloads, metrics and the world pools are described in
``workloads.py`` and ``worlds.py``; ``BENCHMARK.json`` says why each
workload is there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from layertrace import Tracer, per_layer_metric_units, span_name
from workloads import WORKLOADS, Pass, Workload, build_service, end_to_end, run_pass
from worlds import pick_world

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: Set-up is repeated this many times per run and its median reported.
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "tick_p50_ms": "ms",
    "tick_p80_ms": "ms",
    "catchup_s": "s",
    "peak_rss_mib": "MiB",
}

APPEND = span_name("core.store", "StoreAppender.append")

TRACE_UNITS = {
    **per_layer_metric_units(),
    f"{APPEND}.wchar_first_tick_bytes": "syscall-bytes",
    f"{APPEND}.wchar_last_tick_bytes": "syscall-bytes",
    "trace.unspanned_s": "s",
    "trace.overhead_s": "s",
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median_seconds(action: Any, samples: int = SETUP_SAMPLES) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _measure_setup(workload: Workload, work_dir: str, world: dict[str, Any]) -> float:
    """Median import time of a fresh ``repro`` process, plus temp dirs,
    plus (``serve-live``) building the first service."""
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=work_dir)
    imports = _median_seconds(
        lambda: subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, cwd=ROOT, check=True
        )
    )
    temp_dirs = _median_seconds(
        lambda: tempfile.mkdtemp(prefix="setup-", dir=work_dir)
    )
    if workload.name != "serve-live":
        return imports + temp_dirs
    from repro.obs.context import ObsContext

    counter = iter(range(SETUP_SAMPLES))

    def build() -> None:
        root = os.path.join(work_dir, f"setup-live-{next(counter)}")
        build_service(world["seed"], root, ObsContext()).close()

    return imports + temp_dirs + _median_seconds(build)


def _new_pass(workload: Workload, work_dir: str, name: str, seed: int,
              tracer: Tracer | None = None) -> tuple[Pass, Any]:
    """A pass in its own directory (and, on ``serve-live``, its first service)."""
    from repro.obs.context import ObsContext

    world = pick_world(seed)
    run = Pass(os.path.join(work_dir, name), world, tracer)
    os.makedirs(run.work_dir)
    service = None
    if workload.name == "serve-live":
        ctx = ObsContext()
        service = (build_service(world["seed"], os.path.join(run.work_dir, "live-1"), ctx), ctx)
    return run, service


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(workload: Workload, work_dir: str, seed: int, seconds: float
                ) -> tuple[Pass, dict[str, float]]:
    world = pick_world(seed)
    setup_s = _measure_setup(workload, work_dir, world)
    run, service = _new_pass(workload, work_dir, "pass", seed)
    run_pass(workload, run, service, time.perf_counter() + seconds)
    metrics = end_to_end(workload, run)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mib"] = _peak_rss_mib()
    return run, metrics


def _traced(workload: Workload, work_dir: str, seed: int
            ) -> tuple[Pass, dict[str, float], bool]:
    # The first pass in a process pays one-off costs (allocator growth,
    # lazy imports), so it only warms up; the overhead compares the traced
    # pass with the untraced pass after it.
    def one_pass(name: str, tracer: Tracer | None = None) -> Pass:
        run, service = _new_pass(workload, work_dir, name, seed, tracer)
        run_pass(workload, run, service, None)
        return run

    warmup = one_pass("warmup")
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass("traced", tracer)
    finally:
        tracer.uninstall()
    plain = one_pass("untraced")
    ok = True
    missing = tracer.check_coverage(workload.expected_spans)
    if missing:
        ok = False
        print(f"error: no calls recorded for {', '.join(missing)}", file=sys.stderr)
    if not warmup.digests == traced.digests == plain.digests:
        ok = False
        print("error: traced outputs differ from untraced outputs", file=sys.stderr)
    per_tick = tracer.series(APPEND, "wchar")
    metrics = tracer.stats()
    metrics[f"{APPEND}.wchar_first_tick_bytes"] = per_tick[0] if per_tick else 0
    metrics[f"{APPEND}.wchar_last_tick_bytes"] = per_tick[-1] if per_tick else 0
    metrics["trace.unspanned_s"] = tracer.unspanned_s()
    metrics["trace.overhead_s"] = sum(map(sum, traced.seconds.values())) - sum(
        map(sum, plain.seconds.values())
    )
    from repro.core.io import atomic_write_text

    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    atomic_write_text(trace_path, json.dumps({
        "workload": workload.name,
        "seed": seed,
        "world_seed": traced.world["seed"],
        "metrics": metrics,
        "append_wchar_bytes_per_tick": per_tick,
        "spans": tracer.as_json(),
    }, indent=1) + "\n")
    print(f"trace: {trace_path.relative_to(ROOT)}", file=sys.stderr)
    # Every pass's operations count.
    for run in (warmup, traced):
        for kind, seconds in run.seconds.items():
            plain.seconds.setdefault(kind, []).extend(seconds)
        plain.failed += run.failed
        plain.errors += run.errors
    return plain, metrics, ok


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401  -- every layer module, before any shim
    import repro.serve.service  # noqa: F401

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    # Nothing may write outside the checkout, temporary files included.
    tempfile.tempdir = work_dir
    try:
        if args.trace:
            run, metrics, ok = _traced(workload, work_dir, args.seed)
            units = TRACE_UNITS
        else:
            run, metrics = _end_to_end(workload, work_dir, args.seed, args.seconds)
            ok, units = True, END_TO_END_UNITS
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"{workload.name}: world seed {run.world['seed']} "
          f"({run.world['blocks']} /24 blocks, {run.world['addr_days']} address-days)")
    print(f"{workload.name}.ops_total {run.attempted}")
    print(f"{workload.name}.ops_failed {run.failed}")
    for name, unit in units.items():
        print(f"{workload.name}.{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": ok and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
