#!/usr/bin/env python3
"""Split the simulation kernel's CPU time into RNG draws and the rest.

Every policy of a /24 block draws from its own ``numpy`` ``Generator``.
This tool runs the collection kernel (``_ShardKernel``) over a world
with each of those generators wrapped in a timing proxy, which charges
the CPU time spent inside every draw to the block's policy kind.  The
rest of the kernel's time — bookkeeping, hit math, the per-day
``bincount`` reduce — is what a faster kernel could still cut while
keeping the draws; the draws themselves change only with a new RNG
scheme.

Usage::

    # the benchmark's world 564 (60 ASes x 8 blocks, 56 days), batch
    # regime: one kernel call over the whole horizon
    python tools/kernel_split.py

    # serve-tick regime: one call per day
    python tools/kernel_split.py --call-days 1

Blocks are grouped by their initial policy kind and each group runs
through its own kernel (streams are keyed per block, so a group's
output is its blocks' part of the whole-world run).  The proxied output
is checked against an unproxied whole-world run: the window columns'
SHA-256 and ``addr_days`` must match, or the tool exits 1.  The
unproxied run's CPU time is printed too; the gap between it and the
proxied total is the proxy's own overhead, which lands in both columns
(the timed call in the draws, the attribute lookup in the rest).  Each
group runs ``--repeats`` times (alternating with the
unproxied run) and the table shows medians.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from typing import Any

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.sim import population as population_module  # noqa: E402
from repro.sim.cdn import plan_collection  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.engine import ShardTask, _partial_column, _ShardKernel  # noqa: E402
from repro.sim.policies import _POLICY_CLASSES, PolicyKind  # noqa: E402
from repro.sim.population import InternetPopulation  # noqa: E402


class DrawClock:
    """CPU seconds and call count spent inside generator draws."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0


class TimedGenerator:
    """A ``Generator`` stand-in that times every method it forwards.

    Attribute reads that are not methods (``bit_generator``) pass
    through untimed.  Draws go to the wrapped generator unchanged, so
    the streams — and every output — are those of an unproxied run.
    """

    def __init__(self, inner: np.random.Generator, clock: DrawClock) -> None:
        self._inner = inner
        self._clock = clock

    def __getattr__(self, name: str) -> Any:
        target = getattr(self._inner, name)
        if not callable(target):
            return target
        clock = self._clock

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.process_time()
            try:
                return target(*args, **kwargs)
            finally:
                clock.seconds += time.process_time() - start
                clock.calls += 1

        return timed


def _proxied_make_policy(clock: DrawClock):
    """``policies.make_policy`` with the new policy's generator proxied."""

    def make_policy(kind, seed, network_type, config, sub_base):
        rng = TimedGenerator(np.random.default_rng(seed), clock)
        return _POLICY_CLASSES[kind](rng, network_type, config, sub_base=sub_base)

    return make_policy


def _task(config: SimulationConfig, blocks, num_days: int, directives) -> ShardTask:
    members = {block.index for block in blocks}
    return ShardTask(
        shard_index=0,
        config=config,
        blocks=tuple(blocks),
        num_days=num_days,
        window_days=1,
        ua_window=None,
        scan_days=(),
        login_panel_rate=0.0,
        directives=tuple(d for d in directives if d[1] in members),
    )


def _run_kernel(task: ShardTask, call_days: int) -> tuple[float, _ShardKernel]:
    """CPU seconds of stepping *task*'s kernel over its horizon."""
    kernel = _ShardKernel(task)
    start = time.process_time()
    for stop in range(call_days, task.num_days + call_days, call_days):
        kernel.advance(min(stop, task.num_days))
    return time.process_time() - start, kernel


def _columns(kernel: _ShardKernel, num_windows: int) -> list[tuple[np.ndarray, np.ndarray]]:
    return [kernel.take_column(window) for window in range(num_windows)]


def _digest(columns: list[tuple[np.ndarray, np.ndarray]]) -> str:
    digest = hashlib.sha256()
    for ips, hits in columns:
        digest.update(np.ascontiguousarray(ips, dtype="<u4").tobytes())
        digest.update(np.ascontiguousarray(hits, dtype="<u8").tobytes())
    return digest.hexdigest()


def split(config: SimulationConfig, num_days: int, call_days: int, repeats: int) -> int:
    population = InternetPopulation.build(config)
    directives = plan_collection(population, num_days).directives
    whole = _task(config, population.blocks, num_days, directives)
    groups: dict[PolicyKind, list] = {}
    for block in population.blocks:
        groups.setdefault(block.kind, []).append(block)
    kinds = sorted(groups, key=lambda kind: kind.value)

    plain_cpu: list[float] = []
    cpu: dict[PolicyKind, list[float]] = {kind: [] for kind in kinds}
    draws: dict[PolicyKind, list[float]] = {kind: [] for kind in kinds}
    calls: dict[PolicyKind, int] = {}
    mismatches = 0
    original = population_module.make_policy
    for _ in range(repeats):
        seconds, plain = _run_kernel(whole, call_days)
        plain_cpu.append(seconds)
        plain_digest = _digest(_columns(plain, num_days))
        parts: list[tuple[list[np.ndarray], list[np.ndarray]]] = [
            ([], []) for _ in range(num_days)
        ]
        addr_days = 0
        try:
            for kind in kinds:
                clock = DrawClock()
                population_module.make_policy = _proxied_make_policy(clock)
                seconds, kernel = _run_kernel(
                    _task(config, groups[kind], num_days, directives), call_days
                )
                cpu[kind].append(seconds)
                draws[kind].append(clock.seconds)
                calls[kind] = clock.calls
                addr_days += kernel.addr_days
                for window, (ips, hits) in enumerate(_columns(kernel, num_days)):
                    parts[window][0].append(ips)
                    parts[window][1].append(hits)
        finally:
            population_module.make_policy = original
        proxied_digest = _digest([_partial_column(ips, hits) for ips, hits in parts])
        if proxied_digest != plain_digest or addr_days != plain.addr_days:
            mismatches += 1
            print(
                "output mismatch: proxied "
                f"{proxied_digest} / {addr_days} addr-days, unproxied "
                f"{plain_digest} / {plain.addr_days}",
                file=sys.stderr,
            )

    print(
        f"world seed {config.seed}: {len(population.blocks)} /24s, {num_days} days, "
        f"{call_days}-day kernel calls, median of {repeats} runs (CPU seconds)"
    )
    print(f"{'kind':<14}{'blocks':>7}{'kernel s':>10}{'draws s':>9}"
          f"{'rest s':>8}{'draws':>7}{'calls':>9}")
    total_cpu = total_draws = 0.0
    for kind in kinds:
        kind_cpu = statistics.median(cpu[kind])
        kind_draws = statistics.median(draws[kind])
        total_cpu += kind_cpu
        total_draws += kind_draws
        share = kind_draws / kind_cpu if kind_cpu > 0 else 0.0
        print(f"{kind.value:<14}{len(groups[kind]):>7}{kind_cpu:>10.3f}"
              f"{kind_draws:>9.3f}{kind_cpu - kind_draws:>8.3f}{share:>7.0%}"
              f"{calls[kind]:>9}")
    share = total_draws / total_cpu if total_cpu > 0 else 0.0
    print(f"{'total':<14}{len(population.blocks):>7}{total_cpu:>10.3f}"
          f"{total_draws:>9.3f}{total_cpu - total_draws:>8.3f}{share:>7.0%}"
          f"{sum(calls.values()):>9}")
    unproxied = statistics.median(plain_cpu)
    print(f"unproxied kernel: {unproxied:.3f} s CPU "
          f"(proxy overhead {total_cpu - unproxied:+.3f} s)")
    if mismatches:
        return 1
    print(f"output digest {plain_digest} matches the unproxied run "
          f"({plain.addr_days} addr-days)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=564, help="world seed")
    parser.add_argument("--ases", type=int, default=60)
    parser.add_argument("--blocks-per-as", type=float, default=8.0)
    parser.add_argument("--days", type=int, default=56)
    parser.add_argument(
        "--call-days", type=int, default=0,
        help="days per kernel call (default: the whole horizon in one call)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="runs per group; the table shows medians (default: 3)",
    )
    args = parser.parse_args(argv)
    if args.days < 1 or args.call_days < 0 or args.repeats < 1:
        parser.error("--days and --repeats must be >= 1, --call-days >= 0")
    config = SimulationConfig(
        seed=args.seed, num_ases=args.ases, mean_blocks_per_as=args.blocks_per_as
    )
    return split(config, args.days, args.call_days or args.days, args.repeats)


if __name__ == "__main__":
    sys.exit(main())
