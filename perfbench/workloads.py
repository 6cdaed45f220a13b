"""The benchmark's two workloads, driven through the real entry points.

Each workload is a user session: collect a 56-day world, analyze it, and
reopen what was collected.  ``batch-npz`` runs ``repro.cli.main``
in-process exactly as a shell user would run ``repro simulate`` /
``repro analyze``; ``serve-live`` drives
:class:`~repro.serve.service.ObservatoryService` the way ``repro serve``
does, without the HTTP endpoint.  Everything runs in this one process
with one worker.

Operations (``attempted`` counts them):

- ``simulate``: one ``repro simulate`` call, or one live tick
  (``run_one_interval``) on ``serve-live``;
- ``analyze``: one ``repro analyze all --detect-events`` pass, reopening
  the dataset as a fresh CLI call does;
- ``catchup``: a restarted reader reopening what was collected and
  verifying it bit for bit — a new :class:`ObservatoryService` plus
  ``catch_up()`` (replay with verify) on ``serve-live``; ``load_dataset``
  plus a full digest on ``batch-npz``.

A run is made of rounds: the workload's ``min_rounds`` at least, and
more while the next round fits in ``--seconds``.  A round collects the
world afresh (one ``simulate`` call, or a fresh live store filled by 56
ticks) and then analyzes and reopens it.  Every kind of operation thus
recurs throughout the run, so a slow spell of the machine is shared by
the metrics instead of landing on one.

An operation fails if it raises or its output check fails.  Every check
compares against the world's batch reference pinned in ``worlds.json``.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from layertrace import Tracer, span_name
from worlds import NUM_DAYS, analyze_argv, capture_cli, text_sha256, world_args, world_config

_COMMON = (
    span_name("sim.population", "InternetPopulation.build"),
    span_name("sim.cdn", "plan_collection"),
    span_name("sim.cdn", "RoutingEvolution.step"),
    span_name("core.io", "save_routing_series"),
    span_name("obs.manifest", "build_manifest"),
    span_name("obs.manifest", "write_manifest"),
    span_name("core.metrics", "compute_block_metrics"),
    span_name("core.change", "detect_change"),
    span_name("core.traffic", "top_share_series"),
    span_name("core.seasonal", "weekday_profile"),
    span_name("core.potential", "potential_utilization"),
    span_name("core.detect", "detect_events"),
    span_name("report.text", "render_table"),
)
_BATCH = (
    span_name("sim.cdn", "RoutingEvolution.run"),
    span_name("sim.engine", "simulate_shard"),
    span_name("sim.engine", "run_sharded_collection"),
)
_STREAMED = (
    span_name("core.io", "open_store"),
    span_name("core.store", "DatasetStore.to_dataset"),
    span_name("core.metrics", "compute_block_metrics_streamed"),
    span_name("core.churn", "daily_churn_streamed"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Span names the traced run must see at least once.
    expected_spans: tuple[str, ...]
    #: Rounds per run, at least, however short ``--seconds`` is.
    min_rounds: int
    #: Analyze passes and catch-ups per round: the cheap operations are
    #: repeated so that they get enough samples.
    analyses_per_round: int
    catchups_per_round: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "batch-npz",
            _COMMON
            + _BATCH
            + (
                span_name("core.io", "save_dataset"),
                span_name("core.io", "load_dataset"),
                span_name("core.churn", "daily_churn"),
            ),
            min_rounds=3,
            analyses_per_round=1,
            catchups_per_round=2,
        ),
        Workload(
            "serve-live",
            _COMMON
            + _STREAMED
            + (
                span_name("sim.engine", "LiveShardSimulator.advance_window"),
                span_name("core.store", "StoreWriter.add_shard"),
                span_name("core.store", "StoreWriter.finalize"),
                span_name("core.store", "StoreAppender.append"),
                span_name("core.store", "DatasetStore.column_slice"),
                span_name("core.metrics", "IncrementalBlockMetrics.update"),
                span_name("core.churn", "IncrementalChurn.update"),
                span_name("serve.service", "ObservatoryService.run_one_interval"),
                span_name("serve.service", "ObservatoryService.catch_up"),
            ),
            min_rounds=2,
            analyses_per_round=2,
            catchups_per_round=2,
        ),
    )
}


class CheckFailed(Exception):
    """An operation's output differs from its batch reference."""


@dataclass
class Pass:
    """The operations of one pass over a workload, and their outcomes."""

    work_dir: str
    world: dict[str, Any]
    tracer: Tracer | None = None
    seconds: dict[str, list[float]] = field(default_factory=dict)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Output digest of every operation, in order (traced vs untraced).
    digests: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.seconds.values())

    def op(self, kind: str, request: str, action: Callable[[], Any],
           check: Callable[[Any], str]) -> Any:
        """Time *action*; then *check* its result, which returns a digest."""
        start = time.perf_counter()
        try:
            try:
                if self.tracer is None:
                    result = action()
                else:
                    with self.tracer.operation(kind, request):
                        result = action()
            finally:
                self.seconds.setdefault(kind, []).append(time.perf_counter() - start)
            self.digests.append(check(result))
            return result
        except CheckFailed as error:
            self.fail(request, str(error))
        # The run's boundary: the traceback is kept and reported, and the
        # operation counts as failed.
        except Exception:
            self.fail(request, traceback.format_exc())
        return None

    def fail(self, request: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{request}: {detail}")

    def expect(self, what: str, got: object, want: object) -> None:
        if got != want:
            raise CheckFailed(f"{what}: got {got!r}, want {want!r}")

    def check_dataset(self, what: str, sha256: object) -> str:
        self.expect(f"{what} dataset sha256", sha256, self.world["dataset_sha256"])
        return str(sha256)

    def check_analysis(self, text: str) -> str:
        digest = text_sha256(text)
        self.expect("analysis text sha256", digest, self.world["analysis_sha256"])
        return digest


def _manifest_sha256(manifest_path: str) -> object:
    from repro.obs.manifest import load_manifest

    return load_manifest(manifest_path)["dataset"]["sha256"]


def _simulate_argv(run: Pass, out: str) -> list[str]:
    return [
        "simulate", *world_args(run.world["seed"]),
        "--days", str(NUM_DAYS), "--out", out,
    ]


# -- batch workload -----------------------------------------------------------


def _batch(workload: Workload, run: Pass, until: float | None) -> None:
    from repro.core.io import load_dataset
    from repro.obs.manifest import dataset_digest, manifest_path_for

    def one_round(index: int) -> None:
        round_dir = os.path.join(run.work_dir, f"round-{index}")
        os.makedirs(round_dir)
        out = os.path.join(round_dir, "world")
        dataset_path = out + ".npz"
        argv = _simulate_argv(run, out)

        def reopen() -> str:
            return dataset_digest(load_dataset(dataset_path))

        gc.collect()
        run.op(
            "simulate", f"simulate-{index}", lambda: capture_cli(argv),
            lambda _text: run.check_dataset(
                "manifest", _manifest_sha256(manifest_path_for(dataset_path))
            ),
        )
        _analyze_and_catch_up(
            workload, run, index,
            lambda: capture_cli(analyze_argv(dataset_path)), run.check_analysis,
            reopen, lambda sha256: run.check_dataset("reopened", sha256),
        )
        shutil.rmtree(round_dir)

    _rounds(workload, until, one_round)


def _analyze_and_catch_up(
    workload: Workload, run: Pass, index: int,
    analyze: Callable[[], Any], check_analysis: Callable[[Any], str],
    catchup: Callable[[], Any], check_catchup: Callable[[Any], str],
) -> None:
    # Each operation stands for a fresh process: no garbage carried in.
    for repeat in range(1, workload.analyses_per_round + 1):
        gc.collect()
        run.op("analyze", f"analyze-{index}.{repeat}", analyze, check_analysis)
    for repeat in range(1, workload.catchups_per_round + 1):
        gc.collect()
        run.op("catchup", f"catchup-{index}.{repeat}", catchup, check_catchup)


def _rounds(workload: Workload, until: float | None,
            one_round: Callable[[int], None]) -> None:
    """``min_rounds`` rounds, then more while the longest round so far
    still ends before *until*; a single round when *until* is ``None``."""
    index = 0
    longest = 0.0
    while index < (1 if until is None else workload.min_rounds) or (
        until is not None and time.perf_counter() + longest <= until
    ):
        index += 1
        start = time.perf_counter()
        one_round(index)
        longest = max(longest, time.perf_counter() - start)


# -- live workload ------------------------------------------------------------


def build_service(world_seed: int, root: str, ctx: Any) -> Any:
    """The service ``repro serve`` builds for this world (one-day ticks)."""
    from repro.serve.service import ObservatoryService

    return ObservatoryService(
        world_config(world_seed),
        num_days=NUM_DAYS,
        window_days=1,
        store_root=root,
        ctx=ctx,
    )


def _live(workload: Workload, run: Pass, first: tuple[Any, Any],
          until: float | None) -> None:
    """Rounds of: a fresh live store filled by one tick per day, then
    analyses of it and restarts that replay and verify it.  *first* is
    the first round's service and its context, built during set-up."""
    import numpy as np

    from repro.obs import context as obs_api
    from repro.obs.context import ObsContext

    def one_round(index: int) -> None:
        if index == 1:
            service, ctx = first
        else:
            ctx = ObsContext()
            service = build_service(
                run.world["seed"], os.path.join(run.work_dir, f"live-{index}"), ctx
            )
        root = service.root
        ticks = service.total_intervals

        def check_tick(store: Any) -> str:
            if len(store) == ticks:
                return run.check_dataset(
                    "live store after the last tick", store.dataset_sha256
                )
            return str(store.dataset_sha256)

        with obs_api.activate(ctx):
            service.catch_up()  # a fresh store: nothing to replay, as in ``repro serve``
            for tick in range(1, ticks + 1):
                run.op("simulate", f"tick-{index}.{tick}", service.run_one_interval,
                       check_tick)
        live_metrics = service.block_metrics()
        live_churn = service.churn_transitions()
        service.close()

        def restart() -> Any:
            restart_ctx = ObsContext()
            restarted = build_service(run.world["seed"], root, restart_ctx)
            try:
                with obs_api.activate(restart_ctx):
                    replayed = restarted.catch_up()
            except BaseException:
                restarted.close()
                raise
            return restarted, replayed

        def check_restart(result: Any) -> str:
            restarted, replayed = result
            try:
                run.expect("intervals replayed", replayed, ticks)
                metrics = restarted.block_metrics()
                run.expect(
                    "incremental block metrics after catch-up",
                    all(
                        np.array_equal(getattr(metrics, name), getattr(live_metrics, name))
                        for name in ("bases", "filling_degree", "stu")
                    ),
                    True,
                )
                run.expect(
                    "incremental churn after catch-up",
                    restarted.churn_transitions() == live_churn, True,
                )
                return run.check_dataset("caught-up store", restarted.store.dataset_sha256)
            finally:
                restarted.close()

        _analyze_and_catch_up(
            workload, run, index,
            lambda: capture_cli(analyze_argv(root)), run.check_analysis,
            restart, check_restart,
        )
        shutil.rmtree(root)

    _rounds(workload, until, one_round)


def run_pass(workload: Workload, run: Pass, service: Any, until: float | None) -> None:
    """All operations of one pass; *until* ``None`` runs a single round.

    *service* is ``serve-live``'s first service and its context, built
    during set-up.
    """
    if workload.name == "serve-live":
        _live(workload, run, service, until)
    else:
        _batch(workload, run, until)


# -- end-to-end metrics -------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Linearly interpolated percentile (``statistics.quantiles``'
    inclusive method), so that few samples still give a central figure."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def end_to_end(workload: Workload, run: Pass) -> dict[str, float]:
    """The end-to-end metrics of a pass (without ``setup_s``/RSS).

    On ``serve-live`` a tick is one ``run_one_interval`` call, and
    ``simulate_s`` is the median over rounds of the time all the ticks of
    a round took to fill the live store.  A batch ``simulate`` call makes
    every interval of the horizon durable at once, so on ``batch-npz`` the
    tick percentiles are those of the ``simulate`` calls.
    """
    simulate = run.seconds["simulate"]
    if workload.name == "serve-live":
        collect = statistics.median(
            sum(simulate[start:start + NUM_DAYS])
            for start in range(0, len(simulate), NUM_DAYS)
        )
    else:
        collect = statistics.median(simulate)
    return {
        "simulate_s": collect,
        "analyze_s": statistics.median(run.seconds["analyze"]),
        "tick_p50_ms": 1000 * percentile(simulate, 0.50),
        "tick_p80_ms": 1000 * percentile(simulate, 0.80),
        "catchup_s": statistics.median(run.seconds["catchup"]),
    }
