"""Command-line interface: simulate worlds and analyse activity datasets.

Separates the two halves of the paper's pipeline the way an operator
would run them:

- ``repro simulate`` builds a synthetic Internet, observes it through
  the CDN, and writes the dataset (``.npz``) and daily routing series
  (``.rib.txt``) to disk;
- ``repro analyze`` loads a stored dataset and prints one of the
  paper's analyses (churn, block metrics, change detection, traffic
  concentration) — or ``all`` of them in one pass.  Analyses share the
  dataset's memoized :class:`~repro.core.index.DatasetIndex`, so the
  expensive sorted-union/projection step is computed once per run, not
  once per analysis.
- ``repro serve`` runs the live observatory: one interval collected
  and crash-safely appended to a live store per tick, incremental
  analyses folded in, and a Prometheus scrape endpoint serving the
  run's metrics while collection is in flight.  Kill it at any instant
  and rerun the same command: it catches up by deterministic replay
  and converges on the identical dataset (same SHA-256) an
  uninterrupted run produces.

Long ``simulate`` runs are crash-safe: ``--checkpoint-dir`` persists
every finished shard atomically, and ``--resume`` restarts an
interrupted run from those checkpoints with bit-identical output.

Example::

    python -m repro simulate --seed 7 --days 28 --out world
    python -m repro simulate --seed 7 --days 364 --workers 8 \
        --checkpoint-dir ckpt --out world     # interrupted? add --resume
    python -m repro analyze churn world.npz
    python -m repro analyze change world.npz --month-days 14
    python -m repro analyze all world.npz
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence

import numpy as np

from repro.core import change, churn, detect, metrics, potential, seasonal, traffic
from repro.core.io import (
    load_dataset,
    open_store,
    save_dataset,
    save_routing_series,
)
from repro.core.store import COMMIT_PHASE_COMMITTED, COMMIT_PHASE_WRITTEN
from repro.obs import (
    ObsContext,
    build_manifest,
    manifest_path_for,
    write_manifest,
    write_prometheus,
    write_trace_json,
)
from repro.errors import ConfigError, DatasetError
from repro.net.ipv4 import format_ip
from repro.obs import context as obs_api
from repro.report import format_count, format_percent, render_table
from repro.serve import MetricsEndpoint, ObservatoryService
from repro.sim import (
    CDNObservatory,
    FaultInjection,
    InternetPopulation,
    SimulationConfig,
    load_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatio-temporal analysis of active IPv4 address space",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="build a world, collect CDN logs, write them to disk"
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--ases", type=int, default=60, help="number of ASes")
    simulate.add_argument(
        "--blocks-per-as", type=float, default=8.0, help="mean /24 blocks per AS"
    )
    simulate.add_argument("--days", type=int, default=28)
    simulate.add_argument(
        "--weekly", action="store_true", help="store weekly aggregates (days must be a multiple of 7)"
    )
    simulate.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sharded collection engine "
        "(output is bit-identical for any worker count)",
    )
    simulate.add_argument(
        "--no-compress",
        action="store_true",
        help=(
            "store the raw columns uncompressed: ~6x the bytes of the "
            "default gap-coded bundle, but loads map them with no decode"
        ),
    )
    simulate.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-shard checkpoints; finished shards are "
        "persisted atomically so an interrupted run can be resumed",
    )
    simulate.add_argument(
        "--resume",
        action="store_true",
        help="load finished shard checkpoints from --checkpoint-dir and "
        "simulate only the remainder (bit-identical to an uninterrupted run)",
    )
    simulate.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="worker retries per shard before degrading to in-process execution",
    )
    simulate.add_argument(
        "--inject-fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="testing/CI hook: probability that a shard's worker fails once "
        "with a deterministic, seed-keyed injected fault (retries recover it; "
        "the output is unchanged)",
    )
    simulate.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="write the dataset as an out-of-core sharded store under DIR "
        "instead of a single .npz — the merge phase streams shards to disk "
        "and never assembles the full dataset in memory",
    )
    simulate.add_argument(
        "--store-shard-blocks",
        type=int,
        default=256,
        metavar="N",
        help="/24 blocks per store shard (with --store-dir)",
    )
    simulate.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="JSON scenario timeline injecting exogenous events (outages, "
        "lockdown shifts, CGNAT consolidation, ...) into the collection; "
        "see examples/scenarios/ — output stays bit-identical for any "
        "--workers and across --resume",
    )
    simulate.add_argument("--out", required=True, help="output path prefix")
    _add_obs_flags(simulate)

    analyze = commands.add_parser("analyze", help="run one analysis on a stored dataset")
    analyze.add_argument(
        "analysis",
        choices=["churn", "metrics", "change", "traffic", "potential", "weekday", "all"],
    )
    analyze.add_argument(
        "dataset",
        help="path to a .npz dataset, or a store directory (churn and "
        "metrics then stream shard-by-shard in constant memory)",
    )
    analyze.add_argument("--month-days", type=int, default=28)
    analyze.add_argument("--top-fraction", type=float, default=0.10)
    analyze.add_argument(
        "--detect-events",
        action="store_true",
        help="additionally localize exogenous change points (outages, "
        "demand shifts, renumbering) in the dataset's per-block "
        "active/hits/churn series",
    )
    _add_obs_flags(analyze)

    serve = commands.add_parser(
        "serve",
        help="run the live observatory: collect one interval per tick, "
        "append it crash-safely to a live store, expose metrics over HTTP",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--ases", type=int, default=60, help="number of ASes")
    serve.add_argument(
        "--blocks-per-as", type=float, default=8.0, help="mean /24 blocks per AS"
    )
    serve.add_argument("--days", type=int, default=28, help="collection horizon")
    serve.add_argument(
        "--window-days",
        type=int,
        default=1,
        help="days per committed interval (must divide --days)",
    )
    serve.add_argument(
        "--store-dir",
        required=True,
        metavar="DIR",
        help="live store root; an existing store resumes (catch-up by "
        "deterministic replay), a fresh directory starts from interval 1",
    )
    serve.add_argument(
        "--store-shard-blocks",
        type=int,
        default=256,
        metavar="N",
        help="/24 blocks per store shard",
    )
    serve.add_argument(
        "--max-intervals",
        type=int,
        default=None,
        metavar="N",
        help="stop after committing N new intervals (default: run to the "
        "--days horizon)",
    )
    serve.add_argument(
        "--interval-seconds",
        type=float,
        default=0.0,
        metavar="S",
        help="pace: sleep S seconds between committed intervals",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /status, and /healthz on 127.0.0.1:PORT "
        "while collecting (0 picks an ephemeral port, printed to stderr)",
    )
    serve.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="JSON scenario timeline injecting exogenous events into the "
        "live collection; catch-up replay and the committed dataset "
        "SHA-256 stay bit-identical to a batch run of the same timeline",
    )
    serve.add_argument(
        "--inject-kill-interval",
        type=int,
        default=None,
        metavar="K",
        help="testing/CI hook: hard-kill the process (exit 86) while "
        "committing interval K, at the phase chosen by "
        "--inject-kill-phase — a restart must converge bit-identically",
    )
    serve.add_argument(
        "--inject-kill-phase",
        choices=[COMMIT_PHASE_WRITTEN, COMMIT_PHASE_COMMITTED],
        default=COMMIT_PHASE_WRITTEN,
        help="commit phase at which --inject-kill-interval fires",
    )
    _add_obs_flags(serve)

    lint = commands.add_parser(
        "lint",
        help="check the tree against the static contracts (reprolint)",
        description="Run the repository's AST-based contract checker "
        "(tools/reprolint). Available from a repository checkout; every "
        "argument after 'lint' is passed through to reprolint.",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to reprolint (paths, --format, "
        "--list-rules, ...)",
    )
    return parser


def _add_obs_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's span tree, counters, and events as JSON "
        "(never affects the computed output)",
    )
    subparser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's counters, gauges, and span timings in "
        "Prometheus text exposition format",
    )
    subparser.add_argument(
        "--progress",
        action="store_true",
        help="print a heartbeat line to stderr after every finished shard "
        "(done/total, retries, ETA)",
    )


class _ProgressPrinter:
    """Per-shard heartbeat on stderr with a naive linear ETA."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def __call__(self, update) -> None:
        elapsed = time.perf_counter() - self._start
        if update.done > 0:
            eta = f"{elapsed / update.done * (update.total - update.done):.1f}s"
        else:
            eta = "?"
        extras = [
            f"{count} {label}"
            for count, label in (
                (update.resumed, "resumed"),
                (update.retried, "retried"),
                (update.degraded, "degraded"),
            )
            if count
        ]
        detail = f" ({', '.join(extras)})" if extras else ""
        print(
            f"progress: {update.done}/{update.total} shards{detail} "
            f"elapsed {elapsed:.1f}s eta {eta}",
            file=sys.stderr,
            flush=True,
        )


def _export_obs(ctx: ObsContext, args: argparse.Namespace) -> None:
    """Write --trace-out / --metrics-out artifacts, if requested."""
    if args.trace_out:
        write_trace_json(args.trace_out, ctx)
        print(f"trace: {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        write_prometheus(args.metrics_out, ctx)
        print(f"metrics: {args.metrics_out}", file=sys.stderr)


def _format_perf(perf) -> str:
    """Render the engine's per-phase wall-clock/throughput counters."""
    text = (
        f"collection: {perf.total_seconds:.2f}s total "
        f"(sim {perf.sim_seconds:.2f}s, merge {perf.merge_seconds:.2f}s, "
        f"routing {perf.routing_seconds:.2f}s) "
        f"with {perf.workers} worker{'s' if perf.workers != 1 else ''} "
        f"({perf.shards} shard{'s' if perf.shards != 1 else ''})\n"
        f"throughput: {format_count(round(perf.block_days_per_second))} block-days/s, "
        f"{format_count(round(perf.addr_days_per_second))} addr-days/s"
    )
    if (
        perf.shards_retried
        or perf.shards_degraded
        or perf.shards_resumed
        or perf.shards_checkpointed
    ):
        text += (
            f"\nresilience: {perf.shards_resumed} resumed, "
            f"{perf.shards_checkpointed} checkpointed, "
            f"{perf.shards_retried} retried, {perf.shards_degraded} degraded"
        )
    return text


def _load_scenario_arg(args: argparse.Namespace):
    """The parsed ``--scenario`` timeline, or ``None`` without the flag."""
    if args.scenario is None:
        return None
    return load_scenario(args.scenario)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("--max-retries must be >= 0", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if not 0.0 <= args.inject_fault_rate <= 1.0:
        print("--inject-fault-rate must be a probability", file=sys.stderr)
        return 2
    if args.store_shard_blocks < 1:
        print("--store-shard-blocks must be >= 1", file=sys.stderr)
        return 2
    fault = (
        FaultInjection(rate=args.inject_fault_rate)
        if args.inject_fault_rate > 0
        else None
    )
    try:
        scenario = _load_scenario_arg(args)
    except ConfigError as error:
        print(str(error), file=sys.stderr)
        return 2
    config = SimulationConfig(
        seed=args.seed, num_ases=args.ases, mean_blocks_per_as=args.blocks_per_as
    )
    world = InternetPopulation.build(config)
    observatory = CDNObservatory(world)
    # Every simulate run carries an observation context: the manifest
    # written next to the dataset is the run's provenance record, and
    # recording it never perturbs collected output (tested).
    ctx = ObsContext()
    if scenario is not None:
        ctx.info.update(
            scenario=scenario.name, scenario_events=len(scenario.events)
        )
    collect_kwargs = dict(
        scenario=scenario,
        workers=args.workers,
        max_retries=args.max_retries,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        fault=fault,
        obs=ctx,
        progress=_ProgressPrinter() if args.progress else None,
        store_dir=args.store_dir,
        store_shard_blocks=args.store_shard_blocks,
    )
    try:
        if args.weekly:
            if args.days % 7:
                print("--weekly requires --days to be a multiple of 7", file=sys.stderr)
                return 2
            result = observatory.collect_weekly(args.days // 7, **collect_kwargs)
        else:
            result = observatory.collect_daily(args.days, **collect_kwargs)
    except ConfigError as error:
        # Scenario compilation happens against the concrete world and
        # horizon, so e.g. an out-of-horizon event only surfaces here.
        print(str(error), file=sys.stderr)
        return 2
    routing_path = f"{args.out}.rib.txt"
    if result.store is not None:
        store = result.store
        dataset_path = store.root
        with obs_api.activate(ctx):
            save_routing_series(routing_path, result.routing)
        manifest = build_manifest(
            ctx, dataset_path=dataset_path, dataset_sha256=store.dataset_sha256
        )
        dataset_line = (
            f"store: {dataset_path} ({len(store)} x {store.window_days}d "
            f"snapshots, {store.num_blocks} /24 blocks in "
            f"{len(store.shards)} shards)"
        )
    else:
        dataset_path = f"{args.out}.npz"
        with obs_api.activate(ctx):
            save_dataset(dataset_path, result.dataset, compress=not args.no_compress)
            save_routing_series(routing_path, result.routing)
        manifest = build_manifest(
            ctx, dataset=result.dataset, dataset_path=dataset_path
        )
        dataset_line = (
            f"dataset: {dataset_path} ({len(result.dataset)} x "
            f"{result.dataset.window_days}d snapshots, "
            f"{format_count(result.dataset.total_unique())} unique addresses)"
        )
    manifest_path = manifest_path_for(dataset_path)
    write_manifest(manifest_path, manifest)
    _export_obs(ctx, args)
    print(
        f"world: {len(world.ases)} ASes, {len(world.blocks)} /24 blocks\n"
        + dataset_line + "\n"
        f"routing: {routing_path} ({len(result.routing)} daily tables)\n"
        f"manifest: {manifest_path}\n"
        + _format_perf(result.perf)
    )
    return 0


def _render_churn(summary) -> None:
    """Print one churn summary — shared by in-memory and streamed paths."""
    rows = [
        ("window", f"{summary.window_days}d"),
        ("up events (min/median/max)",
         f"{format_percent(summary.up_min)} / {format_percent(summary.up_median)} / "
         f"{format_percent(summary.up_max)}"),
        ("down events (min/median/max)",
         f"{format_percent(summary.down_min)} / {format_percent(summary.down_median)} / "
         f"{format_percent(summary.down_max)}"),
    ]
    print(render_table(["quantity", "value"], rows, title="Churn"))


def _analyze_churn(dataset, args: argparse.Namespace) -> None:
    if dataset.window_days != 1:
        summary = churn.ChurnSummary(
            dataset.window_days, tuple(churn.transition_churn(dataset))
        )
    else:
        summary = churn.daily_churn(dataset)
    _render_churn(summary)


def _analyze_churn_store(store, args: argparse.Namespace) -> None:
    if store.window_days != 1:
        summary = churn.ChurnSummary(
            store.window_days, tuple(churn.transition_churn_streamed(store))
        )
    else:
        summary = churn.daily_churn_streamed(store)
    _render_churn(summary)


def _render_block_metrics(block_metrics) -> None:
    """Print block metrics — shared by in-memory and streamed paths."""
    fd = block_metrics.filling_degree
    rows = [
        ("active /24 blocks", str(block_metrics.num_blocks)),
        ("median filling degree", str(int(np.median(fd)))),
        ("blocks with FD > 250", format_percent(float((fd > 250).mean()))),
        ("blocks with FD < 64", format_percent(float((fd < 64).mean()))),
        ("median STU", f"{float(np.median(block_metrics.stu)):.3f}"),
    ]
    print(render_table(["quantity", "value"], rows, title="Block metrics"))


def _analyze_metrics(dataset, args: argparse.Namespace) -> None:
    _render_block_metrics(metrics.compute_block_metrics(dataset))


def _analyze_metrics_store(store, args: argparse.Namespace) -> None:
    _render_block_metrics(metrics.compute_block_metrics_streamed(store))


def _analyze_change(dataset, args: argparse.Namespace) -> None:
    detection = change.detect_change(dataset, month_days=args.month_days)
    rows = [
        ("blocks analysed", str(detection.bases.size)),
        ("major change (|ΔSTU| > 0.25)", format_percent(detection.major_fraction)),
    ]
    print(render_table(["quantity", "value"], rows, title="Change detection"))


def _analyze_potential(dataset, args: argparse.Namespace) -> None:
    block_metrics = metrics.compute_block_metrics(dataset)
    report = potential.potential_utilization(block_metrics)
    rows = [
        ("active /24 blocks", str(report.total_blocks)),
        ("sparse blocks (FD<64)", format_percent(report.low_fd_fraction)),
        ("dynamic pools", str(report.dynamic_pool_blocks)),
        ("under-utilized pools", format_percent(report.underutilized_pool_fraction)),
        ("reclaimable addresses", format_count(report.reclaimable_addresses)),
    ]
    print(render_table(["quantity", "value"], rows, title="Potential utilization"))


def _analyze_weekday(dataset, args: argparse.Namespace) -> None:
    profile = seasonal.weekday_profile(dataset)
    rows = [
        (name, format_count(profile.mean_active[day]))
        for day, name in enumerate(seasonal.WEEKDAY_NAMES)
        if profile.samples[day] > 0
    ]
    rows.append(("weekend dip", f"{profile.weekend_dip:.3f}x"))
    print(render_table(["day", "mean active"], rows, title="Weekday profile"))


def _analyze_traffic(dataset, args: argparse.Namespace) -> None:
    shares = traffic.top_share_series(dataset, args.top_fraction)
    trend = traffic.consolidation_trend(shares) if shares.size > 1 else 0.0
    rows = [
        ("windows", str(shares.size)),
        (f"top-{format_percent(args.top_fraction, 0)} share (first/last)",
         f"{format_percent(shares[0])} / {format_percent(shares[-1])}"),
        ("trend per window", f"{100 * trend:+.3f} points"),
    ]
    print(render_table(["quantity", "value"], rows, title="Traffic concentration"))


def _analyze_events(dataset, args: argparse.Namespace) -> None:
    events = detect.detect_events(dataset)
    if not events:
        print("Detected events: none")
        return
    rows = [
        (
            str(event.window),
            event.kind,
            str(event.num_blocks),
            f"{format_ip(event.first_base)} - {format_ip(event.last_base)}",
            f"{event.magnitude:.2f}",
        )
        for event in events
    ]
    print(
        render_table(
            ["window", "kind", "blocks", "block range", "magnitude"],
            rows,
            title="Detected events",
        )
    )


_ANALYSES = {
    "churn": _analyze_churn,
    "metrics": _analyze_metrics,
    "change": _analyze_change,
    "traffic": _analyze_traffic,
    "potential": _analyze_potential,
    "weekday": _analyze_weekday,
}

#: Analyses with a constant-memory streamed implementation over a store.
_STREAMED_ANALYSES = {
    "churn": _analyze_churn_store,
    "metrics": _analyze_metrics_store,
}


def _analyze_store(store, args: argparse.Namespace) -> None:
    """Dispatch analyses over an out-of-core store.

    Streamed analyses (churn, metrics) never materialize the dataset;
    the rest, and ``--detect-events``, fall back through
    ``store.to_dataset()``, built at most once per command.
    """
    names = list(_ANALYSES) if args.analysis == "all" else [args.analysis]
    dataset = None
    for name in names:
        if name in _STREAMED_ANALYSES:
            _STREAMED_ANALYSES[name](store, args)
            continue
        if dataset is None:
            dataset = store.to_dataset()
        _ANALYSES[name](dataset, args)
    if args.detect_events:
        _analyze_events(store.to_dataset() if dataset is None else dataset, args)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.days < 1:
        print("--days must be >= 1", file=sys.stderr)
        return 2
    if args.window_days < 1 or args.days % args.window_days:
        print("--window-days must divide --days", file=sys.stderr)
        return 2
    if args.store_shard_blocks < 1:
        print("--store-shard-blocks must be >= 1", file=sys.stderr)
        return 2
    if args.max_intervals is not None and args.max_intervals < 0:
        print("--max-intervals must be >= 0", file=sys.stderr)
        return 2
    if args.interval_seconds < 0:
        print("--interval-seconds must be >= 0", file=sys.stderr)
        return 2
    try:
        scenario = _load_scenario_arg(args)
    except ConfigError as error:
        print(str(error), file=sys.stderr)
        return 2
    config = SimulationConfig(
        seed=args.seed, num_ases=args.ases, mean_blocks_per_as=args.blocks_per_as
    )
    commit_hook = None
    if args.inject_kill_interval is not None:
        kill_interval = args.inject_kill_interval
        kill_phase = args.inject_kill_phase

        def commit_hook(interval: int, phase: str) -> None:
            if interval == kill_interval and phase == kill_phase:
                print(
                    f"injected kill: interval {interval} at {phase}",
                    file=sys.stderr,
                    flush=True,
                )
                # A real hard kill, not an exception: nothing below this
                # line — no finally, no atexit — may run, or the test
                # would not exercise the store's crash protocol.
                os._exit(86)

    ctx = ObsContext()
    endpoint: MetricsEndpoint | None = None
    try:
        publish = None
        if args.metrics_port is not None:
            endpoint = MetricsEndpoint(port=args.metrics_port)
            endpoint.start()
            publish = endpoint.publish
            print(f"metrics: {endpoint.url}/metrics", file=sys.stderr, flush=True)
        try:
            service = ObservatoryService(
                config,
                num_days=args.days,
                window_days=args.window_days,
                store_root=args.store_dir,
                shard_blocks=args.store_shard_blocks,
                ctx=ctx,
                commit_hook=commit_hook,
                publish=publish,
                pace_seconds=args.interval_seconds,
                scenario=scenario,
            )
            with service:
                report = service.run(max_intervals=args.max_intervals)
        except ConfigError as error:
            print(str(error), file=sys.stderr)
            return 2
        except DatasetError as error:
            # A store this run must not extend: replay mismatch, horizon,
            # plain or retired-layout root.  The message says which.
            print(f"repro serve: {error}", file=sys.stderr)
            return 1
    finally:
        if endpoint is not None:
            endpoint.stop()
    _export_obs(ctx, args)
    state = "complete" if report.complete else "paused"
    sha = report.dataset_sha256 or "-"
    print(
        f"serve: {state} at {report.committed}/{report.total} intervals "
        f"({report.replayed} replayed, {report.appended} appended)\n"
        f"store: {args.store_dir}\n"
        f"dataset sha256: {sha}"
    )
    return 0


def _run_lint(lint_args: Sequence[str]) -> int:
    """Run reprolint (``tools/reprolint``) from a repository checkout.

    The linter is repository tooling, not part of the installed
    package: it lives next to the sources it audits so it can run on a
    tree too broken to import.  When ``repro`` is executed from a
    checkout (the development setting where linting matters), the
    repository root is two levels above this file; otherwise fall back
    to the current working directory looking like a checkout.
    """
    import os

    candidates = [
        os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "..")),
        os.getcwd(),
    ]
    for root in candidates:
        if os.path.isdir(os.path.join(root, "tools", "reprolint")):
            if root not in sys.path:
                sys.path.insert(0, root)
            from tools.reprolint.cli import main as lint_main

            return lint_main(list(lint_args))
    print(
        "repro lint: tools/reprolint not found — run from a repository "
        "checkout (the linter is repo tooling, not an installed module)",
        file=sys.stderr,
    )
    return 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    # One dataset object for the whole run: every analysis below reuses
    # its memoized DatasetIndex (union, projections, block scatter).
    ctx = ObsContext()
    try:
        with obs_api.activate(ctx):
            if os.path.isdir(args.dataset):
                with open_store(args.dataset) as store:
                    _analyze_store(store, args)
            else:
                dataset = load_dataset(args.dataset)
                if args.analysis == "all":
                    for run in _ANALYSES.values():
                        run(dataset, args)
                else:
                    _ANALYSES[args.analysis](dataset, args)
                if args.detect_events:
                    _analyze_events(dataset, args)
    except DatasetError as error:
        print(f"repro analyze: {error}", file=sys.stderr)
        return 1
    _export_obs(ctx, args)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw[:1] == ["lint"]:
        # Forward everything after "lint" verbatim: argparse.REMAINDER
        # refuses leading flags (e.g. "repro lint --list-rules"), and
        # reprolint owns its own argument parsing anyway.
        return _run_lint(raw[1:])
    args = _build_parser().parse_args(raw)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_analyze(args)


if __name__ == "__main__":
    raise SystemExit(main())
