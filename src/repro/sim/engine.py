"""Sharded parallel collection: the CDN observatory's execution engine.

The paper's data-collection framework (Sec. 3.2) aggregates logs from
thousands of CDN edge servers — an embarrassingly parallel workload,
since every /24 block's day-by-day behaviour is independent of every
other block's.  This module reproduces that shape: the population's
blocks are partitioned into contiguous shards, each shard's policy
simulation runs in a worker process, and the per-day (or per-week)
shard columns are combined with the k-way merge machinery from
:mod:`repro.core.index` into one in-memory snapshot per window, each
window's shard columns released as soon as it is merged.  The engine
writes no files besides its checkpoints: a caller that wants a
sharded store saves the merged dataset with
:func:`~repro.core.io.save_store`.

The non-negotiable contract is **bit-identical output regardless of
worker count**.  Three properties make shard boundaries invisible:

1. Every random stream a worker consumes is derived per block, keyed
   by the block's index — the policy streams from ``Block.seed`` (as
   before), the User-Agent sampling streams from
   :func:`block_ua_rng`.  No worker draws from a stream another
   worker could have advanced.
2. Genuinely global state — the restructure schedule, BGP noise, the
   routing-table evolution — stays on the coordinator
   (:mod:`repro.sim.cdn`); workers only receive the schedule's
   per-block outcomes as :data:`directives <ShardTask.directives>`.
3. The merge is canonical: /24 blocks own disjoint address ranges, so
   shard window columns never share an address and
   :func:`~repro.core.index.kway_union_columns` yields the same sorted union
   whatever the shard count.  Hit counts are integers well below
   2**53, so per-shard ``float64`` accumulation followed by cross-
   shard ``uint64`` addition is exact.

``workers=1`` runs the same shard code serially in-process (no
executor, no pickling), so the parallel and serial paths cannot
drift apart.

Collection runs are additionally **fault-tolerant and resumable**: a
failed worker is retried with capped exponential backoff, a shard that
exhausts its retries degrades gracefully to in-process execution on
the coordinator, and — when a checkpoint directory is configured —
every finished shard is persisted through the fsynced atomic-write
path of :mod:`repro.core.io`, so an interrupted run restarted with
``resume=True`` loads the finished shards and simulates only the
remainder.  None of this machinery touches any random stream, so a
killed-and-resumed run is bit-identical to an uninterrupted one at any
worker count.
"""

from __future__ import annotations

import datetime
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from repro.core.dataset import Snapshot
from repro.core.index import kway_union_columns
from repro.errors import CollectionError, ConfigError, InjectedWorkerFault
from repro.obs import context as obs_api
from repro.obs.context import ObsContext
from repro.sim.checkpoint import (
    load_shard_checkpoint,
    run_fingerprint,
    save_shard_checkpoint,
)
from repro.sim.config import SimulationConfig
from repro.sim.policies import BLOCK_SIZE, AddressPolicy, DaysActivity, PolicyKind
from repro.sim.population import Block, InternetPopulation
from repro.sim.scenario import (
    Perturbation,
    build_day_factor_tables,
    perturb_hits,
)
from repro.sim.useragents import UASampleStore, sample_uas
from repro.sim.util import hash_coin

#: Root salt of every collection-run stream (shared with repro.sim.cdn).
COLLECT_STREAM_SALT = 0xC011EC7

#: Salt selecting the fixed login-trace panel of subscribers.
LOGIN_PANEL_SALT = 0x106B4BE1

#: Salt separating per-block UA sampling streams from policy streams.
UA_STREAM_SALT = 0x0A11D00D

#: Salt keying the deterministic fault-injection coin per shard.
FAULT_SALT = 0xFA17

#: Ceiling of the exponential retry backoff, in seconds.
MAX_BACKOFF_SECONDS = 2.0

#: Worker failures the coordinator may retry or degrade around:
#: collection-domain errors (including injected faults — they model
#: worker crashes), I/O failures of the worker boundary (``OSError``
#: covers broken pipes and truncated pickles in transit), and memory
#: exhaustion inside one shard.  Anything else is a bug in the
#: simulation itself — retrying it cannot help, so it is recorded
#: through the obs layer and re-raised unchanged (contract E303).
RETRYABLE_WORKER_ERRORS = (CollectionError, OSError, MemoryError)

#: Most days one replay call of :class:`LiveShardSimulator` simulates
#: (whole windows, at least one).  Measured on the benchmark's world 564
#: (697 /24s, 56 one-day windows, same process, alternating): week-long
#: calls ran at a median 0.76x the CPU of one-day calls (1.86 against
#: 2.45 s); 14-, 28- and 56-day calls stayed within the ±20% spread of
#: week-long ones, while peak RSS grew +6 MiB at 7 days against +34 MiB
#: at 56 (the buffered look-ahead columns).
REPLAY_STEP_DAYS = 7

#: One scheduled policy change: ``(day, block_index, kind_value, salt)``.
Directive = tuple[int, int, str, int]


@dataclass(frozen=True)
class FaultInjection:
    """Deterministic, seed-keyed worker failures (the testing/CI hook).

    A shard is *selected* by a coin keyed on ``(config seed,``
    :data:`FAULT_SALT` ``, shard index)`` — independent of draw order,
    worker count, and every simulation stream, so injecting faults
    cannot perturb collected output.  A selected shard raises
    :class:`~repro.errors.InjectedWorkerFault` at the start of each
    worker attempt until it has failed ``max_failures_per_shard``
    times, which lets tests dial in "fails once then succeeds on
    retry" (the default) or "never succeeds" (retry-exhaustion paths).

    ``fail_in_process=True`` extends the fault to the coordinator's
    in-process fallback, turning a selected shard into an unrecoverable
    failure — the deterministic stand-in for ``kill -9`` mid-run that
    the resume tests and the CI smoke job build on.
    """

    rate: float
    max_failures_per_shard: int = 1
    salt: int = FAULT_SALT
    fail_in_process: bool = False

    def selected(self, seed: int, shard_index: int) -> bool:
        """Whether this plan targets *shard_index* at all."""
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, self.salt, shard_index])
        )
        return bool(rng.random() < self.rate)

    def should_fail(self, seed: int, shard_index: int, attempt: int) -> bool:
        """Whether worker *attempt* (0-based) of a shard must fail."""
        return attempt < self.max_failures_per_shard and self.selected(
            seed, shard_index
        )


def block_ua_rng(seed: int, block_index: int) -> np.random.Generator:
    """The User-Agent sampling stream of one /24 block.

    Keyed by the block's index (not by draw order), so the stream is
    identical whether the block is simulated alone, in a shard of 10,
    or in a single serial pass — the root of the determinism contract.
    """
    return np.random.default_rng(
        np.random.SeedSequence([seed, COLLECT_STREAM_SALT, UA_STREAM_SALT, block_index])
    )


def plan_shards(num_blocks: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, nearly equal ``[start, stop)`` slices of the block list.

    One shard per worker, capped at one block per shard.  Contiguity
    matters: concatenating shard outputs in shard order then equals
    concatenating per-block outputs in block order, which keeps
    order-sensitive artifacts (login traces) identical to a serial run.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1: {workers}")
    if num_blocks <= 0:
        raise ConfigError(f"cannot shard an empty population: {num_blocks}")
    shards = min(workers, num_blocks)
    base, extra = divmod(num_blocks, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for shard in range(shards):
        stop = start + base + (1 if shard < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs: blocks, horizon, and directives.

    ``directives`` carries the restructure schedule's outcomes for this
    shard's blocks only — the worker never sees the schedule RNG, so it
    cannot perturb coordinator streams.
    """

    shard_index: int
    config: SimulationConfig
    blocks: tuple[Block, ...]
    num_days: int
    window_days: int
    ua_window: tuple[int, int] | None
    scan_days: tuple[int, ...]
    login_panel_rate: float
    directives: tuple[Directive, ...]
    #: Compiled scenario hit-volume windows for this shard's blocks
    #: only (:mod:`repro.sim.scenario`); ``()`` outside scenario runs.
    #: Applied as a pure function of these tuples — no stream is
    #: consumed — so the empty tuple is bit-identical to no scenario.
    perturbations: tuple[Perturbation, ...] = ()
    #: Optional injected-failure plan (testing/CI); ``None`` in
    #: production runs.
    fault: FaultInjection | None = None
    #: 0-based worker attempt, bumped by the coordinator on retry.
    #: Only the fault hook reads it — simulation streams never do.
    attempt: int = 0


@dataclass
class ShardResult:
    """One worker's contribution, ready for the deterministic merge."""

    shard_index: int
    window_ips: list[np.ndarray]
    window_hits: list[np.ndarray]
    ua_samples: dict[int, Counter]
    login_trace: list[tuple[np.ndarray, np.ndarray]] | None
    scan_states: dict[int, dict[int, tuple[PolicyKind, np.ndarray]]]
    final_kinds: dict[int, PolicyKind]
    addr_days: int
    #: Shard-local observability payload (plain dicts, picklable);
    #: ``None`` for a shard loaded from a checkpoint, which does not
    #: persist it — a resumed shard performed no simulation.
    obs: dict | None = None


#: Resilience field of :class:`ShardProgress` -> the event kind whose
#: ``event_<kind>_total`` counter holds it (``PerfCounters`` carries
#: the same figures as ``shards_<field>``).
_RESILIENCE_EVENTS = {
    "retried": "retry",
    "degraded": "degrade",
    "resumed": "resume",
    "checkpointed": "checkpoint_save",
}


def _resilience_totals(ctx: ObsContext) -> dict[str, int]:
    """The run's retry/degrade/resume/checkpoint totals, read off *ctx*."""
    return {
        field: int(ctx.metrics.counter(f"event_{kind}_total"))
        for field, kind in _RESILIENCE_EVENTS.items()
    }


@dataclass
class PerfCounters:
    """Per-phase wall-clock and throughput of one collection run.

    A view of the run's :class:`~repro.obs.context.ObsContext`, built
    by :meth:`from_context`.  ``sim_seconds`` covers the sharded block
    simulation (including any executor overhead), ``merge_seconds``
    the k-way combination of shard outputs, ``routing_seconds`` the
    coordinator's routing-table evolution.  Throughputs are computed
    over the simulation phase, the part sharding accelerates.
    """

    workers: int
    shards: int
    num_blocks: int
    num_days: int
    addr_days: int
    sim_seconds: float
    merge_seconds: float
    routing_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Worker attempts that were retried after a failure.
    shards_retried: int = 0
    #: Shards that exhausted their retries and ran in-process instead.
    shards_degraded: int = 0
    #: Shards loaded from a checkpoint instead of being simulated.
    shards_resumed: int = 0
    #: Shard checkpoints written during this run.
    shards_checkpointed: int = 0

    @classmethod
    def from_context(cls, ctx: ObsContext) -> "PerfCounters":
        """Derive one run's summary from the context it recorded into.

        Phase times are the wall seconds of the coordinator spans
        ``collect/{plan,routing,simulate,merge}`` (a phase the run did
        not record reads 0) and ``total_seconds`` is their sum;
        ``addr_days`` is the ``shard_addr_days`` counter, the
        resilience fields are ``event_<kind>_total`` counters, and the
        run's shape comes from ``ctx.info``.  *ctx* must hold exactly
        one run, as the per-run context of
        :func:`~repro.obs.context.run_context` does.
        """
        phases = {
            phase: (
                ctx.spans.stats(f"collect/{phase}").wall_seconds
                if f"collect/{phase}" in ctx.spans
                else 0.0
            )
            for phase in ("plan", "routing", "simulate", "merge")
        }
        info = ctx.info
        totals = _resilience_totals(ctx)
        return cls(
            workers=info["workers"],
            shards=len(info["shard_map"]),
            num_blocks=info["num_blocks"],
            num_days=info["num_days"],
            addr_days=int(ctx.metrics.counter("shard_addr_days")),
            sim_seconds=phases["simulate"],
            merge_seconds=phases["merge"],
            routing_seconds=phases["routing"],
            total_seconds=sum(phases.values()),
            shards_retried=totals["retried"],
            shards_degraded=totals["degraded"],
            shards_resumed=totals["resumed"],
            shards_checkpointed=totals["checkpointed"],
        )

    @property
    def block_days(self) -> int:
        """Block-day simulation steps performed."""
        return self.num_blocks * self.num_days

    @property
    def block_days_per_second(self) -> float:
        return self.block_days / max(self.sim_seconds, 1e-9)

    @property
    def addr_days_per_second(self) -> float:
        """Active address-day observations produced per second."""
        return self.addr_days / max(self.sim_seconds, 1e-9)

    def as_dict(self) -> dict:
        """JSON-ready summary (consumed by tools/bench_record.py)."""
        return {
            "workers": self.workers,
            "shards": self.shards,
            "num_blocks": self.num_blocks,
            "num_days": self.num_days,
            "addr_days": self.addr_days,
            "sim_s": round(self.sim_seconds, 6),
            "merge_s": round(self.merge_seconds, 6),
            "routing_s": round(self.routing_seconds, 6),
            "total_s": round(self.total_seconds, 6),
            "block_days_per_s": round(self.block_days_per_second, 1),
            "addr_days_per_s": round(self.addr_days_per_second, 1),
            "shards_retried": self.shards_retried,
            "shards_degraded": self.shards_degraded,
            "shards_resumed": self.shards_resumed,
            "shards_checkpointed": self.shards_checkpointed,
        }


@dataclass
class ShardedOutcome:
    """Merged result of all shards (the coordinator adds routing)."""

    snapshots: list[Snapshot]
    ua_store: UASampleStore | None
    login_trace: list[tuple[np.ndarray, np.ndarray]] | None
    scan_states: dict[int, dict[int, tuple[PolicyKind, np.ndarray]]]
    final_kinds: dict[int, PolicyKind]
    perf: PerfCounters


def _partial_column(
    ips_parts: list[np.ndarray], hits_parts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated, hit-summed window column of one shard.

    Same algorithm as the pre-shard window snapshot: stable sort, run
    boundaries, ``bincount`` scatter-add.  Hits are integers far below
    2**53, so the ``float64`` accumulation is exact.
    """
    if not ips_parts:
        return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64)
    ips = np.concatenate(ips_parts)
    hits = np.concatenate(hits_parts).astype(np.float64)
    order = np.argsort(ips, kind="stable")
    ips = ips[order]
    hits = hits[order]
    boundary = np.empty(ips.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = ips[1:] != ips[:-1]
    group = np.cumsum(boundary) - 1
    summed = np.bincount(group, weights=hits)
    return ips[boundary], summed.astype(np.uint64)


def simulate_shard(task: ShardTask) -> ShardResult:
    """Run one shard's blocks day by day (the worker entry point).

    Mirrors the serial per-day loop exactly; every stream consumed here
    is keyed per block, so the result is independent of how blocks were
    grouped into shards.

    The shard also records a ``collect/shard/simulate`` span and its
    layout-invariant counters (``shard_addr_days``, ``shard_blocks``)
    into a shard-local context whose payload rides back on
    :attr:`ShardResult.obs`; summing those payloads across any shard
    layout reproduces the serial totals.  Recording touches no
    simulation stream.
    """
    if task.fault is not None and task.fault.should_fail(
        task.config.seed, task.shard_index, task.attempt
    ):
        raise InjectedWorkerFault(
            f"injected fault: shard {task.shard_index} attempt {task.attempt}"
        )
    ctx = ObsContext()
    with ctx.spans.span("collect/shard/simulate"):
        result = _simulate_shard_blocks(task)
    ctx.add("shard_addr_days", result.addr_days)
    ctx.add("shard_blocks", len(task.blocks))
    result.obs = ctx.to_payload()
    return result


def _validate_windowing(num_days: int, window_days: int) -> None:
    """Reject horizons whose tail would fall outside the last window.

    Activity accumulated after the last full ``window_days`` boundary
    used to be silently dropped when ``num_days % window_days != 0``;
    the engine now refuses such configurations outright, and it does so
    identically for serial, parallel, and resumed runs (the check runs
    before any shard is planned, loaded from a checkpoint, or
    simulated).
    """
    if window_days < 1:
        raise ConfigError(f"window_days must be >= 1: {window_days}")
    if num_days < 1:
        raise ConfigError(f"num_days must be >= 1: {num_days}")
    if num_days % window_days != 0:
        raise ConfigError(
            f"num_days ({num_days}) is not a multiple of window_days "
            f"({window_days}): the trailing {num_days % window_days} day(s) "
            "would never be flushed into a window column"
        )


def _day_tables(config: SimulationConfig, num_days: int) -> tuple[list[int], list[float]]:
    """Per-day weekday and traffic-scale tables for one horizon.

    Computed with the exact scalar expressions of the historical
    per-day loop (python-float power, not ``np.power``), so every
    downstream float operation sees bit-identical inputs.
    """
    day_of_weeks: list[int] = []
    traffic_scales: list[float] = []
    for day in range(num_days):
        date = config.start_date + datetime.timedelta(days=day)
        day_of_weeks.append(date.weekday())
        traffic_scales.append(config.traffic_weekly_growth ** (day / 7.0))
    return day_of_weeks, traffic_scales


class _ShardKernel:
    """The vectorized block-major kernel, resumable over a day range.

    Every random stream is private to one block (policy streams from
    ``Block.seed``, UA streams from :func:`block_ua_rng`), so the
    historical day-major loop can be transposed into a block-major one
    without touching any stream: each :meth:`advance` call splits every
    block's day range into segments at the call's edges and at the
    block's policy-change directives, each segment runs through the
    policy's batched :meth:`~repro.sim.policies.AddressPolicy.
    days_activity` (which draws day by day in the scalar call order but
    defers all deterministic math to columnar array ops), and the
    engine reduces the returned subscriber rows with ``bincount``
    scatter-adds:

    - window columns: one ``bincount`` per block-day, summed per
      window — hit counts are integers far below 2**53, so the float64
      accumulation is exact and grouping-order independent;
    - ``addr_days``: nonzero cells of the same bincounts;
    - login-panel rows: one batched :func:`hash_coin` over all rows
      (the coin is stateless), sliced back per day;
    - UA sampling: untouched per-day calls into :func:`sample_uas`
      with the day's row slice, preserving that stream's draw order.

    Each block's current policy, kind, and UA stream persist across
    calls, so stepping the horizon in any number of calls consumes
    every stream exactly as one whole-horizon call does: call edges are
    just more segment cut points.  Batch collection makes one call over
    ``[0, num_days)``; :class:`LiveShardSimulator` makes one per window
    on a serve tick and one per week of windows when it replays.

    Subscriber-id rows feed only UA sampling and the login panel, so a
    segment asks its policy for them (``with_ids``) only when it
    overlaps the UA window or the panel is on; every other segment,
    gateway /24s with their thousands of subscribers above all, reduces
    hits and offsets alone.

    :func:`_simulate_shard_blocks_reference` keeps the historical
    day-major loop as the test oracle; the equivalence tests hold the
    two paths bit-identical.
    """

    def __init__(self, task: ShardTask) -> None:
        num_days = task.num_days
        _validate_windowing(num_days, task.window_days)
        self._task = task
        self._day_of_weeks, self._traffic_scales = _day_tables(task.config, num_days)

        # Last directive per (block, day) wins, exactly as the scalar loop
        # applied same-day directives in order.  Intermediate and initial
        # policies a directive immediately replaces are never constructed:
        # construction only draws from the policy's private stream, so
        # skipping it is invisible to every other stream.  Change days
        # are sorted once here; each call only bisects them.
        changes: dict[int, dict[int, tuple[str, int]]] = {}
        for day, block_index, kind_value, salt in task.directives:
            if 0 <= day < num_days:
                changes.setdefault(block_index, {})[day] = (kind_value, salt)
        self._changes: dict[int, tuple[list[int], dict[int, tuple[str, int]]]] = {}
        for block in task.blocks:
            by_day = changes.get(block.index, {})
            self._changes[block.index] = (sorted(by_day), by_day)

        # Scenario hit-volume windows, precompiled to per-block day-factor
        # tables.  Blocks without a table take the exact historical path,
        # so the empty timeline cannot perturb a single bit.
        self._factor_tables = build_day_factor_tables(task.perturbations, num_days)
        self._scan_days = sorted(
            {day for day in task.scan_days if 0 <= day < num_days}
        )

        self._policies: dict[int, AddressPolicy] = {}
        self._kinds: dict[int, PolicyKind] = {
            block.index: block.kind for block in task.blocks
        }
        self._ua_rngs: dict[int, np.random.Generator] = {}
        self._ua_samples: dict[int, Counter] = {}
        self._login_parts: list[list[tuple[np.ndarray, np.ndarray]]] | None = (
            [[] for _ in range(num_days)] if task.login_panel_rate > 0 else None
        )
        self._scan_by_day: dict[int, dict[int, tuple[PolicyKind, np.ndarray]]] = {}
        num_windows = num_days // task.window_days
        self._window_ips_parts: list[list[np.ndarray]] = [[] for _ in range(num_windows)]
        self._window_hits_parts: list[list[np.ndarray]] = [
            [] for _ in range(num_windows)
        ]
        #: Active address-days simulated so far, in total and per window.
        self.addr_days = 0
        self.window_addr_days = [0] * num_windows
        #: First day not yet simulated.
        self.day = 0

    def advance(self, stop: int) -> None:
        """Simulate days ``[day, stop)`` of every block."""
        task = self._task
        config = task.config
        ua_window = task.ua_window
        login_parts = self._login_parts
        start = self.day
        for block in task.blocks:
            change_days, changes = self._changes[block.index]
            cuts = [
                start,
                *change_days[
                    bisect_right(change_days, start) : bisect_left(change_days, stop)
                ],
                stop,
            ]
            day_factors = self._factor_tables.get(block.index)
            policy = self._policies.get(block.index)
            kind = self._kinds[block.index]
            for seg_start, seg_end in zip(cuts, cuts[1:]):
                if seg_start in changes:
                    kind_value, salt = changes[seg_start]
                    kind = PolicyKind(kind_value)
                    policy = block.make_policy(config, kind=kind, salt=salt)
                elif policy is None:
                    policy = block.make_policy(config)
                rel_scans = [
                    day - seg_start
                    for day in self._scan_days
                    if seg_start <= day < seg_end
                ]
                in_ua = ua_window is not None and max(
                    ua_window[0], seg_start
                ) <= min(ua_window[1], seg_end - 1)
                activity = policy.days_activity(
                    self._day_of_weeks[seg_start:seg_end],
                    self._traffic_scales[seg_start:seg_end],
                    snapshot_days=rel_scans,
                    with_ids=in_ua or login_parts is not None,
                )
                for rel in rel_scans:
                    self._scan_by_day.setdefault(seg_start + rel, {})[block.index] = (
                        kind,
                        activity.snapshots[rel].copy(),
                    )
                rows = int(activity.day_starts[-1])
                if rows:
                    self._reduce_segment(block, activity, seg_start, seg_end, day_factors)
                if in_ua:
                    assert ua_window is not None and activity.sub_ids is not None
                    for day in range(
                        max(ua_window[0], seg_start), min(ua_window[1], seg_end - 1) + 1
                    ):
                        day_rows = activity.day_slice(day - seg_start)
                        if day_rows.start == day_rows.stop:
                            continue
                        rng = self._ua_rngs.get(block.index)
                        if rng is None:
                            rng = self._ua_rngs[block.index] = block_ua_rng(
                                config.seed, block.index
                            )
                        ua_ids = sample_uas(
                            rng,
                            activity.sub_ids[day_rows],
                            activity.sub_hits[day_rows],
                            config.ua_sample_rate,
                            bot_profile=(kind is PolicyKind.CRAWLER),
                        )
                        if ua_ids.size:
                            self._ua_samples.setdefault(block.base, Counter()).update(
                                ua_ids.tolist()
                            )
                if login_parts is not None and rows:
                    assert activity.sub_ids is not None
                    panel = hash_coin(
                        activity.sub_ids, LOGIN_PANEL_SALT, task.login_panel_rate
                    )
                    if panel.any():
                        for rel in range(seg_end - seg_start):
                            day_rows = activity.day_slice(rel)
                            if day_rows.start == day_rows.stop:
                                continue
                            mask = panel[day_rows]
                            if mask.any():
                                login_parts[seg_start + rel].append(
                                    (
                                        (
                                            block.base
                                            + activity.sub_offsets[day_rows][mask]
                                        ).astype(np.uint32),
                                        activity.sub_ids[day_rows][mask],
                                    )
                                )
            self._kinds[block.index] = kind
            if stop < task.num_days:
                # Only a horizon with days left needs the policy again.
                self._policies[block.index] = policy
        self.day = stop

    def _reduce_segment(
        self,
        block: Block,
        activity: DaysActivity,
        seg_start: int,
        seg_end: int,
        day_factors: np.ndarray | None,
    ) -> None:
        """Fold one segment's subscriber rows into the window columns.

        Day by day, as the reference loop: one ``bincount`` per
        block-day is that day's address column and its nonzero cells
        count toward ``addr_days``.  The day columns of a window are
        summed before they are stored — integer hit counts far below
        2**53, so the float64 sums are exact in any grouping.
        """
        window_days = self._task.window_days
        day_starts = activity.day_starts.tolist()
        column: np.ndarray | None = None
        for day in range(seg_start, seg_end):
            lo, hi = day_starts[day - seg_start], day_starts[day - seg_start + 1]
            if lo < hi:
                weights = activity.sub_hits[lo:hi]
                if day_factors is not None:
                    weights = perturb_hits(weights, day_factors[day])
                day_column = np.bincount(
                    activity.sub_offsets[lo:hi], weights=weights, minlength=BLOCK_SIZE
                )
                active = int(np.count_nonzero(day_column))
                self.addr_days += active
                self.window_addr_days[day // window_days] += active
                column = day_column if column is None else column + day_column
            if column is not None and (
                (day + 1) % window_days == 0 or day + 1 == seg_end
            ):
                offsets = column.nonzero()[0]
                if offsets.size:
                    window = day // window_days
                    self._window_ips_parts[window].append(
                        (block.base + offsets).astype(np.uint32)
                    )
                    self._window_hits_parts[window].append(column[offsets])
                column = None

    def take_column(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Reduce (and release) the accumulated parts of one window."""
        ips_parts = self._window_ips_parts[window]
        hits_parts = self._window_hits_parts[window]
        self._window_ips_parts[window] = []
        self._window_hits_parts[window] = []
        return _partial_column(ips_parts, hits_parts)

    def result(self) -> ShardResult:
        """Every artifact of the days simulated so far, as a shard result."""
        columns = [self.take_column(window) for window in range(len(self._window_ips_parts))]
        login_trace: list[tuple[np.ndarray, np.ndarray]] | None = None
        if self._login_parts is not None:
            login_trace = [
                (
                    np.concatenate([ips for ips, _ in parts]),
                    np.concatenate([users for _, users in parts]),
                )
                if parts
                else (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64))
                for parts in self._login_parts
            ]

        # Chronological day order, blocks in block order within a day —
        # the insertion order the day-major loop produced.
        scan_states = {day: self._scan_by_day[day] for day in sorted(self._scan_by_day)}

        return ShardResult(
            shard_index=self._task.shard_index,
            window_ips=[ips for ips, _ in columns],
            window_hits=[hits for _, hits in columns],
            ua_samples=self._ua_samples,
            login_trace=login_trace,
            scan_states=scan_states,
            final_kinds=dict(self._kinds),
            addr_days=self.addr_days,
        )


def _simulate_shard_blocks(task: ShardTask) -> ShardResult:
    """The whole shard horizon in one kernel call."""
    kernel = _ShardKernel(task)
    kernel.advance(task.num_days)
    return kernel.result()


def _simulate_shard_blocks_reference(task: ShardTask) -> ShardResult:
    """The historical day-major scalar loop, kept as the test oracle.

    The kernel (:class:`_ShardKernel`), in one call or split into many,
    must produce bit-identical :class:`ShardResult` payloads to this
    loop for every configuration — the property tests drive both and
    compare.  Slow; no production path calls it.
    """
    config = task.config
    _validate_windowing(task.num_days, task.window_days)
    blocks = task.blocks
    block_by_index = {block.index: block for block in blocks}
    policies: dict[int, AddressPolicy] = {
        block.index: block.make_policy(config) for block in blocks
    }
    current_kinds: dict[int, PolicyKind] = {block.index: block.kind for block in blocks}
    directives_by_day: dict[int, list[tuple[int, str, int]]] = {}
    for day, block_index, kind_value, salt in task.directives:
        directives_by_day.setdefault(day, []).append((block_index, kind_value, salt))
    factor_tables = build_day_factor_tables(task.perturbations, task.num_days)

    ua_rngs: dict[int, np.random.Generator] = {}
    ua_samples: dict[int, Counter] = {}
    login_trace: list[tuple[np.ndarray, np.ndarray]] | None = (
        [] if task.login_panel_rate > 0 else None
    )
    scan_day_set = set(task.scan_days)
    scan_states: dict[int, dict[int, tuple[PolicyKind, np.ndarray]]] = {}

    window_ips: list[np.ndarray] = []
    window_hits: list[np.ndarray] = []
    pending_ips: list[np.ndarray] = []
    pending_hits: list[np.ndarray] = []
    addr_days = 0

    for day in range(task.num_days):
        date = config.start_date + datetime.timedelta(days=day)
        day_of_week = date.weekday()
        traffic_scale = config.traffic_weekly_growth ** (day / 7.0)
        for block_index, kind_value, salt in directives_by_day.get(day, ()):
            block = block_by_index[block_index]
            kind = PolicyKind(kind_value)
            policies[block_index] = block.make_policy(config, kind=kind, salt=salt)
            current_kinds[block_index] = kind

        in_ua_window = (
            task.ua_window is not None
            and task.ua_window[0] <= day <= task.ua_window[1]
        )
        trace_ips: list[np.ndarray] = []
        trace_users: list[np.ndarray] = []
        for block in blocks:
            activity = policies[block.index].day_activity(day_of_week, traffic_scale)
            if not activity.offsets.size:
                continue
            day_factors = factor_tables.get(block.index)
            if day_factors is None:
                pending_ips.append(block.base + activity.offsets.astype(np.uint32))
                pending_hits.append(activity.hits)
                addr_days += int(activity.offsets.size)
            else:
                # Perturbed window column only: UA sampling and the
                # login panel below observe the unperturbed rows, so
                # every RNG stream keeps the scenario-free call order.
                per_offset = np.bincount(
                    activity.sub_offsets,
                    weights=perturb_hits(activity.sub_hits, day_factors[day]),
                    minlength=BLOCK_SIZE,
                )
                offsets = np.flatnonzero(per_offset)
                if offsets.size:
                    pending_ips.append(block.base + offsets.astype(np.uint32))
                    pending_hits.append(per_offset[offsets])
                    addr_days += int(offsets.size)
            if in_ua_window and activity.sub_ids.size:
                rng = ua_rngs.get(block.index)
                if rng is None:
                    rng = ua_rngs[block.index] = block_ua_rng(config.seed, block.index)
                ua_ids = sample_uas(
                    rng,
                    activity.sub_ids,
                    activity.sub_hits,
                    config.ua_sample_rate,
                    bot_profile=(current_kinds[block.index] is PolicyKind.CRAWLER),
                )
                if ua_ids.size:
                    ua_samples.setdefault(block.base, Counter()).update(ua_ids.tolist())
            if login_trace is not None and activity.sub_ids.size:
                panel = hash_coin(activity.sub_ids, LOGIN_PANEL_SALT, task.login_panel_rate)
                if panel.any():
                    trace_ips.append(
                        (block.base + activity.sub_offsets[panel]).astype(np.uint32)
                    )
                    trace_users.append(activity.sub_ids[panel])
        if login_trace is not None:
            if trace_ips:
                login_trace.append(
                    (np.concatenate(trace_ips), np.concatenate(trace_users))
                )
            else:
                login_trace.append(
                    (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64))
                )
        if day in scan_day_set:
            scan_states[day] = {
                block.index: (
                    current_kinds[block.index],
                    policies[block.index].assigned_offsets().copy(),
                )
                for block in blocks
            }
        if (day + 1) % task.window_days == 0:
            ips, hits = _partial_column(pending_ips, pending_hits)
            window_ips.append(ips)
            window_hits.append(hits)
            pending_ips, pending_hits = [], []

    return ShardResult(
        shard_index=task.shard_index,
        window_ips=window_ips,
        window_hits=window_hits,
        ua_samples=ua_samples,
        login_trace=login_trace,
        scan_states=scan_states,
        final_kinds=current_kinds,
        addr_days=addr_days,
    )


class LiveShardSimulator:
    """Window-at-a-time cursor over the batch kernel.

    The live-observatory service (``repro serve``) collects the horizon
    one interval at a time instead of all at once; this class is the
    single-interval entry point into the engine.  Each
    :meth:`advance_window` call returns one window column of the same
    :class:`_ShardKernel` batch collection runs, and the kernel carries
    every block's policy and kind across calls, so interval ``w`` of a
    live run is bit-identical to window ``w`` of a batch
    :func:`run_sharded_collection` over the same blocks.

    Catch-up after a crash is a replay from day zero: every stream is
    keyed by block seed, so re-stepping a fresh simulator through the
    already-committed intervals reproduces their columns bit for bit.
    Replay runs the kernel in its batch regime: once :meth:`replay_through`
    names the committed windows, a call that finds its window not yet
    simulated steps the kernel up to :data:`REPLAY_STEP_DAYS` days of
    whole windows ahead (at least one, never past the committed ones)
    and buffers the columns it did not return.  Calls still return one
    column each, so the caller verifies window by window.  Past the
    committed windows every call steps exactly one window: a tick never
    simulates a day it does not commit.  :attr:`windows_done`,
    :attr:`addr_days` and :attr:`exhausted` count returned windows
    only, never the look-ahead.

    The per-interval artifacts deliberately exclude UA sampling, scan
    snapshots, and login traces — the live service collects none of
    them; requesting them belongs to batch runs.
    """

    def __init__(
        self,
        config: SimulationConfig,
        blocks: tuple[Block, ...],
        num_days: int,
        window_days: int,
        directives: tuple[Directive, ...],
        perturbations: tuple[Perturbation, ...] = (),
    ) -> None:
        self._kernel = _ShardKernel(
            ShardTask(
                shard_index=0,
                config=config,
                blocks=tuple(blocks),
                num_days=num_days,
                window_days=window_days,
                ua_window=None,
                scan_days=(),
                login_panel_rate=0.0,
                directives=tuple(directives),
                perturbations=tuple(perturbations),
            )
        )
        self._num_days = num_days
        self._window_days = window_days
        self._windows_done = 0
        self._addr_days = 0
        self._replay_windows = 0

    @property
    def num_windows(self) -> int:
        return self._num_days // self._window_days

    @property
    def windows_done(self) -> int:
        """Windows whose column has been returned."""
        return self._windows_done

    @property
    def exhausted(self) -> bool:
        return self._windows_done >= self.num_windows

    @property
    def addr_days(self) -> int:
        """Active address-days of the returned windows (the perf counter)."""
        return self._addr_days

    def replay_through(self, windows: int) -> None:
        """Declare the first *windows* windows committed: replay may
        simulate ahead of the caller up to their end."""
        self._replay_windows = max(self._replay_windows, min(windows, self.num_windows))

    def advance_window(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next window's column, simulating it if needed.

        The returned ``(ips, hits)`` pair is the sorted sparse window
        column — exactly what one snapshot of a batch run holds for
        this window.  Raises :class:`~repro.errors.CollectionError`
        once the configured horizon is exhausted.
        """
        if self.exhausted:
            raise CollectionError(
                f"collection horizon exhausted: all {self._num_days} days "
                "have been simulated"
            )
        kernel = self._kernel
        window = self._windows_done
        if kernel.day <= window * self._window_days:
            step = max(1, REPLAY_STEP_DAYS // self._window_days)
            stop = max(window + 1, min(window + step, self._replay_windows))
            kernel.advance(stop * self._window_days)
        self._windows_done = window + 1
        self._addr_days += kernel.window_addr_days[window]
        return kernel.take_column(window)


@dataclass(frozen=True)
class ShardProgress:
    """One heartbeat of a running collection (the ``--progress`` feed).

    Emitted to the caller's progress callback every time a shard
    finishes — whether simulated, loaded from a checkpoint, or rescued
    in-process — together with the run's resilience totals so far, read
    from the ``event_<kind>_total`` counters of its observation context.
    """

    done: int
    total: int
    retried: int = 0
    degraded: int = 0
    resumed: int = 0
    checkpointed: int = 0


def _backoff_seconds(attempt: int, base: float) -> float:
    """Capped exponential backoff before retrying attempt+1."""
    if base <= 0:
        return 0.0
    return min(base * (2**attempt), MAX_BACKOFF_SECONDS)


def _degrade_in_process(
    task: ShardTask, error: BaseException, max_retries: int
) -> ShardResult:
    """Last resort for a shard that exhausted its worker retries.

    The shard runs on the coordinator with fault injection stripped —
    injected faults model *worker* crashes, and the coordinator
    surviving is precisely what graceful degradation means.  A fault
    plan with ``fail_in_process=True`` opts out of this rescue, which
    is how tests and CI deterministically "kill" a run mid-way.
    """
    fault = task.fault
    if (
        fault is not None
        and fault.fail_in_process
        and fault.selected(task.config.seed, task.shard_index)
    ):
        raise CollectionError(
            f"shard {task.shard_index} failed {max_retries + 1} worker attempts "
            "and in-process recovery is disabled by the fault plan"
        ) from error
    obs_api.event("degrade", shard=task.shard_index, error=type(error).__name__)
    try:
        return simulate_shard(replace(task, fault=None, attempt=0))
    except RETRYABLE_WORKER_ERRORS as exc:
        raise CollectionError(
            f"shard {task.shard_index} failed {max_retries + 1} worker attempts "
            "and the in-process fallback also failed"
        ) from exc
    except Exception as exc:
        # Not a worker-boundary failure: a simulation bug must surface
        # as itself, recorded for the run's audit trail (rule E303).
        obs_api.event(
            "degrade_failed", shard=task.shard_index, error=type(exc).__name__
        )
        raise


def _after_failure(
    index: int,
    attempt: int,
    error: Exception,
    can_retry: bool,
    retry_backoff: float,
) -> str:
    """The retry policy of both shard loops, after a worker attempt failed.

    Returns ``"retry"`` once the retry is recorded and its backoff slept,
    ``"degrade"`` when the shard goes to the in-process fallback (a
    retryable error with no retry left), and ``"raise"`` for any other
    error: that is a simulation bug, recorded for the audit trail, and
    the caller re-raises it as itself (rule E303).
    """
    if not isinstance(error, RETRYABLE_WORKER_ERRORS):
        obs_api.event("worker_error", shard=index, error=type(error).__name__)
        return "raise"
    if not can_retry:
        return "degrade"
    obs_api.event(
        "retry", shard=index, attempt=attempt + 1, error=type(error).__name__
    )
    time.sleep(_backoff_seconds(attempt, retry_backoff))
    return "retry"


def _run_shards_parallel(
    tasks: list[ShardTask],
    todo: list[int],
    workers: int,
    max_retries: int,
    retry_backoff: float,
    on_complete,
) -> tuple[dict[int, ShardResult], list[tuple[int, BaseException]]]:
    """Execute *todo* shards across worker processes with retries.

    Returns ``(results by shard position, irrecoverably failed)``.
    Failures are retried with capped exponential backoff up to
    *max_retries* times; a broken pool (worker killed by the OS rather
    than raising) stops resubmission and routes every unfinished shard
    to the caller's in-process degradation path.
    """
    results: dict[int, ShardResult] = {}
    failed: list[tuple[int, BaseException]] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
        inflight = {
            pool.submit(simulate_shard, tasks[index]): (index, 0) for index in todo
        }
        broken = False
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done:
                index, attempt = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    failed.append((index, exc))
                    continue
                except Exception as exc:
                    verdict = _after_failure(
                        index, attempt, exc,
                        not broken and attempt < max_retries, retry_backoff,
                    )
                    if verdict == "raise":
                        raise
                    if verdict == "degrade":
                        failed.append((index, exc))
                        continue
                    retry = replace(tasks[index], attempt=attempt + 1)
                    try:
                        inflight[pool.submit(simulate_shard, retry)] = (
                            index,
                            attempt + 1,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        broken = True
                        failed.append((index, exc))
                    continue
                results[index] = result
                on_complete(index, result)
    return results, failed


def run_sharded_collection(
    population: InternetPopulation,
    num_days: int,
    window_days: int,
    ua_window: tuple[int, int] | None,
    scan_days: tuple[int, ...],
    login_panel_rate: float,
    directives: tuple[Directive, ...],
    workers: int,
    perturbations: tuple[Perturbation, ...] = (),
    max_retries: int = 2,
    retry_backoff: float = 0.1,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    fault: FaultInjection | None = None,
    obs: ObsContext | None = None,
    progress=None,
) -> ShardedOutcome:
    """Simulate all blocks across *workers* processes and merge.

    With ``workers=1`` the single shard runs in-process (serial
    fallback: no executor, no pickling).  The merged outcome is
    bit-identical for any worker count — see the module docstring for
    why each artifact is shard-invariant.

    Fault tolerance: a failed worker attempt is retried up to
    *max_retries* times (capped exponential backoff starting at
    *retry_backoff* seconds); a shard that exhausts its retries runs
    in-process on the coordinator.  With *checkpoint_dir* set, every
    finished shard is persisted atomically; *resume* additionally
    loads matching checkpoints first and simulates only the remainder.
    *fault* installs a deterministic injected-failure plan (tests/CI).

    Observability: the run always records into its own fresh
    :class:`~repro.obs.context.ObsContext` — coordinator spans
    (``collect/simulate``, ``collect/merge``), run identity in
    ``info``, retry/degrade/resume/checkpoint events, and, merged in
    shard order so the result is deterministic, every worker's
    shard-local payload.  The outcome's :class:`PerfCounters` is
    derived from that context, and the context is merged into *obs*
    when one is given.  *progress* (a callable taking one
    :class:`ShardProgress`) is invoked each time a shard finishes,
    however it finished.  None of this touches any random stream.

    The merge consumes the shard results' window columns: each window
    is unioned across shards and its shard columns are released before
    the next window is merged, so the merge holds the merged dataset
    plus the shard columns not yet merged, never both in full.
    """
    config = population.config
    blocks = population.blocks
    _validate_windowing(num_days, window_days)
    if max_retries < 0:
        raise ConfigError(f"max_retries must be >= 0: {max_retries}")
    if retry_backoff < 0:
        raise ConfigError(f"retry_backoff must be >= 0: {retry_backoff}")
    if resume and checkpoint_dir is None:
        raise ConfigError("resume requires a checkpoint directory")
    bounds = plan_shards(len(blocks), workers)
    tasks: list[ShardTask] = []
    for shard_index, (start, stop) in enumerate(bounds):
        shard_blocks = tuple(blocks[start:stop])
        members = {block.index for block in shard_blocks}
        tasks.append(
            ShardTask(
                shard_index=shard_index,
                config=config,
                blocks=shard_blocks,
                num_days=num_days,
                window_days=window_days,
                ua_window=ua_window,
                scan_days=scan_days,
                login_panel_rate=login_panel_rate,
                directives=tuple(d for d in directives if d[1] in members),
                perturbations=tuple(
                    (start, stop, factor, tuple(i for i in indexes if i in members))
                    for start, stop, factor, indexes in perturbations
                    if any(i in members for i in indexes)
                ),
                fault=fault,
            )
        )

    with obs_api.run_context(obs) as run_ctx:
        fingerprint = run_fingerprint(
            config,
            num_days,
            window_days,
            ua_window,
            scan_days,
            login_panel_rate,
            directives,
            perturbations,
        )
        run_ctx.info.update(
            seed=config.seed,
            workers=workers,
            num_days=num_days,
            window_days=window_days,
            num_blocks=len(blocks),
            shard_map=[[start, stop] for start, stop in bounds],
            fingerprint=fingerprint,
        )
        results_by_index: dict[int, ShardResult] = {}

        def checkpoint(index: int, result: ShardResult) -> None:
            if checkpoint_dir is not None:
                save_shard_checkpoint(checkpoint_dir, fingerprint, tasks[index], result)

        done_cell = [0]

        def heartbeat() -> None:
            # Called exactly once per finished shard (simulated, resumed,
            # or degraded), including from the parallel completion loop
            # where results have not landed in results_by_index yet.
            done_cell[0] += 1
            if progress is not None:
                progress(
                    ShardProgress(
                        done=done_cell[0],
                        total=len(tasks),
                        **_resilience_totals(run_ctx),
                    )
                )

        with obs_api.span("collect/simulate"):
            if checkpoint_dir is not None and resume:
                for index, task in enumerate(tasks):
                    loaded = load_shard_checkpoint(checkpoint_dir, fingerprint, task)
                    if loaded is not None:
                        results_by_index[index] = loaded
                        # A resumed shard ships no worker payload
                        # (nothing was simulated), so the coordinator
                        # contributes its layout-invariant counters to
                        # keep the run totals whole.
                        run_ctx.event("resume", shard=index)
                        run_ctx.add("shard_addr_days", loaded.addr_days)
                        run_ctx.add("shard_blocks", len(task.blocks))
                        heartbeat()

            todo = [
                index for index in range(len(tasks)) if index not in results_by_index
            ]
            failed: list[tuple[int, BaseException]] = []
            if todo:
                if workers == 1 or len(todo) == 1:
                    # Serial order: a shard's retries finish before the
                    # next shard starts.
                    for index in todo:
                        attempt = 0
                        while True:
                            try:
                                result = simulate_shard(
                                    replace(tasks[index], attempt=attempt)
                                )
                            except Exception as exc:
                                verdict = _after_failure(
                                    index, attempt, exc,
                                    attempt < max_retries, retry_backoff,
                                )
                                if verdict == "raise":
                                    raise
                                if verdict == "retry":
                                    attempt += 1
                                    continue
                                failed.append((index, exc))
                                break
                            results_by_index[index] = result
                            checkpoint(index, result)
                            heartbeat()
                            break
                else:
                    def on_complete(index: int, result: ShardResult) -> None:
                        checkpoint(index, result)
                        heartbeat()

                    parallel_results, failed = _run_shards_parallel(
                        tasks, todo, workers, max_retries, retry_backoff, on_complete
                    )
                    results_by_index.update(parallel_results)

            # Degradation pass after the pool drained: every healthy
            # shard has already finished (and checkpointed), so even if
            # a degraded shard turns out fatal, the maximum of
            # completed work survives on disk for a --resume restart.
            for index, error in failed:
                result = _degrade_in_process(tasks[index], error, max_retries)
                results_by_index[index] = result
                checkpoint(index, result)
                heartbeat()

            results = [results_by_index[index] for index in range(len(tasks))]

        # Fold worker payloads in shard order — not completion order — so
        # the merged context is deterministic for a given shard layout.
        for result in results:
            if result.obs is not None:
                run_ctx.merge_payload(result.obs)

        with obs_api.span("collect/merge"):
            num_windows = num_days // window_days
            snapshots: list[Snapshot] = []
            window_start = config.start_date
            for _ in range(num_windows):
                # pop(0) hands each shard's next column to the union and
                # drops the result's reference to it, so a column is
                # freed as soon as its window is merged.
                ips, hits = kway_union_columns(
                    [result.window_ips.pop(0) for result in results],
                    [result.window_hits.pop(0) for result in results],
                )
                snapshots.append(Snapshot(window_start, window_days, ips, hits))
                window_start += datetime.timedelta(days=window_days)

            ua_store: UASampleStore | None = None
            if ua_window is not None:
                ua_store = UASampleStore()
                for result in results:
                    for base, counter in result.ua_samples.items():
                        ua_store.samples.setdefault(base, Counter()).update(counter)

            login_trace: list[tuple[np.ndarray, np.ndarray]] | None = None
            if login_panel_rate > 0:
                login_trace = []
                for day in range(num_days):
                    pairs = [result.login_trace[day] for result in results]
                    day_ips = [ips for ips, _ in pairs if ips.size]
                    day_users = [users for _, users in pairs if users.size]
                    if day_ips:
                        login_trace.append(
                            (np.concatenate(day_ips), np.concatenate(day_users))
                        )
                    else:
                        login_trace.append(
                            (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64))
                        )

            scan_states: dict[int, dict[int, tuple[PolicyKind, np.ndarray]]] = {}
            final_kinds: dict[int, PolicyKind] = {}
            for result in results:
                for day, states in result.scan_states.items():
                    scan_states.setdefault(day, {}).update(states)
                final_kinds.update(result.final_kinds)

    perf = PerfCounters.from_context(run_ctx)
    return ShardedOutcome(
        snapshots=snapshots,
        ua_store=ua_store,
        login_trace=login_trace,
        scan_states=scan_states,
        final_kinds=final_kinds,
        perf=perf,
    )
