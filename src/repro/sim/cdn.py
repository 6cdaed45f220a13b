"""The CDN observatory: turning the synthetic world into server logs.

This is the measurement instrument of the paper (Sec. 3.2): every day,
each client address that completes a WWW transaction appears in the
logs with its request count.  :class:`CDNObservatory` runs the world
day by day — applying scheduled restructurings, evolving the routing
table, sampling User-Agents — and emits the same aggregates the paper's
data-collection framework provides:

- an :class:`~repro.core.dataset.ActivityDataset` (daily or weekly
  windows), merged in memory; :mod:`repro.core.io` saves it as one
  ``.npz`` or as a sharded store,
- a :class:`~repro.routing.series.RoutingSeries` of daily RIB
  snapshots,
- a :class:`~repro.sim.useragents.UASampleStore` for the sampled
  User-Agent window,
- per-day assignment state on requested scan days (consumed by the
  ICMP scanner, which probes the same world).

The observatory is split into a coordinator (this module: schedule,
BGP noise, routing-table evolution) and the sharded block-simulation
engine (:mod:`repro.sim.engine`), which runs the per-/24 policy loops
across worker processes.  ``collect_daily(..., workers=N)`` produces
bit-identical output for every ``N`` — see the engine's docstring for
the determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import ActivityDataset
from repro.errors import ConfigError
from repro.obs import context as obs_api
from repro.obs.context import ObsContext
from repro.routing.series import RoutingSeries
from repro.routing.table import RoutingTable
from repro.sim.engine import (
    COLLECT_STREAM_SALT,
    Directive,
    FaultInjection,
    PerfCounters,
    run_sharded_collection,
)
from repro.sim.policies import PolicyKind
from repro.sim.population import InternetPopulation
from repro.sim.restructure import (
    RestructureEvent,
    RestructureSchedule,
    build_schedule,
)
from repro.sim.scenario import Perturbation, Scenario, compile_scenario
from repro.sim.useragents import UASampleStore

#: Offset added to an AS number to form its post-event sibling origin.
_SIBLING_ASN_OFFSET = 30000


def _schedule_cover(population: InternetPopulation, event: RestructureEvent):
    """Smallest prefix covering an event's blocks."""
    ips = []
    for index in event.block_indexes:
        base = population.blocks[index].base
        ips.extend((base, base + 255))
    from repro.net.prefix import smallest_covering_prefix

    return smallest_covering_prefix(np.asarray(ips, dtype=np.uint32))


@dataclass
class CollectionPlan:
    """The coordinator-only inputs of one collection run.

    Built once per run by :func:`plan_collection` — the schedule and
    noise streams are spawned exactly as every prior release spawned
    them, so a plan consumed by the batch engine and a plan consumed
    interval by interval by the live service drive identical runs.
    """

    schedule: RestructureSchedule
    directives: tuple[Directive, ...]
    noise_rng: np.random.Generator
    #: Compiled scenario hit-volume windows (``()`` without a scenario).
    perturbations: tuple[Perturbation, ...] = ()


def plan_collection(
    population: InternetPopulation,
    num_days: int,
    scenario: Scenario | None = None,
) -> CollectionPlan:
    """Derive one run's schedule, directives, and noise stream.

    This is the deterministic preamble of every collection run: the
    root stream is keyed by ``(seed, COLLECT_STREAM_SALT)``, the
    schedule is drawn first, and the noise stream is the second child —
    the exact spawn order of the historical single-threaded releases,
    which the golden-run digest pins.

    A *scenario* (:mod:`repro.sim.scenario`) is compiled *after* that
    preamble, against the schedule's own directives, and consumes no
    RNG — so a run with an empty timeline is bit-identical to a run
    with no scenario at all, and scenario directives appended after the
    schedule's win same-day conflicts exactly as the engine applies
    them.  Scenario events are BGP-invisible: the routing evolution
    sees only the schedule, so the RIB series is scenario-independent.
    """
    config = population.config
    root = np.random.SeedSequence([config.seed, COLLECT_STREAM_SALT])
    # Three children keep the schedule and noise streams identical
    # to earlier single-threaded releases; the third seeded the
    # retired shared UA stream (UA draws are now per block, keyed
    # by block index — see engine.block_ua_rng).
    schedule_seed, noise_seed, _retired_ua_seed = root.spawn(3)
    schedule = build_schedule(
        population, num_days, np.random.default_rng(schedule_seed)
    )
    noise_rng = np.random.default_rng(noise_seed)
    directives: list[Directive] = []
    for event in schedule.events:
        assert event.new_policy_kind is not None
        for index in event.block_indexes:
            directives.append(
                (event.day, index, event.new_policy_kind.value, event.salt)
            )
    perturbations: tuple[Perturbation, ...] = ()
    if scenario is not None and scenario.events:
        scenario_plan = compile_scenario(
            scenario, population, num_days, tuple(directives)
        )
        directives.extend(scenario_plan.directives)
        perturbations = scenario_plan.perturbations
    return CollectionPlan(
        schedule=schedule,
        directives=tuple(directives),
        noise_rng=noise_rng,
        perturbations=perturbations,
    )


class RoutingEvolution:
    """Day-by-day routing-table evolution (coordinator-only state).

    Consumes the schedule's BGP-visible events and the background noise
    stream, one day per :meth:`step` — the batch coordinator steps it
    through the whole horizon at once, the live service steps it one
    interval at a time, and both walks produce the identical table
    series (every draw comes from the plan's noise stream in day
    order).

    Consecutive unchanged days share the *same* table object; the RIB
    series renderer relies on that identity for its ``=== day N same``
    compression.
    """

    def __init__(
        self,
        population: InternetPopulation,
        schedule: RestructureSchedule,
        noise_rng: np.random.Generator,
    ) -> None:
        self._population = population
        self._config = population.config
        self._events_by_day = schedule.by_day()
        self._noise_rng = noise_rng
        self._current = population.baseline_routing()
        self._preannounce_event_covers(schedule, self._current)
        self.tables: list[RoutingTable] = []

    @property
    def days_done(self) -> int:
        return len(self.tables)

    def step(self) -> RoutingTable:
        """Evolve one day; append and return that day's table."""
        day = len(self.tables)
        table_changed = False
        for event in self._events_by_day.get(day, ()):
            if event.bgp_visible:
                if not table_changed:
                    self._current = self._current.copy()
                    table_changed = True
                self._apply_bgp_effect(event, self._current, self._noise_rng)
        self._current, table_changed = self._apply_bgp_noise(
            self._current, self._noise_rng, table_changed
        )
        if table_changed or not self.tables:
            self.tables.append(self._current)
        else:
            self.tables.append(self.tables[-1])
        return self.tables[-1]

    def run(self, num_days: int) -> list[RoutingTable]:
        """Step through *num_days* days and return the table series."""
        for _ in range(num_days):
            self.step()
        return self.tables

    def _apply_bgp_effect(
        self,
        event: RestructureEvent,
        table: RoutingTable,
        rng: np.random.Generator,
    ) -> None:
        """Realise an event's routing footprint on the live table.

        The footprint is always the event's covering prefix (which was
        pre-announced for origin/withdraw effects), so a routing change
        never spills over onto addresses the event did not touch.
        """
        cover = _schedule_cover(self._population, event)
        first_block = self._population.blocks[event.block_indexes[0]]
        if event.bgp_effect == "announce":
            if table.origin_of_prefix(cover) is None:
                table.announce(cover, first_block.asn)
            else:
                table.announce(cover, first_block.asn + _SIBLING_ASN_OFFSET)
        elif event.bgp_effect == "withdraw":
            if cover in table:
                table.withdraw(cover)
        elif event.bgp_effect == "origin":
            old = table.origin_of_prefix(cover)
            if old is None:
                table.announce(cover, first_block.asn + _SIBLING_ASN_OFFSET)
            else:
                table.announce(cover, old + _SIBLING_ASN_OFFSET)

    def _preannounce_event_covers(
        self, schedule: RestructureSchedule, table: RoutingTable
    ) -> None:
        """Announce, at day 0, the cover prefixes of events whose BGP
        footprint needs an existing route (origin change, withdraw).

        The pre-announcement uses the block's own AS, so day-0 origin
        attribution is unchanged; the event day then produces exactly
        one ORIGIN_CHANGE or WITHDRAW on that prefix.
        """
        for event in schedule.events:
            if event.bgp_effect not in ("origin", "withdraw"):
                continue
            cover = _schedule_cover(self._population, event)
            if table.origin_of_prefix(cover) is None:
                asn = self._population.blocks[event.block_indexes[0]].asn
                table.announce(cover, asn)

    def _apply_bgp_noise(
        self,
        table: RoutingTable,
        rng: np.random.Generator,
        already_copied: bool,
    ) -> tuple[RoutingTable, bool]:
        """Unrelated background routing churn (rare, Fig. 5c baseline).

        Returns ``(table, changed)``; the table is copied first when
        this day's snapshot has not been forked from yesterday's yet.
        """
        probability = self._config.bgp_background_daily
        if probability <= 0:
            return table, already_copied
        count = rng.binomial(len(table), probability)
        if count == 0:
            return table, already_copied
        if not already_copied:
            table = table.copy()
        prefixes = table.prefixes()
        for _ in range(int(count)):
            prefix = prefixes[int(rng.integers(0, len(prefixes)))]
            origin = table.origin_of_prefix(prefix)
            if origin is None:
                continue
            roll = rng.random()
            if roll < 0.6:
                table.announce(prefix, origin + _SIBLING_ASN_OFFSET)
            elif roll < 0.8:
                table.withdraw(prefix)
            else:
                subnets = list(prefix.subnets(min(prefix.masklen + 1, 32)))
                table.announce(subnets[0], origin)
        return table, True


@dataclass
class CollectionResult:
    """Everything one observatory run produces.

    :attr:`dataset` is always the merged in-memory dataset; a caller
    that wants it as a sharded store writes it with
    :func:`~repro.core.io.save_store`.
    """

    dataset: ActivityDataset
    routing: RoutingSeries
    schedule: RestructureSchedule
    ua_store: UASampleStore | None
    scan_states: dict[int, dict[int, tuple[PolicyKind, np.ndarray]]] = field(
        default_factory=dict
    )
    final_kinds: dict[int, PolicyKind] = field(default_factory=dict)
    #: Per day, the (addresses, user ids) of panel subscribers seen
    #: that day; ``None`` unless a login panel was requested.
    login_trace: list[tuple[np.ndarray, np.ndarray]] | None = None
    #: Wall-clock and throughput counters of the run.
    perf: PerfCounters | None = None

    @property
    def num_days(self) -> int:
        return self.schedule.num_days


class CDNObservatory:
    """Runs the world and collects logs, deterministically per config."""

    def __init__(self, population: InternetPopulation) -> None:
        self.population = population
        self.config = population.config

    # -- public API --------------------------------------------------------

    def collect_daily(
        self,
        num_days: int,
        ua_window: tuple[int, int] | None = None,
        scan_days: tuple[int, ...] = (),
        login_panel_rate: float = 0.0,
        workers: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        fault: FaultInjection | None = None,
        obs: ObsContext | None = None,
        progress=None,
        scenario: Scenario | None = None,
    ) -> CollectionResult:
        """Run *num_days* days and return daily snapshots.

        ``scenario`` injects a declarative timeline of exogenous events
        (:mod:`repro.sim.scenario`) — outages, CGNAT consolidation,
        lockdown shifts, scanner storms — compiled deterministically
        into directives and hit-volume perturbations.  An empty
        timeline (or ``None``) leaves the run bit-identical to a
        scenario-free one.

        ``login_panel_rate`` > 0 additionally records a login trace — a
        per-day (address, user) sample for a fixed panel of subscribers
        — the input shape of UDmap-style dynamic-address inference
        (Xie et al., discussed in the paper's related work).

        ``workers`` > 1 shards the block simulation across that many
        processes; the output is bit-identical to ``workers=1``.

        Failed workers are retried up to ``max_retries`` times before
        the shard degrades to in-process execution.  With
        ``checkpoint_dir`` set, finished shards are checkpointed
        atomically; ``resume=True`` loads matching checkpoints and
        simulates only the remainder — the restarted run's output is
        bit-identical to an uninterrupted one.  ``fault`` installs a
        deterministic :class:`~repro.sim.engine.FaultInjection` plan
        (tests/CI only).

        ``obs`` (an :class:`~repro.obs.context.ObsContext`) records the
        run's spans, counters, and events — see
        :func:`~repro.sim.engine.run_sharded_collection`; ``progress``
        is called with one :class:`~repro.sim.engine.ShardProgress` per
        finished shard.  Neither affects the collected output.
        """
        return self._collect(
            num_days,
            1,
            ua_window,
            scan_days,
            login_panel_rate,
            workers,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            fault=fault,
            obs=obs,
            progress=progress,
            scenario=scenario,
        )

    def collect_weekly(
        self,
        num_weeks: int,
        ua_window: tuple[int, int] | None = None,
        scan_days: tuple[int, ...] = (),
        workers: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        fault: FaultInjection | None = None,
        obs: ObsContext | None = None,
        progress=None,
        scenario: Scenario | None = None,
    ) -> CollectionResult:
        """Run ``7 * num_weeks`` days, aggregating each week on the fly.

        Weekly aggregation happens during collection (the union of a
        week's active addresses, summed hits), so a year-long run never
        materialises per-day columns — the same shape as the paper's
        weekly dataset (Table 1).  Retry, checkpoint, and resume
        behave exactly as in :meth:`collect_daily`.
        """
        return self._collect(
            num_weeks * 7,
            7,
            ua_window,
            scan_days,
            0.0,
            workers,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            fault=fault,
            obs=obs,
            progress=progress,
            scenario=scenario,
        )

    # -- internals -----------------------------------------------------------

    def _collect(
        self,
        num_days: int,
        window_days: int,
        ua_window: tuple[int, int] | None,
        scan_days: tuple[int, ...],
        login_panel_rate: float = 0.0,
        workers: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        fault: FaultInjection | None = None,
        obs: ObsContext | None = None,
        progress=None,
        scenario: Scenario | None = None,
    ) -> CollectionResult:
        if not 0.0 <= login_panel_rate <= 1.0:
            raise ConfigError(f"login_panel_rate must be a probability: {login_panel_rate}")
        if num_days <= 0 or num_days % window_days:
            raise ConfigError(
                f"num_days={num_days} must be a positive multiple of window_days={window_days}"
            )
        if workers < 1:
            raise ConfigError(f"workers must be >= 1: {workers}")
        if ua_window is not None:
            first, last = ua_window
            if not 0 <= first <= last < num_days:
                raise ConfigError(f"ua_window {ua_window} outside run of {num_days} days")
        for day in scan_days:
            if not 0 <= day < num_days:
                raise ConfigError(f"scan day {day} outside run of {num_days} days")

        population = self.population
        with obs_api.run_context(obs) as run_ctx:
            with obs_api.span("collect/plan"):
                plan = plan_collection(population, num_days, scenario=scenario)
            schedule = plan.schedule
            with obs_api.span("collect/routing"):
                routing_tables = RoutingEvolution(
                    population, schedule, plan.noise_rng
                ).run(num_days)
            outcome = run_sharded_collection(
                population,
                num_days=num_days,
                window_days=window_days,
                ua_window=ua_window,
                scan_days=scan_days,
                login_panel_rate=login_panel_rate,
                directives=plan.directives,
                perturbations=plan.perturbations,
                workers=workers,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                fault=fault,
                obs=run_ctx,
                progress=progress,
            )
        return CollectionResult(
            dataset=ActivityDataset(outcome.snapshots),
            routing=RoutingSeries(routing_tables),
            schedule=schedule,
            ua_store=outcome.ua_store,
            scan_states=outcome.scan_states,
            final_kinds=outcome.final_kinds,
            login_trace=outcome.login_trace,
            perf=PerfCounters.from_context(run_ctx),
        )

    def schedule_cover(self, event: RestructureEvent):
        """Smallest prefix covering an event's blocks (helper for tests)."""
        return _schedule_cover(self.population, event)
