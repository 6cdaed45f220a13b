"""The observatory service: one interval per tick, crash-safe.

:class:`ObservatoryService` is the scheduler at the heart of ``repro
serve``.  Each tick it:

1. steps the batch collection kernel one window interval
   (:class:`~repro.sim.engine.LiveShardSimulator`) and the routing
   evolution the matching number of days;
2. commits the interval's column to the live store through
   :class:`~repro.core.store.StoreAppender` (the interval's own
   files, then one atomic replace of the root manifest);
3. folds the column into the incremental analyses: the metrics fold
   every metrics path runs (:class:`~repro.core.metrics.IncrementalBlockMetrics`)
   and :class:`~repro.core.churn.IncrementalChurn`, which counts the
   previous column against the new one with churn's one overlap
   counter;
4. rewrites the rolling run manifest beside the store; its dataset
   SHA-256 (``null`` until then) and the routing RIB are written by
   the tick that completes the horizon, as both grow with history;
5. publishes a rendered metrics snapshot for the scrape endpoint (the
   live :class:`~repro.obs.context.ObsContext` is not thread-safe, so
   the HTTP thread only ever sees finished strings).

**Catch-up**: on start the service replays the already-committed
intervals through the same kernel — every stream is keyed per block, so
replay reproduces the committed columns bit for bit (and verifies each
one against the store) — then resumes collecting where the store left
off.
Replay steps the kernel up to a week of committed windows per call
(:data:`~repro.sim.engine.REPLAY_STEP_DAYS`); a tick steps one window.
A run killed at any instant therefore converges to the identical
dataset SHA-256 an uninterrupted run produces.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.core.churn import IncrementalChurn, TransitionChurn
from repro.core.io import save_routing_series
from repro.core.metrics import BlockMetrics, IncrementalBlockMetrics
from repro.core.store import DatasetStore, StoreAppender
from repro.errors import DatasetError
from repro.obs import context as obs_api
from repro.obs.context import ObsContext
from repro.obs.export import to_prometheus
from repro.obs.manifest import build_manifest, manifest_path_for, write_manifest
from repro.routing.series import RoutingSeries
from repro.sim.cdn import RoutingEvolution, plan_collection
from repro.sim.config import SimulationConfig
from repro.sim.engine import LiveShardSimulator
from repro.sim.population import InternetPopulation
from repro.sim.scenario import Scenario

#: Called around every commit: ``(interval, phase)`` with the phases of
#: :data:`repro.core.store.COMMIT_PHASE_WRITTEN` (before the root
#: manifest replace) / :data:`~repro.core.store.COMMIT_PHASE_COMMITTED`
#: (after it) — the fault-injection seam the kill tests and the CI smoke
#: job hook.
CommitHook = Callable[[int, str], None]

#: Receives ``(exposition_text, status_dict)`` after every interval.
PublishHook = Callable[[str, dict[str, Any]], None]

#: RIB series file name inside a live store root.
ROUTING_SERIES_NAME = "routing.rib.txt"


@dataclass(frozen=True)
class ServeReport:
    """What one :meth:`ObservatoryService.run` invocation did."""

    committed: int
    total: int
    replayed: int
    appended: int
    dataset_sha256: str | None
    manifest_path: str | None
    routing_path: str | None
    complete: bool


class ObservatoryService:
    """A long-lived collector appending one interval per tick."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        num_days: int,
        store_root: str | os.PathLike[str],
        window_days: int = 1,
        shard_blocks: int = 256,
        ctx: ObsContext | None = None,
        commit_hook: CommitHook | None = None,
        publish: PublishHook | None = None,
        pace_seconds: float = 0.0,
        scenario: "Scenario | None" = None,
    ) -> None:
        if pace_seconds < 0:
            raise DatasetError(f"pace_seconds must be >= 0: {pace_seconds}")
        self._config = config
        self._ctx = ctx if ctx is not None else ObsContext()
        self._window_days = window_days
        self._num_days = num_days
        self._root = os.fspath(store_root)
        self._routing_path = os.path.join(self._root, ROUTING_SERIES_NAME)
        self._commit_hook = commit_hook
        self._publish = publish
        self._pace_seconds = pace_seconds

        self._population = InternetPopulation.build(config)
        plan = plan_collection(self._population, num_days, scenario=scenario)
        self._routing = RoutingEvolution(
            self._population, plan.schedule, plan.noise_rng
        )
        self._simulator = LiveShardSimulator(
            config,
            self._population.blocks,
            num_days,
            window_days,
            plan.directives,
            plan.perturbations,
        )
        self._appender = StoreAppender(
            self._root,
            start=config.start_date,
            window_days=window_days,
            shard_blocks=shard_blocks,
            commit_hook=self._on_commit_phase,
        )
        if self._appender.committed > self.total_intervals:
            raise DatasetError(
                f"live store at {self._root} holds "
                f"{self._appender.committed} intervals but the configured "
                f"horizon is only {self.total_intervals}"
            )
        self._appending_interval = 0
        self._inc_metrics = IncrementalBlockMetrics(window_days)
        self._inc_churn = IncrementalChurn()
        self._replayed = 0
        self._appended = 0
        self._last_active = 0
        #: The finished dataset's SHA-256, once the horizon completes.
        self._dataset_sha256: str | None = None
        self._caught_up = self._appender.committed == 0
        self._ctx.info.update(
            seed=config.seed,
            workers=1,
            num_days=num_days,
            window_days=window_days,
            num_blocks=len(self._population.blocks),
        )
        if scenario is not None:
            self._ctx.info.update(
                scenario=scenario.name, scenario_events=len(scenario.events)
            )

    # -- introspection -----------------------------------------------------

    @property
    def root(self) -> str:
        return self._root

    @property
    def committed(self) -> int:
        """Intervals durably committed to the live store."""
        return self._appender.committed

    @property
    def total_intervals(self) -> int:
        return self._num_days // self._window_days

    @property
    def complete(self) -> bool:
        return self.committed >= self.total_intervals

    @property
    def store(self) -> DatasetStore | None:
        """The committed store (``None`` before the first commit)."""
        return self._appender.store

    def block_metrics(self) -> BlockMetrics:
        """Incremental FD/STU over every interval folded in so far."""
        return self._inc_metrics.result()

    def churn_transitions(self) -> list[TransitionChurn]:
        """Incremental churn over every interval folded in so far."""
        return self._inc_churn.transitions()

    def status(self) -> dict[str, Any]:
        """The ``/status`` snapshot (plain JSON-ready values)."""
        return {
            "store_root": self._root,
            "committed": self.committed,
            "total": self.total_intervals,
            "complete": self.complete,
            "caught_up": self._caught_up,
            "replayed": self._replayed,
            "appended": self._appended,
            "last_interval_active": self._last_active,
            "addr_days": self._simulator.addr_days,
            "dataset_sha256": self._dataset_sha256,
        }

    # -- internals ---------------------------------------------------------

    def _on_commit_phase(self, phase: str) -> None:
        if self._commit_hook is not None:
            self._commit_hook(self._appending_interval, phase)

    def _next_column(self) -> tuple[NDArray[Any], NDArray[Any]]:
        """One engine step: a window column plus its routing days."""
        ips, hits = self._simulator.advance_window()
        for _ in range(self._window_days):
            self._routing.step()
        return ips, hits

    def _fold(self, ips: NDArray[Any]) -> None:
        self._inc_metrics.update(ips)
        self._inc_churn.update(ips)
        self._last_active = int(ips.size)

    def _record_gauges(self) -> None:
        self._ctx.set_gauge("serve_committed_intervals", self.committed)
        self._ctx.set_gauge("serve_horizon_intervals", self.total_intervals)
        self._ctx.set_gauge(
            "serve_last_interval_active_addresses", self._last_active
        )
        self._ctx.set_gauge("serve_addr_days", self._simulator.addr_days)
        # Deliberately a bool: the exporter must render it 1/0, not
        # "True"/"False" (regression-tested).
        self._ctx.set_gauge("serve_complete", self.complete)

    def _write_artifacts(self, store: DatasetStore) -> None:
        """The rolling manifest; the digest and RIB (O(history)) once complete."""
        if self.complete:
            self._dataset_sha256 = store.dataset_sha256
            save_routing_series(
                self._routing_path, RoutingSeries(list(self._routing.tables))
            )
        manifest = build_manifest(
            self._ctx,
            dataset_path=self._root,
            dataset_sha256=self._dataset_sha256,
        )
        write_manifest(manifest_path_for(self._root), manifest)

    def _publish_snapshot(self) -> None:
        if self._publish is None:
            return
        self._publish(to_prometheus(self._ctx), self.status())

    def catch_up(self) -> int:
        """Replay committed intervals; returns how many were replayed.

        Replay re-steps the engine (and routing) through the committed
        horizon — bit-identical by the per-block stream keying — and
        checks each replayed column against the stored one, so a store
        collected under a different configuration fails loudly, naming
        the first interval that differs, instead of silently forking the
        dataset.

        The simulator is told how many windows are committed, so it may
        simulate up to a week of them per kernel call; columns still
        come back, and are verified and folded, one interval at a time.
        """
        already = self._replayed
        committed = self._appender.committed
        store = self._appender.store
        self._simulator.replay_through(committed)
        # Every interval folded so far, replayed or appended by this
        # service, is already past: a repeated call starts after them.
        for interval in range(self._replayed + self._appended + 1, committed + 1):
            ips, hits = self._next_column()
            assert store is not None
            stored_ips, stored_hits = store.column_slice(interval - 1, 0, 2**32 - 1)
            if not (
                np.array_equal(ips, stored_ips) and np.array_equal(hits, stored_hits)
            ):
                raise DatasetError(
                    f"live store at {self._root} does not match the "
                    f"deterministic replay at interval {interval} — was "
                    "it collected with a different configuration?"
                )
            self._fold(ips)
            self._replayed += 1
            self._ctx.add("serve_intervals_replayed_total")
        self._caught_up = True
        self._record_gauges()
        self._publish_snapshot()
        return self._replayed - already

    def run_one_interval(self) -> DatasetStore:
        """Collect and durably commit exactly one interval."""
        if not self._caught_up:
            raise DatasetError("catch_up() must run before collecting")
        if self.complete:
            raise DatasetError(
                f"live store at {self._root} already covers the full "
                f"{self.total_intervals}-interval horizon"
            )
        ips, hits = self._next_column()
        self._appending_interval = self._appender.committed + 1
        store = self._appender.append(ips, hits)
        self._fold(ips)
        self._appended += 1
        self._ctx.add("serve_intervals_committed_total")
        self._record_gauges()
        self._write_artifacts(store)
        self._publish_snapshot()
        return store

    def run(self, max_intervals: int | None = None) -> ServeReport:
        """Catch up, then collect until the horizon (or *max_intervals*).

        The service loop: already-committed intervals are replayed
        (never re-collected), then one interval is committed per tick,
        pacing ``pace_seconds`` between ticks.  On a complete store,
        catch-up verifies it and the final manifest and RIB are rewritten
        (a crash after the last commit may have cut them short).
        """
        with obs_api.activate(self._ctx):
            self.catch_up()
            appended = 0
            while not self.complete:
                if max_intervals is not None and appended >= max_intervals:
                    break
                if appended > 0 and self._pace_seconds > 0:
                    time.sleep(self._pace_seconds)
                self.run_one_interval()
                appended += 1
            store = self._appender.store
            if appended == 0 and self.complete and store is not None:
                self._write_artifacts(store)
                self._publish_snapshot()
        return ServeReport(
            committed=self.committed,
            total=self.total_intervals,
            replayed=self._replayed,
            appended=self._appended,
            dataset_sha256=None if store is None else store.dataset_sha256,
            manifest_path=(
                manifest_path_for(self._root) if store is not None else None
            ),
            routing_path=self._routing_path if self._dataset_sha256 else None,
            complete=self.complete,
        )

    def close(self) -> None:
        self._appender.close()

    def __enter__(self) -> "ObservatoryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
