"""Restart replay: week-long kernel calls, verified one interval at a time.

``catch_up`` tells the simulator how many windows are committed, and the
simulator then steps the kernel up to a week of them per call.  These
properties pin what that must not change: a restart at any committed
count converges to the uninterrupted run, the progress counters never
include look-ahead, a tick never simulates past the window it commits,
and a store that differs in a single hit is caught at that interval.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.store import StoreAppender
from repro.errors import DatasetError
from repro.obs.context import ObsContext
from repro.serve import ObservatoryService
from repro.sim import engine
from repro.sim.cdn import plan_collection
from repro.sim.engine import REPLAY_STEP_DAYS, run_sharded_collection
from repro.sim.population import InternetPopulation
from tests.serve.test_service import CONFIG

#: ``(num_days, window_days)``: up to 21 days, windows dividing it.
HORIZONS = st.sampled_from([1, 2, 3, 7, 14]).flatmap(
    lambda window_days: st.integers(
        min_value=1, max_value=max(1, 21 // window_days)
    ).map(lambda windows: (windows * window_days, window_days))
)

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextmanager
def kernel_stops():
    """Record the ``stop`` day of every kernel call made inside."""
    stops: list[int] = []
    advance = engine._ShardKernel.advance

    def recording(kernel, stop):
        stops.append(stop)
        return advance(kernel, stop)

    with mock.patch.object(engine._ShardKernel, "advance", recording):
        yield stops


def service(root, num_days, window_days, ctx=None):
    return ObservatoryService(
        CONFIG, num_days=num_days, window_days=window_days, store_root=root, ctx=ctx
    )


def snapshot(svc, ctx):
    """Everything an uninterrupted run and a restarted one must share."""
    metrics = svc.block_metrics()
    return {
        "sha256": svc.store.dataset_sha256,
        "bases": metrics.bases.tobytes(),
        "filling_degree": metrics.filling_degree.tobytes(),
        "stu": metrics.stu.tobytes(),
        "churn": svc.churn_transitions(),
        "serve_addr_days": ctx.metrics.gauge("serve_addr_days"),
    }


_REFERENCES: dict[tuple[int, int], tuple[dict, list[int]]] = {}


def uninterrupted(num_days, window_days):
    """The final state and per-tick ``addr_days`` of one straight run."""
    key = (num_days, window_days)
    if key not in _REFERENCES:
        with tempfile.TemporaryDirectory() as tmp:
            ctx = ObsContext()
            with service(f"{tmp}/live", num_days, window_days, ctx) as svc:
                svc.catch_up()
                addr_days = [svc.status()["addr_days"]]
                while not svc.complete:
                    svc.run_one_interval()
                    addr_days.append(svc.status()["addr_days"])
                _REFERENCES[key] = (snapshot(svc, ctx), addr_days)
    return _REFERENCES[key]


class TestRestartConvergence:
    @SETTINGS
    @given(horizon=HORIZONS, data=st.data())
    def test_restart_at_any_committed_count(self, horizon, data):
        num_days, window_days = horizon
        windows = num_days // window_days
        committed = data.draw(st.integers(min_value=0, max_value=windows))
        expected, addr_days = uninterrupted(num_days, window_days)
        with tempfile.TemporaryDirectory() as tmp:
            root = f"{tmp}/live"
            with service(root, num_days, window_days) as first:
                first.run(max_intervals=committed)
            ctx = ObsContext()
            with service(root, num_days, window_days, ctx) as restarted:
                simulator = restarted._simulator
                with kernel_stops() as replay_stops:
                    assert restarted.catch_up() == committed
                # Replay never simulates past the committed windows, and
                # the counters show exactly the replayed ones.
                assert max(replay_stops, default=0) == committed * window_days
                assert simulator.windows_done == committed
                assert simulator.exhausted == (committed == windows)
                assert simulator.addr_days == addr_days[committed]
                assert ctx.metrics.gauge("serve_addr_days") == addr_days[committed]
                # Week-long calls: one per REPLAY_STEP_DAYS of whole windows.
                step = max(1, REPLAY_STEP_DAYS // window_days)
                assert len(replay_stops) == -(-committed // step)
                while not restarted.complete:
                    with kernel_stops() as tick_stops:
                        restarted.run_one_interval()
                    # A tick simulates its own window and nothing more.
                    assert tick_stops == [restarted.committed * window_days]
                    assert simulator.windows_done == restarted.committed
                    assert simulator.addr_days == addr_days[restarted.committed]
                assert snapshot(restarted, ctx) == expected


class TestSimulatorCounters:
    @SETTINGS
    @given(horizon=HORIZONS, data=st.data())
    def test_counters_ignore_look_ahead(self, horizon, data):
        num_days, window_days = horizon
        windows = num_days // window_days
        bound = data.draw(st.integers(min_value=0, max_value=windows))
        _, addr_days = uninterrupted(num_days, window_days)
        population = InternetPopulation.build(CONFIG)
        plan = plan_collection(population, num_days)
        simulator = engine.LiveShardSimulator(
            CONFIG, population.blocks, num_days, window_days,
            plan.directives, plan.perturbations,
        )
        simulator.replay_through(bound)
        for done in range(1, windows + 1):
            assert not simulator.exhausted
            simulator.advance_window()
            assert simulator.windows_done == done
            assert simulator.addr_days == addr_days[done]
            assert simulator.exhausted == (done == windows)
            # The kernel ran ahead only within the declared windows.
            assert simulator._kernel.day <= max(bound, done) * window_days


_BATCH: dict[int, list] = {}


def batch_columns(window_days):
    """Batch window columns of the longest horizon up to 21 days."""
    if window_days in _BATCH:
        return _BATCH[window_days]
    num_days = 21 // window_days * window_days
    population = InternetPopulation.build(CONFIG)
    plan = plan_collection(population, num_days)
    outcome = run_sharded_collection(
        population,
        num_days=num_days,
        window_days=window_days,
        ua_window=None,
        scan_days=(),
        login_panel_rate=0.0,
        directives=plan.directives,
        perturbations=plan.perturbations,
        workers=1,
    )
    _BATCH[window_days] = [(s.ips, s.hits) for s in outcome.snapshots]
    return _BATCH[window_days]


class TestDivergentStore:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        window_days=st.sampled_from([1, 2]),
        data=st.data(),
    )
    def test_replay_names_the_first_differing_interval(self, window_days, data):
        columns = batch_columns(window_days)
        windows = len(columns)
        # Past the first week-long replay call, so the call that
        # simulated the interval is not the one that returns it.
        interval = data.draw(st.integers(min_value=8, max_value=windows))
        committed = data.draw(st.integers(min_value=interval, max_value=windows))
        ips, hits = columns[interval - 1]
        assert hits.size
        row = data.draw(st.integers(min_value=0, max_value=hits.size - 1))
        forged = hits.copy()
        forged[row] += np.uint64(1)
        with tempfile.TemporaryDirectory() as tmp:
            root = f"{tmp}/live"
            appender = StoreAppender(
                root, start=CONFIG.start_date, window_days=window_days
            )
            try:
                for index, (column_ips, column_hits) in enumerate(columns[:committed]):
                    appender.append(
                        column_ips, forged if index == interval - 1 else column_hits
                    )
            finally:
                appender.close()
            with service(root, windows * window_days, window_days) as restarted:
                with pytest.raises(
                    DatasetError, match=rf"replay at interval {interval} "
                ):
                    restarted.catch_up()
