"""LiveShardSimulator: interval-at-a-time columns == batch windows.

The live stepper is the serve subsystem's entry point into the engine;
its contract is bit-identity with the batch collection over the same
world, including restructuring directives, scenario timelines, and
weekly windows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import CollectionError, ConfigError
from repro.sim.cdn import CDNObservatory, plan_collection
from repro.sim.config import SimulationConfig
from repro.sim.engine import LiveShardSimulator, run_sharded_collection
from repro.sim.population import InternetPopulation
from repro.sim.scenario import parse_scenario
from tests.sim.test_scenario import TINY_DAYS, scenarios


def world_config(seed):
    return SimulationConfig(
        seed=seed, num_slash8=5, num_ases=14, mean_blocks_per_as=3.0
    )


CONFIG = world_config(11)


def live_columns(config, num_days, window_days, scenario=None):
    population = InternetPopulation.build(config)
    plan = plan_collection(population, num_days, scenario=scenario)
    simulator = LiveShardSimulator(
        config,
        population.blocks,
        num_days,
        window_days,
        plan.directives,
        plan.perturbations,
    )
    columns = []
    while not simulator.exhausted:
        columns.append(simulator.advance_window())
    return population, plan, simulator, columns


def assert_live_equals_batch(config, num_days, window_days, scenario=None):
    """Step window by window; compare with one whole-horizon batch run."""
    population, plan, simulator, columns = live_columns(
        config, num_days, window_days, scenario
    )
    batch = run_sharded_collection(
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
    assert len(columns) == len(batch.snapshots) == num_days // window_days
    for (ips, hits), snapshot in zip(columns, batch.snapshots):
        assert np.array_equal(ips, snapshot.ips)
        assert np.array_equal(hits, snapshot.hits)
        assert ips.dtype == snapshot.ips.dtype
        assert hits.dtype == snapshot.hits.dtype
    assert simulator.addr_days == batch.perf.addr_days
    return plan


class TestBatchEquivalence:
    def test_daily_columns_are_bit_identical(self):
        # 56 days crosses restructuring events (directives fire), so
        # this pins directive application, not just quiet steady state.
        num_days = 56
        *_, columns = live_columns(CONFIG, num_days, window_days=1)
        world = InternetPopulation.build(CONFIG)
        result = CDNObservatory(world).collect_daily(num_days)
        assert len(columns) == len(result.dataset)
        for (ips, hits), snapshot in zip(columns, result.dataset):
            assert np.array_equal(ips, snapshot.ips)
            assert np.array_equal(hits, snapshot.hits)
            assert ips.dtype == snapshot.ips.dtype
            assert hits.dtype == snapshot.hits.dtype
        assert_live_equals_batch(CONFIG, num_days, window_days=1)

    def test_weekly_columns_are_bit_identical(self):
        *_, columns = live_columns(CONFIG, 28, window_days=7)
        world = InternetPopulation.build(CONFIG)
        result = CDNObservatory(world).collect_weekly(4)
        assert len(columns) == 4
        for (ips, hits), snapshot in zip(columns, result.dataset):
            assert np.array_equal(ips, snapshot.ips)
            assert np.array_equal(hits, snapshot.hits)
        assert_live_equals_batch(CONFIG, 28, window_days=7)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        # Multiples of TINY_DAYS, so every drawn timeline fits and
        # every window length below divides the horizon.
        num_days=st.sampled_from([TINY_DAYS, 2 * TINY_DAYS, 7 * TINY_DAYS]),
        window_days=st.sampled_from([1, 2, 3, 6]),
        doc=st.none() | scenarios(),
    )
    # A whole-world outage leaves its day's column empty.
    @example(
        seed=11,
        num_days=TINY_DAYS,
        window_days=1,
        doc={
            "name": "blackout",
            "events": [{"kind": "outage", "start_day": 0, "duration_days": 1}],
        },
    )
    def test_window_stepping_equals_batch(self, seed, num_days, window_days, doc):
        scenario = None
        if doc is not None:
            scenario = parse_scenario(doc, source="<hypothesis>")
        try:
            assert_live_equals_batch(
                world_config(seed), num_days, window_days, scenario
            )
        except ConfigError:
            # A selector matching no eligible block is a rejected
            # configuration, not an equivalence sample.
            assume(False)

    def test_directive_on_a_window_edge(self):
        # Every block selected on day 3 switches policy exactly where
        # the second 3-day window starts.
        scenario = parse_scenario(
            {
                "name": "edge",
                "events": [
                    {"kind": "cgnat", "start_day": 3, "select": {"fraction": 1.0}}
                ],
            },
            source="<edge>",
        )
        plan = assert_live_equals_batch(CONFIG, TINY_DAYS, 3, scenario)
        assert any(day == 3 for day, *_ in plan.directives)

    def test_fresh_simulator_replays_identically(self):
        # The catch-up contract: re-stepping a new simulator through
        # the same horizon reproduces every column bit for bit.
        *_, first = live_columns(CONFIG, 14, window_days=1)
        *_, second = live_columns(CONFIG, 14, window_days=1)
        for (ips_a, hits_a), (ips_b, hits_b) in zip(first, second):
            assert np.array_equal(ips_a, ips_b)
            assert np.array_equal(hits_a, hits_b)


class TestStepping:
    def test_progress_counters(self):
        _, _, simulator, columns = live_columns(CONFIG, 6, window_days=2)
        assert simulator.num_windows == 3
        assert simulator.windows_done == 3
        assert simulator.exhausted
        # addr_days counts per-day activity; the window column dedups
        # addresses active on several days of the same window.
        assert simulator.addr_days >= sum(ips.size for ips, _ in columns) > 0

    def test_advance_past_horizon_raises(self):
        _, _, simulator, _ = live_columns(CONFIG, 4, window_days=2)
        with pytest.raises(CollectionError, match="exhausted"):
            simulator.advance_window()

    def test_bad_windowing_rejected(self):
        population = InternetPopulation.build(CONFIG)
        with pytest.raises(ConfigError, match="multiple"):
            LiveShardSimulator(CONFIG, population.blocks, 5, 2, ())
