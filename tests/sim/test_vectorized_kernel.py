"""The vectorized kernel's bit-identity contract, property-tested.

The engine's batched block-major kernel (and each policy's batched
``days_activity``) must be *indistinguishable* from the historical
scalar day-major loop: same rows, same RNG end state, same snapshots,
same ShardResult — for every policy kind, across mid-stream policy
swaps, at UA-window boundaries, and however the horizon is split into
kernel calls.  Hypothesis drives the state space; the reference kernel
(kept as the test oracle) provides the expected results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim import InternetPopulation, SimulationConfig
from repro.sim.engine import (
    ShardTask,
    _ShardKernel,
    _simulate_shard_blocks,
    _simulate_shard_blocks_reference,
    _validate_windowing,
    run_sharded_collection,
)
from repro.sim.policies import PolicyKind, make_policy

CONFIG = SimulationConfig()
ALL_KINDS = sorted(PolicyKind, key=lambda kind: kind.value)


def scalar_days(policy, day_of_weeks, traffic_scales, snapshot_days):
    """The oracle: one day_activity call per day, snapshots copied."""
    rows = []
    snapshots = {}
    for day, day_of_week in enumerate(day_of_weeks):
        activity = policy.day_activity(int(day_of_week), float(traffic_scales[day]))
        rows.append((activity.sub_ids, activity.sub_hits, activity.sub_offsets))
        if day in snapshot_days:
            snapshots[day] = policy.assigned_offsets().copy()
    return rows, snapshots


class TestBatchedEqualsScalar:
    """Property: days_activity == N day_activity calls, bit for bit."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        kind_index=st.integers(min_value=0, max_value=len(ALL_KINDS) - 1),
        network_type=st.sampled_from(["residential", "work"]),
        num_days=st.integers(min_value=1, max_value=18),
        data=st.data(),
    )
    def test_rows_snapshots_and_rng_state(
        self, seed, kind_index, network_type, num_days, data
    ):
        kind = ALL_KINDS[kind_index]
        snapshot_days = data.draw(
            st.sets(st.integers(min_value=0, max_value=num_days - 1), max_size=4)
        )
        day_of_weeks = [day % 7 for day in range(num_days)]
        traffic_scales = [
            CONFIG.traffic_weekly_growth ** (day / 7.0) for day in range(num_days)
        ]

        scalar = make_policy(kind, seed, network_type, CONFIG, sub_base=5_000_000)
        batched = make_policy(kind, seed, network_type, CONFIG, sub_base=5_000_000)
        rows, snapshots = scalar_days(
            scalar, day_of_weeks, traffic_scales, snapshot_days
        )
        activity = batched.days_activity(day_of_weeks, traffic_scales, snapshot_days)

        assert activity.num_days == num_days
        for day, (ids, hits, offs) in enumerate(rows):
            lo = activity.day_starts[day]
            hi = activity.day_starts[day + 1]
            assert np.array_equal(activity.sub_ids[lo:hi], ids), day
            assert np.array_equal(activity.sub_hits[lo:hi], hits), day
            assert np.array_equal(activity.sub_offsets[lo:hi], offs), day
        assert set(activity.snapshots) == set(snapshots)
        for day, expected in snapshots.items():
            assert np.array_equal(activity.snapshots[day], expected), day
        # The decisive check: both policies' RNGs consumed the exact
        # same stream, so any future draw stays identical too.
        assert (
            scalar._rng.bit_generator.state == batched._rng.bit_generator.state
        )

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_future_days_unperturbed(self, kind):
        # After a batched horizon, the next scalar day must match a
        # pure-scalar run's — the kernel leaves no hidden state skew.
        scalar = make_policy(kind, 77, "residential", CONFIG, sub_base=9_000_000)
        batched = make_policy(kind, 77, "residential", CONFIG, sub_base=9_000_000)
        for day in range(9):
            scalar.day_activity(day % 7, 1.0)
        batched.days_activity([day % 7 for day in range(9)], [1.0] * 9)
        expected = scalar.day_activity(2, 1.25)
        got = batched.day_activity(2, 1.25)
        assert np.array_equal(expected.sub_ids, got.sub_ids)
        assert np.array_equal(expected.sub_hits, got.sub_hits)
        assert np.array_equal(expected.sub_offsets, got.sub_offsets)


@pytest.fixture(scope="module")
def world():
    config = SimulationConfig(seed=2027, num_ases=12, mean_blocks_per_as=2.5)
    return InternetPopulation.build(config)


def assert_shard_results_equal(ref, vec):
    assert ref.addr_days == vec.addr_days
    assert len(ref.window_ips) == len(vec.window_ips)
    for window in range(len(ref.window_ips)):
        assert np.array_equal(ref.window_ips[window], vec.window_ips[window])
        assert np.array_equal(ref.window_hits[window], vec.window_hits[window])
        assert ref.window_ips[window].dtype == vec.window_ips[window].dtype
    # UA dict insertion order differs (day-major vs block-major); every
    # consumer sorts by base, so content equality is the contract.
    assert sorted(ref.ua_samples) == sorted(vec.ua_samples)
    for base in ref.ua_samples:
        assert ref.ua_samples[base] == vec.ua_samples[base], base
    if ref.login_trace is None:
        assert vec.login_trace is None
    else:
        assert len(ref.login_trace) == len(vec.login_trace)
        for day in range(len(ref.login_trace)):
            assert np.array_equal(ref.login_trace[day][0], vec.login_trace[day][0])
            assert np.array_equal(ref.login_trace[day][1], vec.login_trace[day][1])
    assert list(ref.scan_states) == list(vec.scan_states)
    for day in ref.scan_states:
        assert list(ref.scan_states[day]) == list(vec.scan_states[day])
        for index in ref.scan_states[day]:
            ref_kind, ref_offsets = ref.scan_states[day][index]
            vec_kind, vec_offsets = vec.scan_states[day][index]
            assert ref_kind == vec_kind
            assert np.array_equal(ref_offsets, vec_offsets)
    assert list(ref.final_kinds.items()) == list(vec.final_kinds.items())


class TestKernelMatchesReference:
    """Property: the vectorized shard kernel == the day-major spec."""

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_with_directive_swaps_and_windows(self, world, data):
        blocks = world.blocks
        num_days = data.draw(st.sampled_from([4, 6, 8, 12]))
        window_days = data.draw(
            st.sampled_from([w for w in (1, 2, 3, 4, 6) if num_days % w == 0])
        )
        # Mid-stream policy swaps: any block, any kind, any day —
        # including day 0, same-day double swaps, and out-of-range
        # days the kernels must both ignore.
        directives = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=-1, max_value=num_days + 3),
                    st.integers(min_value=0, max_value=len(blocks) - 1).map(
                        lambda i: blocks[i].index
                    ),
                    st.sampled_from([kind.value for kind in ALL_KINDS]),
                    st.integers(min_value=0, max_value=50),
                ),
                max_size=6,
            )
        )
        lo = data.draw(st.integers(min_value=0, max_value=num_days - 1))
        hi = data.draw(st.integers(min_value=lo, max_value=num_days - 1))
        ua_window = data.draw(st.sampled_from([None, (lo, hi)]))
        scan_days = tuple(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=num_days - 1), max_size=3
                    )
                )
            )
        )
        login_rate = data.draw(st.sampled_from([0.0, 0.3]))
        splits = data.draw(
            st.sets(st.integers(min_value=1, max_value=num_days - 1), max_size=3)
        )

        task = ShardTask(
            shard_index=0,
            config=world.config,
            blocks=tuple(blocks),
            num_days=num_days,
            window_days=window_days,
            ua_window=ua_window,
            scan_days=scan_days,
            login_panel_rate=login_rate,
            directives=tuple(directives),
        )
        reference = _simulate_shard_blocks_reference(task)
        assert_shard_results_equal(reference, _simulate_shard_blocks(task))
        # The kernel is resumable: splitting the horizon into several
        # calls, mid-window or not, is the same run.
        kernel = _ShardKernel(task)
        for stop in [*sorted(splits), num_days]:
            kernel.advance(stop)
        assert_shard_results_equal(reference, kernel.result())

    def test_day_by_day_calls_carry_every_stream(self, world):
        # One call per day, through a directive, with UA sampling,
        # scans, and the login panel all drawing across the calls.
        # Gateway blocks only add run time: their traffic is huge.
        blocks = tuple(b for b in world.blocks if b.kind is not PolicyKind.GATEWAY)
        task = ShardTask(
            shard_index=0,
            config=world.config,
            blocks=blocks,
            num_days=6,
            window_days=3,
            ua_window=(0, 5),
            scan_days=(2, 4),
            login_panel_rate=0.3,
            directives=((3, blocks[0].index, PolicyKind.STATIC.value, 7),),
        )
        whole = _simulate_shard_blocks(task)
        kernel = _ShardKernel(task)
        for stop in range(1, task.num_days + 1):
            kernel.advance(stop)
        assert len(whole.ua_samples) > 10
        assert_shard_results_equal(whole, kernel.result())


class TestScanSnapshotIsolation:
    """Scan states are private copies, not views of live policy state."""

    @pytest.mark.parametrize(
        "kind",
        [PolicyKind.DYNAMIC_LONG, PolicyKind.DYNAMIC_SHORT, PolicyKind.ROUND_ROBIN],
        ids=lambda kind: kind.value,
    )
    def test_later_churn_cannot_mutate_snapshot(self, kind):
        policy = make_policy(kind, 13, "residential", CONFIG, sub_base=1_000_000)
        activity = policy.days_activity([0, 1, 2, 3], [1.0] * 4, snapshot_days=[1])
        snapshot = activity.snapshots[1]
        frozen = snapshot.copy()
        # Keep simulating: lease churn rewrites the policy's internal
        # offset arrays in place.  The handed-out snapshot must not move.
        policy.days_activity([4, 5, 6, 0, 1, 2, 3, 4, 5, 6], [1.0] * 10)
        assert np.array_equal(snapshot, frozen)

    def test_shard_scan_states_own_their_memory(self, world):
        task = ShardTask(
            shard_index=0,
            config=world.config,
            blocks=tuple(world.blocks),
            num_days=6,
            window_days=3,
            ua_window=None,
            scan_days=(1, 4),
            login_panel_rate=0.0,
            directives=(),
        )
        result = _simulate_shard_blocks(task)
        assert set(result.scan_states) == {1, 4}
        for states in result.scan_states.values():
            for _, offsets in states.values():
                # An owned array (base None) cannot alias policy state
                # that later days mutate in place.
                assert offsets.base is None


class TestPartialWindowRejected:
    """num_days % window_days != 0 fails loudly on every code path."""

    def test_validator_accepts_exact_multiples(self):
        _validate_windowing(14, 7)
        _validate_windowing(14, 1)
        _validate_windowing(14, 14)

    @pytest.mark.parametrize(
        ("num_days", "window_days"),
        [(13, 7), (15, 7), (5, 3), (1, 2)],
    )
    def test_validator_rejects_trailing_partials(self, num_days, window_days):
        with pytest.raises(ConfigError, match="not a multiple"):
            _validate_windowing(num_days, window_days)

    @pytest.mark.parametrize("bad", [(0, 7), (14, 0), (-7, 7), (14, -1)])
    def test_validator_rejects_degenerate_horizons(self, bad):
        with pytest.raises(ConfigError):
            _validate_windowing(*bad)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collection_refuses_before_simulating(self, world, workers, tmp_path):
        with pytest.raises(ConfigError, match="not a multiple"):
            run_sharded_collection(
                world,
                num_days=13,
                window_days=7,
                ua_window=None,
                scan_days=(),
                login_panel_rate=0.0,
                directives=(),
                workers=workers,
            )
        # The resume path validates before touching any checkpoint.
        with pytest.raises(ConfigError, match="not a multiple"):
            run_sharded_collection(
                world,
                num_days=13,
                window_days=7,
                ua_window=None,
                scan_days=(),
                login_panel_rate=0.0,
                directives=(),
                workers=workers,
                checkpoint_dir=str(tmp_path),
                resume=True,
            )
        assert list(tmp_path.iterdir()) == []

    def test_shard_kernel_validates_too(self, world):
        task = ShardTask(
            shard_index=0,
            config=world.config,
            blocks=tuple(world.blocks[:2]),
            num_days=5,
            window_days=3,
            ua_window=None,
            scan_days=(),
            login_panel_rate=0.0,
            directives=(),
        )
        with pytest.raises(ConfigError, match="not a multiple"):
            _simulate_shard_blocks(task)
        with pytest.raises(ConfigError, match="not a multiple"):
            _simulate_shard_blocks_reference(task)
