"""Cross-process observability merge semantics and the acceptance run.

Pins the layer's central contracts:

- spans/counters merged from parallel worker payloads equal a serial
  run's (layout-invariant totals), including under an injected fault;
- the run's context is its one record: the engine's returned
  :class:`~repro.sim.engine.PerfCounters` and its ``ShardProgress``
  heartbeats are views of it, each run's own even when the caller
  reuses one context across runs;
- recording observability never perturbs collected output: the dataset
  digest with obs at ``workers=4`` is bit-identical to the same run
  without obs.
"""

import pytest

from repro.errors import CollectionError
from repro.obs import ObsContext, build_manifest, dataset_digest
from repro.sim import CDNObservatory, InternetPopulation, SimulationConfig
from repro.sim.engine import (
    FaultInjection,
    PerfCounters,
    run_sharded_collection,
)

NUM_DAYS = 8


@pytest.fixture(scope="module")
def world():
    config = SimulationConfig(
        seed=11, num_slash8=5, num_ases=16, mean_blocks_per_as=4.0
    )
    return InternetPopulation.build(config)


@pytest.fixture(scope="module")
def serial(world):
    ctx = ObsContext()
    run = CDNObservatory(world).collect_daily(NUM_DAYS, workers=1, obs=ctx)
    return ctx, run


@pytest.fixture(scope="module")
def parallel(world):
    ctx = ObsContext()
    run = CDNObservatory(world).collect_daily(NUM_DAYS, workers=4, obs=ctx)
    return ctx, run


class TestMergedCountersEqualSerial:
    def test_counters_identical(self, serial, parallel):
        ctx1, _ = serial
        ctx4, _ = parallel
        assert ctx4.metrics.counters == ctx1.metrics.counters

    def test_worker_span_totals_fold(self, serial, parallel):
        ctx1, _ = serial
        ctx4, _ = parallel
        path = "collect/shard/simulate"
        # One aggregate per shard folds into one entry whose count is
        # the shard count, serial and parallel alike.
        assert ctx4.spans.stats(path).count == 4
        assert ctx1.spans.stats(path).count == 1
        assert ctx4.spans.stats(path).wall_seconds > 0

    def test_coordinator_spans_present(self, parallel):
        ctx4, _ = parallel
        for path in ("collect/simulate", "collect/merge", "collect/routing"):
            assert ctx4.spans.stats(path).count == 1

    def test_counters_reconcile_with_perf(self, parallel):
        ctx4, run = parallel
        perf = run.perf
        counters = ctx4.metrics.counters
        assert counters["shard_addr_days"] == perf.addr_days
        assert counters["shard_blocks"] == perf.num_blocks
        assert counters.get("event_retry_total", 0) == perf.shards_retried
        assert counters.get("event_degrade_total", 0) == perf.shards_degraded


#: Every shard's first worker attempt fails; the retry recovers.
FAIL_ONCE = FaultInjection(rate=1.0)

#: Selects shard 0 of seed 11 everywhere, the in-process fallback
#: included: a deterministic kill of the run mid-way.
KILL_SHARD_0 = FaultInjection(
    rate=0.5, max_failures_per_shard=10**6, fail_in_process=True
)


def _event_totals(ctx):
    """``ShardProgress``'s resilience fields, read off a context's counters."""
    counter = ctx.metrics.counter
    return {
        "retried": counter("event_retry_total"),
        "degraded": counter("event_degrade_total"),
        "resumed": counter("event_resume_total"),
        "checkpointed": counter("event_checkpoint_save_total"),
    }


def _final_totals(beats):
    last = beats[-1]
    assert last.done == last.total
    return {
        "retried": last.retried,
        "degraded": last.degraded,
        "resumed": last.resumed,
        "checkpointed": last.checkpointed,
    }


class TestOneRunRecord:
    """PerfCounters and the heartbeats are views of the run's context."""

    @pytest.mark.parametrize("fault", [None, FAIL_ONCE], ids=["clean", "fault"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_perf_is_a_view_of_the_run_context(self, world, workers, fault):
        ctx = ObsContext()
        beats = []
        run = CDNObservatory(world).collect_daily(
            NUM_DAYS, workers=workers, obs=ctx, fault=fault,
            retry_backoff=0.0, progress=beats.append,
        )
        assert run.perf == PerfCounters.from_context(ctx)
        assert run.perf.shards == workers
        assert run.perf.shards_retried == (workers if fault else 0)
        assert run.perf.total_seconds == (
            ctx.spans.stats("collect/plan").wall_seconds
            + ctx.spans.stats("collect/routing").wall_seconds
            + run.perf.sim_seconds
            + run.perf.merge_seconds
        )
        assert _final_totals(beats) == _event_totals(ctx)

    def test_sharded_outcome_perf_is_a_view(self, world):
        ctx = ObsContext()
        outcome = run_sharded_collection(
            world, num_days=NUM_DAYS, window_days=1, ua_window=None,
            scan_days=(), login_panel_rate=0.0, directives=(), workers=2,
            fault=FAIL_ONCE, retry_backoff=0.0, obs=ctx,
        )
        assert outcome.perf == PerfCounters.from_context(ctx)
        assert outcome.perf.routing_seconds == 0.0
        assert outcome.perf.shards_retried == 2

    def test_perf_is_a_view_across_kill_and_resume(self, world, serial, tmp_path):
        _, reference = serial
        observatory = CDNObservatory(world)
        killed = ObsContext()
        with pytest.raises(CollectionError):
            observatory.collect_daily(
                NUM_DAYS, workers=3, max_retries=0, retry_backoff=0.0,
                checkpoint_dir=str(tmp_path), fault=KILL_SHARD_0, obs=killed,
            )
        # The failed run's record still reaches the caller's context.
        assert killed.metrics.counter("event_checkpoint_save_total") == 2
        ctx = ObsContext()
        beats = []
        resumed = observatory.collect_daily(
            NUM_DAYS, workers=3, checkpoint_dir=str(tmp_path), resume=True,
            obs=ctx, progress=beats.append,
        )
        assert resumed.perf == PerfCounters.from_context(ctx)
        assert resumed.perf.shards_resumed == 2
        assert resumed.perf.shards_checkpointed == 1
        assert resumed.perf.addr_days == reference.perf.addr_days
        assert _final_totals(beats) == _event_totals(ctx)
        assert dataset_digest(resumed.dataset) == dataset_digest(reference.dataset)

    def test_reused_context_keeps_each_runs_perf_its_own(self, world):
        shared = ObsContext()
        observatory = CDNObservatory(world)
        first = observatory.collect_daily(NUM_DAYS, workers=1, obs=shared)
        second = observatory.collect_daily(
            NUM_DAYS, workers=2, obs=shared, fault=FAIL_ONCE, retry_backoff=0.0
        )
        # Each run's summary describes that run alone ...
        assert (first.perf.workers, first.perf.shards_retried) == (1, 0)
        assert (second.perf.workers, second.perf.shards_retried) == (2, 2)
        assert first.perf.addr_days == second.perf.addr_days
        # ... while the shared context holds both runs, summed.
        assert shared.metrics.counter("shard_addr_days") == 2 * first.perf.addr_days
        assert shared.metrics.counter("event_retry_total") == 2
        assert shared.spans.stats("collect/shard/simulate").count == 3
        for path, seconds in (
            ("collect/simulate", lambda perf: perf.sim_seconds),
            ("collect/merge", lambda perf: perf.merge_seconds),
            ("collect/routing", lambda perf: perf.routing_seconds),
        ):
            stats = shared.spans.stats(path)
            assert stats.count == 2
            assert stats.wall_seconds == seconds(first.perf) + seconds(second.perf)


class TestUnderInjectedFault:
    def test_merge_identical_despite_retries(self, world, serial):
        ctx1, run1 = serial
        ctx = ObsContext()
        run = CDNObservatory(world).collect_daily(
            NUM_DAYS,
            workers=4,
            obs=ctx,
            fault=FaultInjection(rate=1.0),
            retry_backoff=0.0,
        )
        assert run.perf.shards_retried == 4
        assert ctx.metrics.counter("event_retry_total") == 4
        assert len(ctx.events_of("retry")) == 4
        # Retries are bookkeeping, not data: the data-carrying counters
        # still equal the serial run's.
        assert ctx.metrics.counter("shard_addr_days") == ctx1.metrics.counter(
            "shard_addr_days"
        )
        assert ctx.metrics.counter("shard_blocks") == ctx1.metrics.counter(
            "shard_blocks"
        )
        assert dataset_digest(run.dataset) == dataset_digest(run1.dataset)

    def test_retry_events_carry_shard_and_attempt(self, world):
        ctx = ObsContext()
        CDNObservatory(world).collect_daily(
            NUM_DAYS,
            workers=2,
            obs=ctx,
            fault=FaultInjection(rate=1.0),
            retry_backoff=0.0,
        )
        events = ctx.events_of("retry")
        assert {e.fields["shard"] for e in events} == {0, 1}
        assert all(e.fields["attempt"] == 1 for e in events)
        assert all(e.fields["error"] == "InjectedWorkerFault" for e in events)


class TestObservabilityNeverPerturbsOutput:
    def test_digest_identical_with_and_without_obs(self, world, parallel):
        """The acceptance criterion: obs on/off, bit-identical data."""
        ctx4, observed = parallel
        plain = CDNObservatory(world).collect_daily(NUM_DAYS, workers=4)
        assert dataset_digest(observed.dataset) == dataset_digest(plain.dataset)

    def test_manifest_matches_run(self, parallel):
        ctx4, run = parallel
        manifest = build_manifest(ctx4, dataset=run.dataset)
        assert manifest.workers == 4
        assert manifest.num_days == NUM_DAYS
        assert manifest.seed == 11
        assert manifest.fingerprint
        assert len(manifest.shard_map) == 4
        assert manifest.dataset_sha256 == dataset_digest(run.dataset)
        assert manifest.counters == ctx4.metrics.counters
