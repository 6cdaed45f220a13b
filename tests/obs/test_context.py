"""Unit tests for repro.obs.context: the ObsContext and the ambient API."""

import pickle

import pytest

from repro.errors import ObservabilityError
from repro.obs import context as obs_api
from repro.obs.context import ObsContext, RunEvent


class TestEvents:
    def test_event_appends_and_counts(self):
        ctx = ObsContext()
        ctx.event("retry", shard=2, attempt=1)
        ctx.event("retry", shard=3, attempt=1)
        ctx.event("degrade", shard=3)
        assert len(ctx.events) == 3
        assert ctx.metrics.counter("event_retry_total") == 2
        assert ctx.metrics.counter("event_degrade_total") == 1

    def test_events_of_filters_in_order(self):
        ctx = ObsContext()
        ctx.event("retry", shard=5)
        ctx.event("resume", shard=0)
        ctx.event("retry", shard=1)
        assert [e.fields["shard"] for e in ctx.events_of("retry")] == [5, 1]

    def test_event_kind_must_be_a_metric_name(self):
        with pytest.raises(ObservabilityError):
            ObsContext().event("bad kind")

    def test_run_event_as_dict_flattens(self):
        assert RunEvent("retry", {"shard": 2}).as_dict() == {
            "kind": "retry",
            "shard": 2,
        }


class TestPayload:
    def make_context(self):
        ctx = ObsContext()
        with ctx.span("collect/shard"):
            pass
        ctx.add("addr_days", 10)
        ctx.set_gauge("rss", 5.0)
        ctx.event("retry", shard=1, attempt=2)
        ctx.info["seed"] = 7
        return ctx

    def test_roundtrip(self):
        ctx = self.make_context()
        restored = ObsContext.from_payload(ctx.to_payload())
        assert restored.to_payload() == ctx.to_payload()

    def test_payload_is_picklable_plain_data(self):
        payload = self.make_context().to_payload()
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_context_itself_is_picklable(self):
        ctx = self.make_context()
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.to_payload() == ctx.to_payload()

    def test_merge_payload_equals_merge(self):
        base = self.make_context().to_payload()
        a1, a2 = ObsContext.from_payload(base), ObsContext.from_payload(base)
        b = self.make_context()
        a1.merge(b)
        a2.merge_payload(b.to_payload())
        assert a1.to_payload() == a2.to_payload()

    def test_merge_combines_all_parts(self):
        a, b = ObsContext(), ObsContext()
        a.add("work", 1)
        b.add("work", 2)
        a.event("retry", shard=0)
        b.event("resume", shard=1)
        b.info["workers"] = 4
        a.merge(b)
        assert a.metrics.counter("work") == 3
        assert [e.kind for e in a.events] == ["retry", "resume"]
        assert a.info["workers"] == 4


class TestAmbientApi:
    def test_helpers_are_noops_without_context(self):
        assert obs_api.active() is None
        with obs_api.span("anything"):
            pass
        obs_api.add("anything")
        obs_api.gauge("anything", 1)
        obs_api.event("anything")
        assert obs_api.active() is None

    def test_activate_installs_and_restores(self):
        ctx = ObsContext()
        with obs_api.activate(ctx):
            assert obs_api.active() is ctx
            with obs_api.span("work"):
                pass
            obs_api.add("hits")
            obs_api.gauge("rss", 2)
            obs_api.event("retry", shard=0)
        assert obs_api.active() is None
        assert ctx.spans.stats("work").count == 1
        assert ctx.metrics.counter("hits") == 1
        assert ctx.metrics.gauge("rss") == 2.0
        assert len(ctx.events_of("retry")) == 1

    def test_activation_nests_and_restores_previous(self):
        outer, inner = ObsContext(), ObsContext()
        with obs_api.activate(outer):
            with obs_api.activate(inner):
                obs_api.add("hits")
            obs_api.add("hits")
        assert inner.metrics.counter("hits") == 1
        assert outer.metrics.counter("hits") == 1

    def test_restores_on_exception(self):
        ctx = ObsContext()
        with pytest.raises(ValueError):
            with obs_api.activate(ctx):
                raise ValueError("boom")
        assert obs_api.active() is None

    def test_run_context_records_fresh_and_merges_on_exit(self):
        into = ObsContext()
        into.add("hits", 2)
        with obs_api.run_context(into) as run:
            assert obs_api.active() is run and run is not into
            obs_api.add("hits")
            assert into.metrics.counter("hits") == 2
        assert obs_api.active() is None
        assert run.metrics.counter("hits") == 1
        assert into.metrics.counter("hits") == 3

    def test_run_context_merges_a_failed_run(self):
        into = ObsContext()
        with pytest.raises(ValueError):
            with obs_api.run_context(into):
                obs_api.event("worker_error", shard=0)
                raise ValueError("boom")
        assert len(into.events_of("worker_error")) == 1

    def test_run_context_without_target(self):
        with obs_api.run_context(None) as run:
            obs_api.add("hits")
        assert run.metrics.counter("hits") == 1
