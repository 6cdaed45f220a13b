"""Unit tests for repro.obs.counters."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.counters import MetricSet, validate_metric_name


class TestValidation:
    def test_accepts_prometheus_names(self):
        validate_metric_name("addr_days_total")
        validate_metric_name("_private")
        validate_metric_name("X9")

    @pytest.mark.parametrize("name", ["", "9lives", "a-b", "a.b", "a b"])
    def test_rejects_bad_names(self, name):
        with pytest.raises(ObservabilityError):
            validate_metric_name(name)


class TestCounters:
    def test_default_increment_is_one(self):
        m = MetricSet()
        m.add("hits")
        m.add("hits")
        assert m.counter("hits") == 2

    def test_unset_counter_reads_zero(self):
        assert MetricSet().counter("nothing") == 0

    def test_negative_increment_rejected(self):
        m = MetricSet()
        with pytest.raises(ObservabilityError):
            m.add("hits", -1)
        assert m.counter("hits") == 0

    def test_counters_property_is_a_copy(self):
        m = MetricSet()
        m.add("hits")
        m.counters["hits"] = 99
        assert m.counter("hits") == 1


class TestGauges:
    def test_set_overwrites(self):
        m = MetricSet()
        m.set_gauge("workers", 4)
        m.set_gauge("workers", 2)
        assert m.gauge("workers") == 2.0

    def test_unset_gauge_is_none(self):
        assert MetricSet().gauge("nothing") is None


class TestMerge:
    def test_counters_sum_gauges_max(self):
        a, b = MetricSet(), MetricSet()
        a.add("hits", 3)
        b.add("hits", 4)
        b.add("only_b", 1)
        a.set_gauge("rss", 100)
        b.set_gauge("rss", 50)
        b.set_gauge("new", 7)
        a.merge(b)
        assert a.counter("hits") == 7
        assert a.counter("only_b") == 1
        assert a.gauge("rss") == 100.0
        assert a.gauge("new") == 7.0

    def test_merge_of_parts_equals_whole(self):
        whole = MetricSet()
        parts = [MetricSet() for _ in range(4)]
        for index, part in enumerate(parts):
            part.add("work", index + 1)
            whole.add("work", index + 1)
        merged = MetricSet()
        for part in parts:
            merged.merge(part)
        assert merged.counters == whole.counters

    def test_dict_roundtrip(self):
        m = MetricSet()
        m.add("hits", 3)
        m.set_gauge("rss", 1.5)
        restored = MetricSet.from_dict(m.as_dict())
        assert restored.counters == m.counters
        assert restored.gauges == m.gauges

    def test_from_dict_validates_names(self):
        with pytest.raises(ObservabilityError):
            MetricSet.from_dict({"counters": {"bad name": 1}})

