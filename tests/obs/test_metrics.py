"""Unit tests for the metrics registry: counters, gauges, histograms,
and the JSON-able dump/restore."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.metrics import (
    GAMMA,
    RELATIVE_ERROR,
    Histogram,
    bucket_index,
    bucket_value,
)

BOUND = RELATIVE_ERROR * (1 + 1e-9)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_rejects_negative_increments(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            MetricsRegistry().counter("x").inc(-1.0)


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("budget")
        gauge.set(10.0)
        gauge.set(4.0)
        assert gauge.value == 4.0


class TestHistogram:
    def test_summary_math(self):
        hist = MetricsRegistry().histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 10.0
        assert hist.mean == 2.5
        assert hist.min == 1.0
        assert hist.max == 4.0
        summary = hist.summary()
        assert summary["count"] == 4
        # order statistic of rank floor(0.5 * 3) = 1, within the bound
        assert summary["p50"] == pytest.approx(2.0, rel=BOUND)
        assert summary["max"] == 4.0

    def test_empty_summary_is_zeroed(self):
        summary = MetricsRegistry().histogram("empty").summary()
        assert summary == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
            "max": 0.0, "total": 0.0,
        }


class TestRoundTrip:
    def test_registry_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(2.0)
        registry.histogram("c").observe(6.0)

        restored = MetricsRegistry.from_dict(registry.to_dict())
        assert restored.counter("a").value == 3
        assert restored.gauge("b").value == 1.5
        assert restored.histogram("c").count == 2
        assert restored.histogram("c").summary() == (
            registry.histogram("c").summary()
        )

    def test_malformed_dump_raises(self):
        with pytest.raises(ObservabilityError, match="malformed"):
            MetricsRegistry.from_dict({"counters": {"a": {}}})

    def test_instrumentation_json_round_trip(self):
        from repro.obs import from_json, to_json

        obs = Instrumentation()
        obs.counter("n").inc()
        obs.event("audit_run", estimated_accuracy=0.5)
        restored = from_json(to_json(obs))
        assert restored.metrics.counter("n").value == 1
        (instant,) = restored.spans.roots
        assert instant.name == "audit_run"
        assert instant.attributes == {"estimated_accuracy": 0.5}


class TestMergeableBuckets:
    """The geometric bucket grid behind every published quantile."""

    def _hist(self, name="h"):
        return Histogram(name)

    def test_bucket_bounds_cover_each_observation(self):
        for value in (1e-9, 3.7e-4, 0.009999, 0.5, 1.0, 9.999, 42.0, 8.8e7):
            index = bucket_index(value)
            assert GAMMA ** (index - 1) < value * (1 + 1e-9)
            assert value <= GAMMA ** index * (1 + 1e-9)
            assert bucket_value(index) == pytest.approx(value, rel=BOUND)

    def test_degenerate_values_land_in_sentinel_buckets(self):
        # below the grid: the smallest subnormal shares the lowest bucket
        tiny = Histogram("tiny")
        tiny.observe(5e-324)
        assert bucket_index(5e-324) == bucket_index(1e-9)
        assert tiny.quantile(50) == 5e-324  # clamped to the exact min
        # zero and negatives share the bucket below the grid
        assert bucket_index(0.0) == bucket_index(-1.0) < bucket_index(5e-324)
        assert bucket_index(float("-inf")) == bucket_index(0.0)
        assert bucket_value(bucket_index(0.0)) == 0.0
        signed = Histogram("signed")
        for value in (-3.0, -1.0, 0.0, 2.0):
            signed.observe(value)
        assert signed.min == -3.0 and signed.total == -2.0
        assert signed.quantile(0) == 0.0  # the bucket reads as zero
        assert signed.quantile(100) == pytest.approx(2.0, rel=BOUND)
        negative = Histogram("negative")
        negative.observe(-2.0)
        assert negative.quantile(50) == -2.0  # clamped to [min, max]
        # above the grid: 1e300 and +inf share the top bucket
        assert bucket_index(1e300) == bucket_index(float("inf"))
        infinite = Histogram("inf")
        infinite.observe(float("inf"))
        assert infinite.quantile(50) == float("inf")
        # NaN would poison total and mean: rejected, nothing recorded
        with pytest.raises(ObservabilityError, match="NaN"):
            infinite.observe(float("nan"))
        assert infinite.count == 1
        assert sum(infinite.buckets.values()) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-9, max_value=1e9),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=0.0, max_value=100.0),
        st.integers(min_value=1, max_value=4),
    )
    def test_quantile_is_within_the_bound_and_merges_exactly(
        self, values, q, parts
    ):
        whole = Histogram("whole")
        shards = [Histogram(f"part{i}") for i in range(parts)]
        for i, value in enumerate(values):
            whole.observe(value)
            shards[i % parts].observe(value)
        ordered = sorted(values)
        exact = ordered[math.floor(q / 100.0 * (len(values) - 1))]
        assert abs(whole.quantile(q) - exact) <= BOUND * exact
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        assert merged.count == whole.count
        assert (merged.min, merged.max) == (whole.min, whole.max)
        assert merged.buckets == whole.buckets
        assert merged.quantile(q) == whole.quantile(q)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=1e-12, max_value=1e12),
                st.sampled_from([0.0, -1.0]),
            ),
            max_size=200,
        ),
        st.lists(st.floats(min_value=-10.0, max_value=110.0), max_size=6),
    )
    def test_quantiles_equal_separate_quantile_calls(self, values, qs):
        hist = self._hist()
        for value in values:
            hist.observe(value)

        def one_pass(q):  # the single-quantile bucket walk
            if not hist.count:
                return 0.0
            rank = q / 100.0 * (hist.count - 1)
            cumulative = 0
            for index in sorted(hist.buckets):
                cumulative += hist.buckets[index]
                if cumulative > rank:
                    break
            return min(max(bucket_value(index), hist.min), hist.max)

        expected = tuple(one_pass(q) for q in qs)
        assert hist.quantiles(*qs) == expected
        assert tuple(hist.quantile(q) for q in qs) == expected

    def test_quantile_reads_buckets_and_clamps_to_extrema(self):
        hist = self._hist()
        for value in [0.001] * 98 + [0.5, 2.0]:
            hist.observe(value)
        assert hist.quantile(50) == pytest.approx(0.001, rel=0.15)
        # rank 98.01 of 100 lands on the 0.5 straggler, like numpy's
        # interpolated percentile would
        assert hist.quantile(99) == pytest.approx(0.5, rel=0.15)
        assert hist.quantile(100) == pytest.approx(2.0)
        assert hist.quantile(0) >= hist.min
        assert hist.quantile(100) <= hist.max

    def test_merge_is_exact_on_counts_extrema_and_buckets(self):
        a, b = self._hist("a"), self._hist("b")
        for value in (0.01, 0.02, 0.04):
            a.observe(value)
        for value in (1.0, 2.0):
            b.observe(value)
        a.merge(b)
        assert a.count == 5
        assert a.total == pytest.approx(3.07)
        assert a.min == pytest.approx(0.01)
        assert a.max == pytest.approx(2.0)
        assert sum(a.buckets.values()) == 5
        # merged quantiles see both shards' territory
        assert a.quantile(99) > 0.5
        assert a.quantile(10) < 0.1

    def test_merge_with_empty_is_identity(self):
        a, b = self._hist("a"), self._hist("b")
        a.observe(1.0)
        before = a.to_dict()
        a.merge(b)
        assert a.to_dict() == before

    def test_merged_quantiles_match_a_single_big_histogram(self):
        whole = self._hist("whole")
        parts = [self._hist(f"part{i}") for i in range(4)]
        values = [0.001 * (i + 1) for i in range(400)]
        for i, value in enumerate(values):
            whole.observe(value)
            parts[i % 4].observe(value)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        for q in (50, 90, 95, 99):
            assert merged.quantile(q) == whole.quantile(q)

    def test_merge_dict_round_trip(self):
        import json

        hist = self._hist()
        for value in (0.003, 0.3, 33.0):
            hist.observe(value)
        # the one dump form is JSON-safe (string bucket keys)
        dump = json.loads(json.dumps(hist.to_dict()))
        restored = Histogram.from_dict("h", dump)
        assert restored.count == hist.count
        assert restored.buckets == hist.buckets
        assert restored.quantile(50) == hist.quantile(50)
        assert restored.to_dict() == hist.to_dict()

    def test_malformed_merge_dict_raises(self):
        good = {"gamma": GAMMA, "count": 1, "total": 1.0, "min": 1.0,
                "max": 1.0, "buckets": {"0": 1}}
        Histogram.from_dict("h", good)
        for bad in (
            {"total": 1.0},
            {**good, "buckets": {"x": "y"}},
            {**good, "buckets": {"0": 2}},  # counts disagree with count
            {**good, "min": None},
            "not a dict",
        ):
            with pytest.raises(ObservabilityError, match="malformed"):
                Histogram.from_dict("h", bad)
        # a dump built on another grid is refused, not misread
        for gamma in (None, 1.1):
            with pytest.raises(ObservabilityError, match="gamma"):
                Histogram.from_dict("h", {**good, "gamma": gamma})

    def test_registry_dump_restores_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(0.25)
        restored = MetricsRegistry.from_dict(registry.to_dict())
        assert restored.histogram("lat").buckets == (
            registry.histogram("lat").buckets
        )
        assert restored.histogram("lat").quantile(50) == pytest.approx(
            registry.histogram("lat").quantile(50)
        )

    def test_prometheus_and_fleet_aggregator_print_the_same_quantiles(self):
        from repro.obs.distributed import (
            REQUEST_LATENCY_METRIC,
            TelemetryAggregator,
        )
        from repro.obs.export import prometheus_text

        obs = Instrumentation()
        hist = obs.histogram(REQUEST_LATENCY_METRIC)
        for i in range(500):
            hist.observe(1e-4 * (1 + i * 37 % 101))
        aggregator = TelemetryAggregator()
        aggregator.ingest(
            {"shard": "0", "ts": 1.0, "metrics": obs.metrics.to_dict()}
        )

        def quantile_lines(text):
            return [line for line in text.splitlines() if "quantile=" in line]

        process = quantile_lines(prometheus_text(obs))
        assert len(process) == 3
        assert quantile_lines(aggregator.prometheus()) == process
