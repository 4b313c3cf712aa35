"""Tests for the observability layer (repro.obs) and its pipeline wiring.

Covers: the deprecated histogram() accessor, Prometheus escaping and
round-trip, the instrument inventory of one frame plus one query, span
nesting, the contextual registry, removal of the ClientStats /
median_latency deprecation-cycle shims, oracle lookup_batch vs scalar
lookup (including a hypothesis property for counts), incremental
LshIndex.insert equivalence, and the CLI --metrics-json path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UniquenessOracle, VisualPrintClient, VisualPrintConfig
from repro.features.keypoint import KeypointSet
from repro.lsh import LshIndex
from repro.network import CHANNEL_PRESETS
from repro.obs import (
    Counter,
    MetricsRegistry,
    QuantileSketch,
    TraceCollector,
    current_registry,
    current_span,
    parse_prometheus,
    trace_span,
    use_collector,
    use_registry,
)
from repro.wardrive.environment import random_sift_descriptor


@pytest.fixture(scope="module")
def config():
    return VisualPrintConfig(descriptor_capacity=20_000, fingerprint_size=20)


@pytest.fixture(scope="module")
def trained_oracle(config, descriptors_1k):
    oracle = UniquenessOracle(config)
    for _ in range(5):
        oracle.insert(descriptors_1k[:100])
    oracle.insert(descriptors_1k[100:400])
    return oracle


def _keypoints_from(descriptors):
    n = descriptors.shape[0]
    return KeypointSet(
        positions=np.zeros((n, 2), np.float32),
        scales=np.ones(n, np.float32),
        orientations=np.zeros(n, np.float32),
        responses=np.ones(n, np.float32),
        descriptors=descriptors.astype(np.float32),
    )


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("frames_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("saturation")
        gauge.set(0.5)
        gauge.inc(0.25)
        gauge.dec(0.5)
        assert gauge.value == pytest.approx(0.25)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", stage="x") is not registry.counter("a")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_disabled_registry_hands_out_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a")
        counter.inc(10)
        assert counter.value == 0.0
        sketch = registry.sketch("h")
        sketch.observe(1.0)
        assert sketch.count == 0
        assert len(registry) == 0


class TestHistogram:
    """A latency distribution from ``MetricsRegistry.sketch()``."""

    def _histogram(self, registry: MetricsRegistry | None = None):
        registry = MetricsRegistry() if registry is None else registry
        return registry.sketch("h")

    def test_quantiles_on_known_distribution(self):
        histogram = self._histogram()
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.quantile(0.0) == pytest.approx(1.0, rel=0.01)
        assert histogram.quantile(1.0) == pytest.approx(100.0, rel=0.01)
        assert histogram.quantile(0.5) == pytest.approx(50.0, rel=0.01)
        assert histogram.quantile(0.9) == pytest.approx(90.0, rel=0.01)
        assert histogram.count == 100
        assert histogram.sum == pytest.approx(5050.0)
        assert histogram.mean == pytest.approx(50.5)

    def test_quantile_bounds_checked(self):
        histogram = self._histogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_empty_histogram_quantiles_zero(self):
        histogram = self._histogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantiles() == {0.5: 0.0, 0.99: 0.0, 0.999: 0.0}


class TestPrometheus:
    def test_escaping_of_label_values_and_help(self):
        registry = MetricsRegistry()
        registry.counter(
            "weird_total",
            help='has "quotes", back\\slash\nand newline',
            path='c:\\temp\n"quoted"',
        ).inc(3)
        text = registry.to_prometheus()
        assert '\\"quoted\\"' in text
        assert "c:\\\\temp\\n" in text
        assert "# HELP weird_total" in text
        assert "\\nand newline" in text
        parsed = parse_prometheus(text)
        assert parsed == registry.samples()
        assert parsed[0][1] == (("path", 'c:\\temp\n"quoted"'),)

    def test_round_trip_full_registry(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="a counter").inc(7)
        registry.gauge("g", help="a gauge").set(-2.5)
        sketch = registry.sketch("h_seconds", stage="sift")
        for value in (0.05, 0.5, 5.0):
            sketch.observe(value)
        text = registry.to_prometheus()
        assert "# TYPE h_seconds summary" in text
        assert 'h_seconds_count{stage="sift"} 3' in text
        parsed = parse_prometheus(text)
        assert parsed == registry.samples()

    def test_infinite_bucket_value_renders(self):
        registry = MetricsRegistry()
        registry.sketch("h").observe(1e30)  # far beyond any latency scale
        samples = dict(
            ((name, labels), value)
            for name, labels, value in parse_prometheus(registry.to_prometheus())
        )
        assert samples[("h", (("quantile", "0.5"),))] == pytest.approx(1e30, rel=0.01)
        assert samples[("h_count", ())] == 1.0


class TestJsonSnapshot:
    def test_to_dict_and_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("frames_total").inc(2)
        registry.sketch("lat_seconds").observe(0.01)
        path = tmp_path / "metrics.json"
        registry.write_json(str(path))
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["frames_total"]["value"] == 2
        assert set(snapshot) == {"counters", "gauges", "sketches"}
        sketch = snapshot["sketches"]["lat_seconds"]
        assert sketch["count"] == 1
        assert sketch["p50"] == pytest.approx(0.01, rel=0.01)
        assert sketch["max"] == pytest.approx(0.01)

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.sketch("h").observe(1.0)
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.sketch("h").count == 0
        assert len(registry) == 2


class TestSpans:
    def test_nesting_and_durations(self):
        with trace_span("frame") as frame:
            with trace_span("sift"):
                pass
            with trace_span("oracle") as oracle_span:
                with trace_span("quantize"):
                    pass
        assert [child.name for child in frame.children] == ["sift", "oracle"]
        assert oracle_span.child("quantize") is not None
        assert frame.finished
        assert frame.duration_seconds >= sum(
            child.duration_seconds for child in frame.children
        ) * 0.5  # children nest inside the parent's wall-clock
        assert current_span() is None

    def test_span_attributes_and_dict(self):
        with trace_span("frame", frame_index=3) as span:
            span.set("keypoints", 42)
        tree = span.to_dict()
        assert tree["attributes"] == {"frame_index": 3, "keypoints": 42}
        assert tree["children"] == []

    def test_tracer_mirrors_into_registry(self):
        registry = MetricsRegistry()
        with trace_span("frame", registry=registry):
            with trace_span("sift", registry=registry):
                pass
        assert registry.sketch("span_frame_seconds").count == 1
        assert registry.sketch("span_sift_seconds").count == 1

    def test_sibling_roots_are_retained_in_order(self):
        collector = TraceCollector()
        with use_collector(collector):
            with trace_span("a"):
                pass
            with trace_span("b"):
                pass
        assert [root.name for root in collector.roots] == ["a", "b"]


class TestContextualRegistry:
    def test_use_registry_scopes(self):
        registry = MetricsRegistry()
        assert current_registry() is None
        with use_registry(registry):
            assert current_registry() is registry
            inner = MetricsRegistry()
            with use_registry(inner):
                assert current_registry() is inner
            assert current_registry() is registry
        assert current_registry() is None

    def test_components_report_into_contextual_registry(self, config, descriptors_1k):
        registry = MetricsRegistry()
        with use_registry(registry):
            oracle = UniquenessOracle(config)
            client = VisualPrintClient(oracle, config)
        oracle.insert(descriptors_1k[:100])
        client.fingerprint_keypoints(_keypoints_from(descriptors_1k[:50]))
        assert client.metrics is registry
        assert oracle.metrics is registry
        assert registry.counter("client_frames_total").value == 1
        assert registry.counter("oracle_descriptors_inserted_total").value == 100

    def test_channel_records_only_under_context(self):
        channel = CHANNEL_PRESETS["wifi"]
        channel.transfer_seconds(1000)  # no context: must not blow up
        registry = MetricsRegistry()
        with use_registry(registry):
            channel.transfer_seconds(1000)
        sketch = registry.get(
            "network_transfer_seconds", channel="wifi", direction="up"
        )
        assert sketch is not None and sketch.count == 1
        counter = registry.get("network_upload_bytes_total", channel="wifi")
        assert counter.value == 1000


class TestClientMetricsApi:
    def test_latency_quantiles(self, trained_oracle, config, descriptors_1k):
        client = VisualPrintClient(trained_oracle, config)
        client.fingerprint_keypoints(_keypoints_from(descriptors_1k[:50]))
        quantiles = client.latency_quantiles("oracle")
        assert set(quantiles) == {0.5, 0.9, 0.99}
        assert quantiles[0.5] > 0.0
        assert client.latency_quantiles("sift")[0.5] == 0.0  # no sift ran
        with pytest.raises(ValueError):
            client.latency_quantiles("gpu")

    def test_upload_accounting(self, trained_oracle, config, descriptors_1k):
        client = VisualPrintClient(trained_oracle, config)
        client.fingerprint_keypoints(_keypoints_from(descriptors_1k[:50]))
        registry = client.metrics
        assert registry.counter("client_keypoints_uploaded_total").value == 20
        assert registry.counter("client_upload_bytes_total").value > 0
        assert registry.sketch("client_upload_bytes").count == 1
        assert registry.sketch("span_serialize_seconds").count == 1

    def test_frame_spans_nest_stages(self, trained_oracle, config, descriptors_1k):
        client = VisualPrintClient(trained_oracle, config)
        image = np.zeros((32, 32), dtype=np.float64)
        client.process_frame(image, frame_index=5)
        root = client.last_frame_span
        assert root.name == "frame"
        assert root.attributes["frame_index"] == 5
        assert root.child("sift") is not None
        assert root.child("serialize") is not None


class TestInstrumentInventory:
    """One timer per region: spans time the stages, nothing times them twice."""

    def test_one_frame_and_one_query(self):
        from repro.imaging.synth import SceneLibrary
        from repro.serving.synthetic import synthetic_venue_server

        registry = MetricsRegistry()
        with use_registry(registry):
            server = synthetic_venue_server(np.random.default_rng(3))
            client = VisualPrintClient(server.publish_oracle())
        library = SceneLibrary(seed=3, num_scenes=2, num_distractors=2, size=(96, 96))
        fingerprint = client.process_frame(library.scene(0))
        assert len(fingerprint) > 0
        server.localize(fingerprint)
        for stage in ("frame", "sift", "oracle", "serialize", "localize"):
            sketch = registry.get(f"span_{stage}_seconds")
            assert isinstance(sketch, QuantileSketch), stage
            assert sketch.count == 1, stage
        names = {instrument.name for instrument in registry.instruments()}
        assert not [n for n in names if n.startswith("client_") and n.endswith("_seconds")]
        assert "server_localize_seconds" not in names
        assert "oracle_lookup_seconds" not in names
        assert "histograms" not in registry.to_dict()


class TestDeprecationCycleComplete:
    """The ClientStats / median_latency shims finished their cycle."""

    def test_shims_are_gone(self, trained_oracle, config):
        import repro.core.client as client_module

        client = VisualPrintClient(trained_oracle, config)
        assert not hasattr(client_module, "ClientStats")
        assert not hasattr(client, "stats")
        assert not hasattr(client, "median_latency")
        assert "ClientStats" not in client_module.__all__

    def test_replacement_surface(self, trained_oracle, config, descriptors_1k):
        client = VisualPrintClient(trained_oracle, config)
        client.fingerprint_keypoints(_keypoints_from(descriptors_1k[:50]))
        client.fingerprint_keypoints(_keypoints_from(descriptors_1k[50:100]))
        assert client.metrics.counter("client_frames_total").value == 2
        assert client.metrics.counter("client_keypoints_extracted_total").value == 100
        assert client.metrics.counter("client_upload_bytes_total").value > 0
        quantiles = client.latency_quantiles("oracle")
        assert set(quantiles) == {0.5, 0.9, 0.99}
        with pytest.raises(ValueError):
            client.latency_quantiles("gpu")


class TestOracleLookupBatch:
    def test_batch_matches_scalar(self, trained_oracle, descriptors_1k):
        batch = descriptors_1k[:40]
        batched = trained_oracle.lookup_batch(batch)
        for row, result in enumerate(batched):
            assert result == trained_oracle.lookup(batch[row])

    def test_empty_batch(self, trained_oracle):
        assert trained_oracle.lookup_batch(np.empty((0, 128), np.float32)) == []

    def test_rejects_non_2d(self, trained_oracle, descriptors_1k):
        with pytest.raises(ValueError):
            trained_oracle.lookup_batch(descriptors_1k[0])

    def test_lookup_instrumentation(self, config, descriptors_1k):
        oracle = UniquenessOracle(config, registry=MetricsRegistry())
        oracle.insert(descriptors_1k[:200])
        oracle.lookup_batch(descriptors_1k[:25])
        registry = oracle.metrics
        assert registry.counter("oracle_lookups_total").value == 25
        assert registry.sketch("span_oracle_lookup_batch_seconds").count == 1
        assert registry.counter("oracle_descriptors_inserted_total").value == 200
        assert 0.0 <= registry.gauge("oracle_counter_saturation").value <= 1.0

    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_counts_equals_lookup_count_property(self, seed, count):
        """Vectorized counts(D)[i] agrees with scalar lookup(D[i]).count."""
        rng = np.random.default_rng(seed)
        config = VisualPrintConfig(descriptor_capacity=5_000)
        oracle = UniquenessOracle(config)
        oracle.insert(
            np.array([random_sift_descriptor(rng) for _ in range(100)])
        )
        queries = np.array([random_sift_descriptor(rng) for _ in range(count)])
        counts = oracle.counts(queries)
        batched = oracle.lookup_batch(queries)
        for row in range(count):
            assert counts[row] == oracle.lookup(queries[row]).count
            assert batched[row].count == counts[row]


class TestLshIncrementalInsert:
    def test_insert_matches_build(self, descriptors_1k):
        built = LshIndex(seed=3)
        built.build(descriptors_1k, np.arange(1000))

        incremental = LshIndex(seed=3)
        for start in range(0, 1000, 130):
            chunk = descriptors_1k[start : start + 130]
            incremental.insert(
                chunk, np.arange(start, start + chunk.shape[0])
            )

        assert incremental.size == built.size == 1000
        queries = descriptors_1k[::97]
        for built_matches, incremental_matches in zip(
            built.query_batch(queries, num_neighbors=3),
            incremental.query_batch(queries, num_neighbors=3),
        ):
            assert built_matches == incremental_matches

    def test_insert_validates_shapes(self, descriptors_1k):
        index = LshIndex(seed=3)
        with pytest.raises(ValueError):
            index.insert(descriptors_1k[:10], np.arange(9))
        index.insert(descriptors_1k[:10], np.arange(10))
        with pytest.raises(ValueError):
            index.insert(np.zeros((4, 64), np.float32), np.arange(4))

    def test_empty_insert_is_noop(self):
        index = LshIndex(seed=3)
        index.insert(np.empty((0, 128), np.float32), np.empty(0, np.int64))
        assert index.size == 0
        with pytest.raises(RuntimeError):
            index.query(np.zeros(128, np.float32))

    def test_memory_accounting_after_inserts(self, descriptors_1k):
        index = LshIndex(seed=3)
        index.insert(descriptors_1k[:500], np.arange(500))
        assert index.memory_bytes() > descriptors_1k[:500].astype(np.float32).nbytes


class TestCliMetrics:
    def test_fig16_fast_writes_metrics_json(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "out.json"
        prom_path = tmp_path / "out.prom"
        assert (
            main(
                [
                    "fig16",
                    "--fast",
                    "--metrics-json",
                    str(json_path),
                    "--metrics-prom",
                    str(prom_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "=== metrics" in out
        snapshot = json.loads(json_path.read_text())
        sketches = snapshot["sketches"]
        assert sketches["span_sift_seconds"]["count"] > 0
        assert sketches["span_oracle_seconds"]["count"] > 0
        transfer_keys = [k for k in sketches if k.startswith("network_transfer_seconds")]
        assert transfer_keys and sketches[transfer_keys[0]]["count"] > 0
        assert snapshot["counters"]["client_upload_bytes_total"]["value"] > 0
        # The Prometheus rendering round-trips the same registry.
        parsed = parse_prometheus(prom_path.read_text())
        by_name = {name for name, _, _ in parsed}
        assert "span_sift_seconds_count" in by_name
        assert "client_upload_bytes_total" in by_name

class TestMetricsDiffEdgeCases:
    """The diff gate's corner cases: missing scalars, zero baselines,
    non-finite values (satellite coverage for repro.obs.diff)."""

    def _snap(self, **counters):
        return {
            "counters": {
                name: {"value": value} for name, value in counters.items()
            }
        }

    def test_baseline_metric_missing_in_current_is_violation(self):
        from repro.obs import diff_metrics

        checked, violations = diff_metrics(
            self._snap(frames_total=5.0), self._snap()
        )
        assert checked == 1
        assert len(violations) == 1
        assert violations[0].current is None
        assert "missing" in violations[0].describe()

    def test_current_only_metric_is_ignored(self):
        from repro.obs import diff_metrics

        checked, violations = diff_metrics(
            self._snap(), self._snap(new_counter=7.0)
        )
        assert checked == 0 and violations == []

    def test_zero_baseline_relative_tolerance(self):
        from repro.obs import diff_metrics

        # rel_tol scales with |baseline| = 0, so any drift from a zero
        # baseline needs abs_tol to pass.
        _, violations = diff_metrics(
            self._snap(errors_total=0.0), self._snap(errors_total=1.0)
        )
        assert len(violations) == 1
        _, violations = diff_metrics(
            self._snap(errors_total=0.0),
            self._snap(errors_total=1.0),
            abs_tol=1.0,
        )
        assert violations == []
        # An exactly-zero current matches a zero baseline at any tolerance.
        _, violations = diff_metrics(
            self._snap(errors_total=0.0), self._snap(errors_total=0.0)
        )
        assert violations == []

    def test_nan_current_is_violation(self):
        from repro.obs import diff_metrics

        _, violations = diff_metrics(
            self._snap(ratio=1.0), self._snap(ratio=float("nan"))
        )
        assert len(violations) == 1

    def test_nan_baseline_matched_by_nan_current(self):
        from repro.obs import diff_metrics

        _, violations = diff_metrics(
            self._snap(ratio=float("nan")), self._snap(ratio=float("nan"))
        )
        assert violations == []
        _, violations = diff_metrics(
            self._snap(ratio=float("nan")), self._snap(ratio=1.0)
        )
        assert len(violations) == 1

    def test_matching_infinities_pass_diverging_fail(self):
        from repro.obs import diff_metrics

        inf = float("inf")
        _, violations = diff_metrics(
            self._snap(peak=inf), self._snap(peak=inf)
        )
        assert violations == []
        _, violations = diff_metrics(
            self._snap(peak=inf), self._snap(peak=1.0)
        )
        assert len(violations) == 1  # inf - 1 = inf > any allowed
        _, violations = diff_metrics(
            self._snap(peak=1.0), self._snap(peak=inf)
        )
        assert len(violations) == 1

    def test_sketch_counts_enter_the_contract(self):
        from repro.obs import diff_metrics, scalar_samples

        registry = MetricsRegistry()
        registry.sketch("e2e_seconds").observe(0.5)
        snapshot = registry.to_dict()
        assert scalar_samples(snapshot)["e2e_seconds.count"] == 1.0
        _, violations = diff_metrics(snapshot, registry.to_dict())
        assert violations == []


class TestLabelCardinalityGuard:
    def test_new_label_sets_collapse_past_the_cap(self):
        registry = MetricsRegistry(max_label_sets=3)
        for index in range(3):
            registry.counter("requests_total", venue=f"v{index}").inc()
        overflow = registry.counter("requests_total", venue="v3")
        assert overflow.labels == {"overflow": "true"}
        overflow.inc(2)
        # Every further new label set lands on the same overflow instrument.
        assert registry.counter("requests_total", venue="v4") is overflow
        dropped = registry.counter(
            "metrics_label_sets_dropped_total", metric="requests_total"
        )
        assert dropped.value == 2

    def test_existing_label_sets_unaffected_by_cap(self):
        registry = MetricsRegistry(max_label_sets=2)
        first = registry.counter("requests_total", venue="a")
        registry.counter("requests_total", venue="b")
        registry.counter("requests_total", venue="c")  # capped
        assert registry.counter("requests_total", venue="a") is first

    def test_cap_is_per_metric_name(self):
        registry = MetricsRegistry(max_label_sets=1)
        registry.counter("a_total", venue="x")
        other = registry.counter("b_total", venue="x")
        assert other.labels == {"venue": "x"}

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_label_sets=0)

    def test_default_cap_is_roomy(self):
        from repro.obs import DEFAULT_MAX_LABEL_SETS

        assert MetricsRegistry().max_label_sets == DEFAULT_MAX_LABEL_SETS
        assert DEFAULT_MAX_LABEL_SETS >= 1000
