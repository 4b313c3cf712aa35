"""Tests for end-to-end query tracing (repro.obs tracing layer).

Covers: span identity and (de)serialization, context propagation across
the client / channel / oracle / server legs, Tracer root retention and
its drop counter, the TraceCollector state protocol, record_span's
simulated durations, cross-worker span ship-back through
``repro.parallel`` (workers=1 vs workers=2 parity on a real fig16 run),
the flight recorder's slowest-K retention, the Chrome trace-event and
NDJSON exporters (schema validation), and the metrics-diff perf gate —
as a library call and through the CLI with exit codes.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    UniquenessOracle,
    VisualPrintClient,
    VisualPrintConfig,
    VisualPrintServer,
)
from repro.evaluation.experiments import fig16_latency
from repro.network import UplinkChannel
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Span,
    TraceCollector,
    TraceContext,
    Tracer,
    chrome_trace_events,
    current_span,
    diff_metrics,
    format_trace,
    group_traces,
    isolated_trace_state,
    record_span,
    span_records,
    trace_span,
    use_collector,
    use_registry,
    use_trace_context,
    write_chrome_trace,
    write_ndjson,
)


def _finished_span(name: str, duration: float, **attrs) -> Span:
    span = Span(name)
    span.attributes.update(attrs)
    span.finish(duration_seconds=duration)
    return span


def _trace_with_duration(duration: float, tag: str):
    return group_traces([_finished_span("q", duration, tag=tag)])[0]


class TestSpanIdentity:
    def test_ids_unique_and_linked(self):
        tracer = Tracer()
        with tracer.span("frame") as frame:
            with tracer.span("sift") as sift:
                assert sift.trace_id == frame.trace_id
                assert sift.parent_id == frame.span_id
                assert sift.span_id != frame.span_id
        other = Tracer()
        with other.span("frame") as second:
            assert second.trace_id != frame.trace_id

    def test_context_property(self):
        span = _finished_span("frame", 0.1)
        context = span.context
        assert context == TraceContext(trace_id=span.trace_id, span_id=span.span_id)

    def test_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("frame", frame_index=3) as frame:
            with tracer.span("sift"):
                pass
            frame.set("kept", 20)
        rebuilt = Span.from_dict(frame.to_dict())
        assert rebuilt.trace_id == frame.trace_id
        assert rebuilt.span_id == frame.span_id
        assert rebuilt.attributes == {"frame_index": 3, "kept": 20}
        assert rebuilt.duration_seconds == pytest.approx(frame.duration_seconds)
        assert [c.name for c in rebuilt.children] == ["sift"]
        assert rebuilt.children[0].parent_id == frame.span_id
        assert rebuilt.start_unix == pytest.approx(frame.start_unix)

    def test_numpy_attributes_jsonable(self):
        span = _finished_span("q", 0.01, count=np.int64(7), score=np.float32(0.5))
        payload = json.dumps(span.to_dict())
        attrs = json.loads(payload)["attributes"]
        assert attrs["count"] == 7
        assert attrs["score"] == pytest.approx(0.5)

    def test_synthetic_finish(self):
        span = Span("transfer")
        span.finish(duration_seconds=2.5)
        assert span.finished
        assert span.duration_seconds == pytest.approx(2.5)
        assert span.end_unix == pytest.approx(span.start_unix + 2.5)


class TestPropagation:
    def test_ambient_context_links_new_roots(self):
        context = TraceContext(trace_id="t1", span_id="s1")
        collector = TraceCollector()
        with use_collector(collector):
            with use_trace_context(context):
                with trace_span("localize") as span:
                    pass
        assert span.trace_id == "t1"
        assert span.parent_id == "s1"
        assert collector.roots == [span]

    def test_none_context_is_noop(self):
        with use_trace_context(None):
            with trace_span("q") as span:
                pass
        assert span.parent_id is None

    def test_active_span_wins_over_ambient_context(self):
        with use_trace_context(TraceContext(trace_id="t1", span_id="s1")):
            with trace_span("outer") as outer:
                with trace_span("inner") as inner:
                    pass
        assert outer.trace_id == "t1"
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == "t1"

    def test_isolated_trace_state(self):
        with trace_span("outer") as outer:
            with isolated_trace_state():
                assert current_span() is None
                with trace_span("orphan") as orphan:
                    pass
            assert current_span() is outer
        assert orphan.trace_id != outer.trace_id
        assert orphan.parent_id is None

    def test_span_duration_histogram_mirrored(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with trace_span("oracle.lookup_batch"):
                pass
        assert registry.sketch("span_oracle_lookup_batch_seconds").count == 1


class TestTracerRetention:
    def test_roots_bounded_and_drops_counted(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, max_retained_roots=3)
        for index in range(5):
            with tracer.span("frame", frame_index=index):
                pass
        assert len(tracer.roots) == 3
        assert [r.attributes["frame_index"] for r in tracer.roots] == [2, 3, 4]
        assert tracer.roots_dropped == 2
        assert registry.counter("tracer_roots_dropped_total").value == 2

    def test_collector_still_sees_dropped_roots(self):
        collector = TraceCollector()
        tracer = Tracer(max_retained_roots=1)
        with use_collector(collector):
            for _ in range(4):
                with tracer.span("frame"):
                    pass
        assert len(collector.roots) == 4


class TestRecordSpan:
    def test_no_consumer_returns_none(self):
        assert record_span("network.transfer", 0.5) is None

    def test_collector_receives_synthetic_root(self):
        collector = TraceCollector()
        with use_collector(collector):
            span = record_span("network.transfer", 0.5, bytes=100)
        assert span is not None
        assert collector.roots == [span]
        assert span.duration_seconds == pytest.approx(0.5)

    def test_synthetic_child_extends_trace_extent(self):
        collector = TraceCollector()
        with use_collector(collector):
            with trace_span("query"):
                record_span("network.transfer", 1.5)
        trace = collector.traces()[0]
        assert trace.duration_seconds >= 1.5


class TestTraceCollector:
    def test_groups_by_trace_id(self):
        collector = TraceCollector()
        with use_collector(collector):
            with trace_span("frame") as frame:
                pass
            with use_trace_context(frame.context):
                record_span("network.transfer", 0.1)
            with trace_span("frame"):
                pass
        traces = collector.traces()
        assert len(traces) == 2  # the transfer joined the first frame
        assert {root.name for root in traces[0].roots} == {
            "frame",
            "network.transfer",
        }

    def test_bounded_with_drop_counter(self):
        registry = MetricsRegistry()
        collector = TraceCollector(registry=registry, max_roots=2)
        for index in range(5):
            collector.collect(_finished_span("q", 0.01, index=index))
        assert len(collector.roots) == 2
        assert collector.roots_dropped == 3
        assert registry.counter("trace_collector_roots_dropped_total").value == 3

    def test_state_round_trip(self):
        source = TraceCollector()
        with use_collector(source):
            with trace_span("frame", frame_index=1):
                with trace_span("sift"):
                    pass
        target = TraceCollector()
        target.merge_state(source.state())
        assert len(target.roots) == 1
        rebuilt = target.roots[0]
        assert rebuilt.trace_id == source.roots[0].trace_id
        assert [c.name for c in rebuilt.children] == ["sift"]
        assert target.state() == source.state()


class TestEndToEndTrace:
    """One query = one trace_id across client, channel, oracle, server."""

    def test_single_trace_id_across_all_legs(self, small_library):
        config = VisualPrintConfig(descriptor_capacity=50_000, fingerprint_size=20)
        registry = MetricsRegistry()
        oracle = UniquenessOracle(config, registry=registry)
        server = VisualPrintServer(config=config, registry=registry)
        client = VisualPrintClient(oracle, config, registry=registry)
        rng = np.random.default_rng(3)

        collector = TraceCollector(registry=registry)
        with use_collector(collector):
            # Wardrive one scene into both oracle and server.
            seed_keypoints = client.extract_keypoints(small_library.scene(0))
            oracle.insert(seed_keypoints.descriptors)
            server.ingest(
                seed_keypoints.descriptors,
                rng.uniform(0, 5, size=(len(seed_keypoints), 3)),
            )
            collector.clear()  # keep only the query's trace

            fingerprint = client.process_frame(small_library.query_view(0, 0))
            context = client.tracer.last_context()
            channel = UplinkChannel("t", bandwidth_mbps=8.0, jitter_sigma=0.0)
            with use_trace_context(context):
                channel.transfer_seconds(fingerprint.upload_bytes)
                oracle.lookup_batch(fingerprint.keypoints.descriptors[:4])
                server.localize(fingerprint)

        names = {root.name for root in collector.roots}
        assert names == {"frame", "network.transfer", "oracle.lookup_batch", "localize"}
        traces = collector.traces()
        assert len(traces) == 1  # every leg shares the frame's trace_id
        assert traces[0].trace_id == context.trace_id
        frame_root = next(r for r in collector.roots if r.name == "frame")
        assert [c.name for c in frame_root.children] == ["sift", "oracle", "serialize"]
        for root in collector.roots:
            if root is not frame_root:
                assert root.parent_id == context.span_id


def _fig16_roots(workers: int):
    collector = TraceCollector()
    with use_collector(collector):
        fig16_latency.run(
            seed=5,
            num_frames=4,
            image_size=128,
            fingerprint_size=20,
            workers=workers,
        )
    return collector


class TestPoolTraceShipBack:
    def test_workers_parity(self):
        serial = _fig16_roots(workers=1)
        pooled = _fig16_roots(workers=2)

        def summary(collector):
            return TallyCounter(
                (root.name, root.attributes.get("frame_index"))
                for root in collector.roots
            )

        assert summary(serial) == summary(pooled)
        for collector in (serial, pooled):
            frames = [r for r in collector.roots if r.name == "frame"]
            transfers = [r for r in collector.roots if r.name == "network.transfer"]
            assert len(frames) == 4
            assert len(transfers) == 4
            for frame in frames:
                assert [c.name for c in frame.children] == [
                    "sift",
                    "oracle",
                    "serialize",
                ]
                # Worker-produced roots carry their provenance labels.
                assert "worker" in frame.attributes
                assert "shard" in frame.attributes
            # Each parent-side transfer joined a worker-produced frame.
            assert {t.trace_id for t in transfers} == {f.trace_id for f in frames}
        assert {r.attributes["shard"] for r in pooled.roots if r.name == "frame"} == {
            0,
            1,
        }


    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig16_stage_samples_one_per_frame(self, workers):
        result = fig16_latency.run(
            seed=5, num_frames=4, image_size=128, fingerprint_size=20, workers=workers
        )
        assert len(result["sift_seconds"]) == 4
        assert len(result["oracle_seconds"]) == 4
        assert (result["sift_seconds"] > 0).all()


class TestFlightRecorder:
    def test_keeps_slowest_k(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(2, registry=registry)
        for duration, tag in [(0.1, "a"), (0.5, "b"), (0.05, "c"), (0.3, "d")]:
            recorder.observe(_trace_with_duration(duration, tag))
        kept = recorder.slowest()
        assert [t.roots[0].attributes["tag"] for t in kept] == ["b", "d"]
        assert kept[0].duration_seconds >= kept[1].duration_seconds
        assert recorder.evicted == 2
        assert registry.counter("flight_recorder_evicted_total").value == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_dump_mentions_traces(self):
        recorder = FlightRecorder(3)
        trace = _trace_with_duration(0.2, "x")
        recorder.observe(trace)
        dump = recorder.dump()
        assert trace.trace_id in dump
        assert "1/3 traces retained" in dump
        assert trace.trace_id in format_trace(trace)

    def test_to_dict_round_trips_json(self):
        recorder = FlightRecorder(2)
        recorder.observe_all([_trace_with_duration(0.1, "a")])
        payload = json.loads(json.dumps(recorder.to_dict()))
        assert payload["capacity"] == 2
        assert len(payload["traces"]) == 1


class TestExporters:
    def _sample_roots(self):
        collector = TraceCollector()
        with use_collector(collector):
            with trace_span("frame", frame_index=0) as frame:
                with trace_span("sift"):
                    pass
            with use_trace_context(frame.context):
                record_span("network.transfer", 0.25, bytes=512)
        return collector.roots

    def test_chrome_events_schema(self):
        events = chrome_trace_events(self._sample_roots())
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert isinstance(event["dur"], float) and event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["args"]["trace_id"]
            assert event["args"]["span_id"]
        # One query => one tid lane.
        assert len({event["tid"] for event in events}) == 1
        transfer = next(e for e in events if e["name"] == "network.transfer")
        assert transfer["dur"] == pytest.approx(250_000.0)  # microseconds

    def test_write_chrome_trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._sample_roots(), str(path))
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["metadata"]["base_unix_seconds"] > 0

    def test_empty_chrome_trace(self, tmp_path):
        assert chrome_trace_events([]) == []
        path = tmp_path / "empty.json"
        write_chrome_trace([], str(path))
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_ndjson_lines(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        roots = self._sample_roots()
        write_ndjson(roots, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(span_records(roots)) == 3
        assert all(line["type"] == "span" for line in lines)
        assert all("children" not in line for line in lines)
        assert {line["name"] for line in lines} == {
            "frame",
            "sift",
            "network.transfer",
        }


def _snapshot(**counters) -> dict:
    return {
        "counters": {
            name: {"value": value, "labels": {}} for name, value in counters.items()
        },
        "gauges": {},
        "sketches": {},
    }


class TestMetricsDiff:
    def test_identical_snapshots_pass(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.sketch("h").observe(1.0)
        snapshot = registry.to_dict()
        checked, violations = diff_metrics(snapshot, snapshot)
        assert checked == 2  # counter value + sketch count
        assert violations == []

    def test_regression_detected(self):
        checked, violations = diff_metrics(
            _snapshot(frames=100), _snapshot(frames=10), rel_tol=0.25
        )
        assert checked == 1
        assert len(violations) == 1
        assert violations[0].name == "frames"
        assert "frames" in violations[0].describe()

    def test_missing_metric_is_violation(self):
        _, violations = diff_metrics(_snapshot(frames=100), _snapshot())
        assert len(violations) == 1
        assert violations[0].current is None

    def test_within_tolerance_passes(self):
        _, violations = diff_metrics(
            _snapshot(frames=100), _snapshot(frames=110), rel_tol=0.25
        )
        assert violations == []

    def test_extra_current_metrics_ignored(self):
        _, violations = diff_metrics(
            _snapshot(frames=100), _snapshot(frames=100, extra=7)
        )
        assert violations == []

    def test_include_globs(self):
        checked, violations = diff_metrics(
            _snapshot(oracle_lookups=10, client_frames=5),
            _snapshot(oracle_lookups=10, client_frames=500),
            include=["oracle_*"],
        )
        assert checked == 1
        assert violations == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diff_metrics(_snapshot(), _snapshot(), rel_tol=-1.0)


class TestMetricsDiffCli:
    def _write(self, tmp_path, name, **counters):
        path = tmp_path / name
        path.write_text(json.dumps(_snapshot(**counters)))
        return str(path)

    def test_identical_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", frames=20)
        assert main(["metrics-diff", base, base]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", frames=100)
        cur = self._write(tmp_path, "cur.json", frames=1)
        assert main(["metrics-diff", base, cur]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "frames" in out

    def test_tolerance_flags(self, tmp_path):
        base = self._write(tmp_path, "base.json", frames=100)
        cur = self._write(tmp_path, "cur.json", frames=1)
        assert main(["metrics-diff", base, cur, "--abs-tol", "1000"]) == 0
        assert (
            main(["metrics-diff", base, cur, "--include", "nonexistent_*"]) == 0
        )


class TestCliTraceFlags:
    def test_fig16_trace_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        ndjson_path = tmp_path / "spans.ndjson"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "fig16",
                    "--fast",
                    "--trace-out",
                    str(trace_path),
                    "--trace-ndjson",
                    str(ndjson_path),
                    "--flight-recorder",
                    "3",
                    "--metrics-json",
                    str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "flight recorder" in out
        assert "chrome trace" in out

        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert events
        # Acceptance: one correlated trace per query — every frame's
        # trace_id also carries its channel transfer (and vice versa).
        by_trace: dict[str, set] = {}
        for event in events:
            assert event["ph"] == "X"
            by_trace.setdefault(event["args"]["trace_id"], set()).add(event["name"])
        frame_traces = [names for names in by_trace.values() if "frame" in names]
        assert len(frame_traces) == 6  # --fast fig16 runs 6 frames
        for names in frame_traces:
            assert {"frame", "sift", "oracle", "serialize", "network.transfer"} <= names

        lines = [json.loads(line) for line in ndjson_path.read_text().splitlines()]
        assert len(lines) == len(events)

        snapshot = json.loads(metrics_path.read_text())
        assert "span_frame_seconds" in snapshot["sketches"]
        assert "network_transfer_seconds" in str(snapshot)
