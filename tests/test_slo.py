"""Tests for the SLO engine, event log, and live-dashboard rendering.

Covers: objective validation and good/bad classification, sliding
window eviction, multi-window burn-rate alerting (edge-triggered, one
alert per excursion, min_events suppression), the published
``slo_budget_remaining`` / ``slo_burn_rate`` / ``slo_burn_alerts_total``
instruments, report/write_json, the contextual tracker resolved by the
serving frontend (per-venue and per-shard scopes, reject and failure
outcomes), the structured :class:`EventLog` (trace correlation,
capacity trim, NDJSON round trip, parallel ship-back), the ``repro
top`` renderer, and the ``top`` / ``slo-report`` CLI subcommands.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.network.faults import FaultSpec, FaultyChannel, RetryPolicy, submit_payload
from repro.obs import (
    EventLog,
    MetricsRegistry,
    SloObjective,
    SloTracker,
    Tracer,
    current_event_log,
    current_slo_tracker,
    default_objectives,
    emit_event,
    parse_metric_key,
    render_dashboard,
    run_top,
    use_event_log,
    use_slo_tracker,
)
from repro.parallel import parallel_map
from repro.serving import ServingFrontend, ShardSaturatedError
from repro.util.rng import rng_for


class _Echo:
    def serve(self, payload):
        return ("echo", payload)


def _fast_objective(**overrides) -> SloObjective:
    """A tiny availability objective that alerts quickly in tests."""
    defaults = dict(
        name="avail",
        target=0.9,
        window_seconds=60.0,
        fast_window_seconds=10.0,
        fast_burn_threshold=2.0,
        slow_burn_threshold=1.0,
        min_events=5,
    )
    defaults.update(overrides)
    return SloObjective(**defaults)


# ---------------------------------------------------------------------------
# Worker body must be module-level so the pool can pickle it.
# ---------------------------------------------------------------------------


def _emit_one(value: int) -> int:
    emit_event("test.tick", value=value)
    return value


class TestSloObjective:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloObjective(name="", target=0.9)
        with pytest.raises(ValueError):
            SloObjective(name="x", target=1.0)  # zero budget
        with pytest.raises(ValueError):
            SloObjective(name="x", target=-0.1)
        with pytest.raises(ValueError):
            SloObjective(name="x", target=0.9, threshold_seconds=0.0)
        with pytest.raises(ValueError):
            SloObjective(
                name="x", target=0.9, window_seconds=10.0, fast_window_seconds=20.0
            )

    def test_budget(self):
        assert SloObjective(name="x", target=0.99).budget == pytest.approx(0.01)

    def test_latency_classification(self):
        objective = SloObjective(name="lat", target=0.9, threshold_seconds=1.0)
        assert objective.is_good(True, 0.5)
        assert not objective.is_good(True, 1.5)
        assert not objective.is_good(False, 0.5)
        assert objective.is_good(True, None)  # no latency signal, success

    def test_availability_classification(self):
        objective = SloObjective(name="avail", target=0.9)
        assert objective.is_good(True, 99.0)  # latency irrelevant
        assert not objective.is_good(False, None)

    def test_default_objectives(self):
        latency, availability = default_objectives(latency_threshold_seconds=0.5)
        assert latency.threshold_seconds == 0.5
        assert availability.threshold_seconds is None
        assert latency.target == 0.99 and availability.target == 0.999


class TestSloTracker:
    def test_duplicate_objective_rejected(self):
        with pytest.raises(ValueError):
            SloTracker([_fast_objective(), _fast_objective()])
        tracker = SloTracker([_fast_objective()])
        with pytest.raises(ValueError):
            tracker.add_objective(_fast_objective())

    def test_budget_gauges_published(self):
        registry = MetricsRegistry()
        tracker = SloTracker([_fast_objective()], registry=registry)
        for i in range(10):
            tracker.record(ok=(i != 0), now=float(i), venue="office")
        remaining = registry.gauge(
            "slo_budget_remaining", objective="avail", venue="office"
        ).value
        # 1 bad / 10 events = 10% error rate = exactly the 10% budget.
        assert remaining == pytest.approx(0.0)

    def test_window_eviction(self):
        tracker = SloTracker([_fast_objective()])
        tracker.record(ok=False, now=0.0, venue="v")
        for i in range(1, 10):
            tracker.record(ok=True, now=float(i), venue="v")
        # Push time past the 60s window: the early failure ages out.
        for i in range(10):
            tracker.record(ok=True, now=100.0 + i, venue="v")
        scope = tracker.report()["objectives"][0]["scopes"][0]
        assert scope["window_bad"] == 0
        assert scope["total_bad"] == 1  # lifetime counters never evict

    def test_burn_alert_fires_once_per_excursion(self):
        registry = MetricsRegistry()
        events = EventLog()
        tracker = SloTracker([_fast_objective()], registry=registry)
        with use_event_log(events):
            for i in range(8):
                tracker.record(ok=False, now=float(i), venue="v")
            assert tracker.alerts_fired == 1  # edge-triggered, not per query
            # Recover: burn drops below threshold, alert re-arms.
            for i in range(60):
                tracker.record(ok=True, now=8.0 + i, venue="v")
            for i in range(10):
                tracker.record(ok=False, now=70.0 + i, venue="v")
        assert tracker.alerts_fired == 2
        assert registry.counter(
            "slo_burn_alerts_total", objective="avail", venue="v"
        ).value == 2
        kinds = [record["kind"] for record in events.records]
        assert kinds.count("slo.burn_alert") == 2
        alert = events.by_kind("slo.burn_alert")[0]
        assert alert["objective"] == "avail" and alert["venue"] == "v"

    def test_min_events_suppresses_thin_windows(self):
        tracker = SloTracker([_fast_objective(min_events=50)])
        for i in range(20):
            tracker.record(ok=False, now=float(i), venue="v")
        assert tracker.alerts_fired == 0

    def test_scopes_are_independent(self):
        tracker = SloTracker([_fast_objective()])
        for i in range(8):
            tracker.record(ok=False, now=float(i), venue="bad")
            tracker.record(ok=True, now=float(i), venue="good")
        report = tracker.report()
        scopes = {
            tuple(sorted(s["scope"].items())): s
            for s in report["objectives"][0]["scopes"]
        }
        assert scopes[(("venue", "bad"),)]["alerts_fired"] == 1
        assert scopes[(("venue", "good"),)]["alerts_fired"] == 0

    def test_report_schema_and_write_json(self, tmp_path):
        tracker = SloTracker(default_objectives())
        tracker.record(latency_seconds=0.2, ok=True, now=1.0, venue="office")
        path = tmp_path / "slo_report.json"
        tracker.write_json(str(path))
        report = json.loads(path.read_text())
        assert report["alerts_fired"] == 0
        names = {o["name"]: o for o in report["objectives"]}
        assert names["latency"]["kind"] == "latency"
        assert names["availability"]["kind"] == "availability"
        scope = names["latency"]["scopes"][0]
        assert scope["scope"] == {"venue": "office"}
        assert scope["window_events"] == 1

    def test_contextual_tracker(self):
        assert current_slo_tracker() is None
        tracker = SloTracker()
        with use_slo_tracker(tracker):
            assert current_slo_tracker() is tracker
        assert current_slo_tracker() is None


class TestFrontendSloIntegration:
    def test_served_queries_feed_venue_and_shard_scopes(self):
        registry = MetricsRegistry()
        tracker = SloTracker(default_objectives(), registry=registry)
        with use_slo_tracker(tracker):
            frontend = ServingFrontend(registry=registry)
        assert frontend.slo is tracker
        frontend.register_venue("office", _Echo())
        for i in range(6):
            frontend.call("office", i)
        report = tracker.report()
        availability = next(
            o for o in report["objectives"] if o["name"] == "availability"
        )
        scopes = {
            tuple(sorted(s["scope"].items())): s["window_events"]
            for s in availability["scopes"]
        }
        assert scopes[(("venue", "office"),)] == 6
        assert sum(
            count for key, count in scopes.items() if key[0][0] == "shard"
        ) == 6

    def test_reject_records_bad_outcome_and_event(self):
        registry = MetricsRegistry()
        tracker = SloTracker([_fast_objective(min_events=1)], registry=registry)
        events = EventLog()
        frontend = ServingFrontend(
            num_shards=1,
            queue_depth=2,
            admission="reject",
            registry=registry,
            slo=tracker,
        )
        frontend.register_venue("a", _Echo())
        shard = frontend.venues.shard_for("a")
        state = frontend._shards[shard]
        state.set_depth(2, frontend.queue_depth)
        with use_event_log(events):
            with pytest.raises(ShardSaturatedError):
                frontend.call("a", 1)
        reject = events.by_kind("admission.reject")[0]
        assert reject["shard"] == shard and reject["venue"] == "a"
        scope = tracker.report()["objectives"][0]["scopes"]
        assert all(s["window_bad"] == 1 for s in scope)
        state.set_depth(0, frontend.queue_depth)

    def test_engine_failure_records_bad_outcome(self):
        class Boom:
            def serve(self, payload):
                raise RuntimeError("boom")

        tracker = SloTracker([_fast_objective(min_events=1)])
        frontend = ServingFrontend(slo=tracker)
        frontend.register_venue("bad", Boom())
        with pytest.raises(RuntimeError):
            frontend.call("bad", 1)
        assert all(
            s["window_bad"] == 1
            for s in tracker.report()["objectives"][0]["scopes"]
        )

    def test_no_tracker_is_free(self):
        frontend = ServingFrontend()
        assert frontend.slo is None
        frontend.register_venue("a", _Echo())
        assert frontend.call("a", 1) == ("echo", 1)


class TestEventLog:
    def test_emit_assigns_seq_and_kind(self):
        log = EventLog()
        log.emit("a.b", detail=1)
        log.emit("a.c")
        assert [r["seq"] for r in log.records] == [0, 1]
        assert log.by_kind("a.b")[0]["detail"] == 1
        assert len(log) == 2

    def test_reserved_fields_not_clobbered(self):
        log = EventLog()
        record = log.emit("k", seq=99, ts=-1.0)
        assert record["seq"] == 0 and record["kind"] == "k" and record["ts"] > 0

    def test_trace_correlation(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        log = EventLog()
        with tracer.span("frame") as span:
            record = log.emit("degrade.step")
        assert record["trace_id"] == span.trace_id
        assert record["span_id"] == span.span_id

    def test_capacity_trims_oldest(self):
        registry = MetricsRegistry()
        log = EventLog(capacity=3, registry=registry)
        for i in range(5):
            log.emit("tick", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [r["i"] for r in log.records] == [2, 3, 4]
        assert registry.counter("obs_events_dropped_total").value == 2

    def test_events_counter_by_kind(self):
        registry = MetricsRegistry()
        log = EventLog(registry=registry)
        log.emit("a")
        log.emit("a")
        log.emit("b")
        assert registry.counter("obs_events_total", kind="a").value == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_tail(self):
        log = EventLog()
        for i in range(5):
            log.emit("tick", i=i)
        assert [r["i"] for r in log.tail(2)] == [3, 4]
        assert log.tail(0) == []

    def test_ndjson_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("a", x=1)
        log.emit("b", y="z")
        path = tmp_path / "events.ndjson"
        log.write_ndjson(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["kind"] for r in lines] == ["a", "b"]

    def test_merge_state_reassigns_seq(self):
        parent = EventLog()
        parent.emit("parent.tick")
        child = EventLog()
        child.emit("child.tick")
        parent.merge_state(child.state())
        assert [r["seq"] for r in parent.records] == [0, 1]
        assert [r["kind"] for r in parent.records] == ["parent.tick", "child.tick"]

    def test_emit_event_without_log_is_noop(self):
        assert current_event_log() is None
        assert emit_event("orphan") is None

    def test_parallel_ship_back_matches_serial(self):
        def run(workers: int) -> list[str]:
            log = EventLog()
            with use_event_log(log):
                parallel_map(_emit_one, list(range(9)), workers=workers)
            return [(r["kind"], r["value"]) for r in log.records]

        serial = run(1)
        pooled = run(3)
        assert serial == pooled
        assert len(serial) == 9

    def test_fault_path_events(self):
        """degrade.step and retry.exhausted fire only on fault paths."""
        from repro.network import CHANNEL_PRESETS

        rng = rng_for(3, "test-slo/faults")
        channel = FaultyChannel(CHANNEL_PRESETS["lte"], FaultSpec(loss=1.0, seed=11))
        log = EventLog()
        with use_event_log(log):
            outcome = submit_payload(
                channel,
                [4000, 2000, 1000],
                RetryPolicy(max_attempts=3, budget_seconds=1e9),
                rng,
            )
        assert outcome.status == "abandoned"
        assert len(log.by_kind("degrade.step")) == 2  # two rungs down
        assert len(log.by_kind("retry.exhausted")) == 1
        # Zero-fault parity: a clean channel emits nothing.
        clean = FaultyChannel(CHANNEL_PRESETS["lte"], FaultSpec(seed=11))
        log2 = EventLog()
        with use_event_log(log2):
            outcome = submit_payload(
                clean, [4000, 2000], RetryPolicy(max_attempts=3), rng
            )
        assert outcome.status == "delivered"
        assert len(log2) == 0


class TestTopRenderer:
    def test_parse_metric_key(self):
        assert parse_metric_key("plain") == ("plain", {})
        assert parse_metric_key("m{a=1,b=x}") == ("m", {"a": "1", "b": "x"})

    def _snapshot(self) -> tuple[dict, EventLog]:
        registry = MetricsRegistry()
        tracker = SloTracker(default_objectives(), registry=registry)
        events = EventLog(registry=registry)
        with use_slo_tracker(tracker), use_event_log(events):
            frontend = ServingFrontend(num_shards=2, registry=registry)
            frontend.register_venue("office", _Echo())
            for i in range(5):
                frontend.call("office", i)
            frontend.add_shard()
        return registry.to_dict(), events

    def test_render_dashboard_sections(self):
        snapshot, events = self._snapshot()
        text = render_dashboard(snapshot, events=events.records)
        assert "served=5" in text
        assert "--- shards" in text
        assert "--- slo" in text
        assert "--- events" in text
        assert "shard.add" in text
        assert "venue=office" in text

    def test_render_dashboard_client_row_reads_frame_span(self):
        registry = MetricsRegistry()
        with Tracer(registry).span("frame"):
            pass
        text = render_dashboard(registry.to_dict())
        assert "frames=1" in text

    def test_render_dashboard_empty_snapshot(self):
        text = render_dashboard({})
        assert "venues=0" in text
        assert "--- shards" not in text

    def test_run_top_plain(self, tmp_path, capsys):
        snapshot, events = self._snapshot()
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps(snapshot))
        events_path = tmp_path / "events.ndjson"
        events.write_ndjson(str(events_path))
        code = run_top(
            str(metrics_path),
            events_path=str(events_path),
            iterations=1,
            plain=True,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served=5" in out and "shard.add" in out

    def test_run_top_waits_for_missing_file(self, tmp_path, capsys):
        code = run_top(str(tmp_path / "nope.json"), iterations=1, plain=True)
        assert code == 0
        assert "waiting for" in capsys.readouterr().out


class TestSloCli:
    def _artifacts(self, tmp_path) -> tuple[str, str]:
        registry = MetricsRegistry()
        tracker = SloTracker(default_objectives(), registry=registry)
        with use_slo_tracker(tracker):
            frontend = ServingFrontend(registry=registry)
            frontend.register_venue("office", _Echo())
            for i in range(4):
                frontend.call("office", i)
        metrics_path = tmp_path / "metrics.json"
        registry.write_json(str(metrics_path))
        report_path = tmp_path / "slo_report.json"
        tracker.write_json(str(report_path))
        return str(metrics_path), str(report_path)

    def test_slo_report_from_report_json(self, tmp_path, capsys):
        _, report_path = self._artifacts(tmp_path)
        assert cli_main(["slo-report", report_path, "--fail-on-alerts"]) == 0
        out = capsys.readouterr().out
        assert "objective latency" in out
        assert "venue=office" in out
        assert "alerts fired: 0" in out

    def test_slo_report_from_metrics_snapshot(self, tmp_path, capsys):
        metrics_path, _ = self._artifacts(tmp_path)
        assert cli_main(["slo-report", metrics_path]) == 0
        out = capsys.readouterr().out
        assert "venue=office" in out

    def test_slo_report_fails_on_alerts(self, tmp_path, capsys):
        report_path = tmp_path / "alerting.json"
        tracker = SloTracker([_fast_objective()])
        for i in range(8):
            tracker.record(ok=False, now=float(i), venue="v")
        tracker.write_json(str(report_path))
        assert cli_main(["slo-report", str(report_path)]) == 0
        assert cli_main(["slo-report", str(report_path), "--fail-on-alerts"]) == 1

    def test_top_subcommand(self, tmp_path, capsys):
        metrics_path, _ = self._artifacts(tmp_path)
        assert cli_main(
            ["top", metrics_path, "--plain", "--iterations", "1"]
        ) == 0
        assert "served=4" in capsys.readouterr().out

    def test_serve_writes_slo_and_event_artifacts(self, tmp_path, capsys):
        state = tmp_path / "state"
        report = tmp_path / "slo_report.json"
        events = tmp_path / "events.ndjson"
        metrics = tmp_path / "metrics.json"
        code = cli_main(
            [
                "serve",
                "--state",
                str(state),
                "--bootstrap",
                "1",
                "--queries",
                "4",
                "--metrics-json",
                str(metrics),
                "--slo-report",
                str(report),
                "--events-ndjson",
                str(events),
            ]
        )
        assert code == 0
        slo_report = json.loads(report.read_text())
        assert slo_report["alerts_fired"] == 0
        availability = next(
            o for o in slo_report["objectives"] if o["name"] == "availability"
        )
        assert sum(
            s["window_events"]
            for s in availability["scopes"]
            if "venue" in s["scope"]
        ) == 4
        snapshot = json.loads(metrics.read_text())
        assert any(
            key.startswith("slo_budget_remaining") for key in snapshot["gauges"]
        )
        assert events.exists()
