"""Tests for the fleet-scale load generator (repro.loadgen).

Covers: the determinism contract (identical seeds reproduce identical
per-user streams and venue choices; ``workers=N`` is bit-identical to
serial; reruns of the runner produce identical reports), the statistical
shape of the offered load (Zipf venue frequencies within tolerance,
geometric mobility sessions, burst-envelope rate lift), stream
invariants under hypothesis, end-to-end replay behaviour (overload
sheds; hot-venue replication raises sustained throughput; the faulty
uplink leg abandons and degrades), SLO integration, and the
``repro loadtest`` CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import ServerConfig
from repro.loadgen import (
    TrafficModel,
    burst_envelope,
    calibrate_service_seconds,
    empirical_zipf_error,
    generate_arrivals,
    run_loadtest,
    synthetic_service_seconds,
    zipf_weights,
)
from repro.network import CHANNEL_PRESETS
from repro.network.faults import FaultyChannel
from repro.obs import (
    MetricsRegistry,
    SloTracker,
    default_objectives,
    use_registry,
    use_slo_tracker,
)


def _model(**overrides) -> TrafficModel:
    base = dict(
        users=1200,
        venues=16,
        duration_seconds=20.0,
        rate_per_user=0.1,
        zipf_exponent=1.1,
        session_queries=4.0,
    )
    base.update(overrides)
    return TrafficModel(**base)


class TestTrafficModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel(users=0)
        with pytest.raises(ValueError):
            TrafficModel(venues=0)
        with pytest.raises(ValueError):
            TrafficModel(duration_seconds=0.0)
        with pytest.raises(ValueError):
            TrafficModel(rate_per_user=0.0)
        with pytest.raises(ValueError):
            TrafficModel(zipf_exponent=-0.1)
        with pytest.raises(ValueError):
            TrafficModel(burst_multiplier=0.5)
        with pytest.raises(ValueError):
            TrafficModel(burst_dwell_seconds=5.0, calm_dwell_seconds=0.0)

    def test_zipf_weights_normalized_and_ranked(self):
        weights = zipf_weights(10, 1.1)
        assert weights.shape == (10,)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)  # rank 0 hottest

    def test_zipf_zero_exponent_is_uniform(self):
        weights = zipf_weights(8, 0.0)
        assert np.allclose(weights, 1.0 / 8)


class TestArrivalDeterminism:
    def test_same_seed_reproduces_stream_exactly(self):
        a = generate_arrivals(_model(), seed=5)
        b = generate_arrivals(_model(), seed=5)
        for field in ("times", "users", "venues", "sessions"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_different_seed_changes_stream(self):
        a = generate_arrivals(_model(), seed=5)
        b = generate_arrivals(_model(), seed=6)
        assert len(a) != len(b) or not np.array_equal(a.times, b.times)

    def test_workers_bit_identical_to_serial(self):
        model = _model(users=700)
        serial = generate_arrivals(model, seed=9, workers=1, block_users=128)
        pooled = generate_arrivals(model, seed=9, workers=3, block_users=128)
        for field in ("times", "users", "venues", "sessions"):
            assert np.array_equal(getattr(serial, field), getattr(pooled, field))

    def test_block_streams_stable_under_user_count_growth(self):
        """Adding users must not disturb existing users' arrivals."""
        small = generate_arrivals(_model(users=256), seed=3, block_users=128)
        grown = generate_arrivals(_model(users=512), seed=3, block_users=128)
        keep = grown.users < 256
        assert np.array_equal(np.sort(small.times), np.sort(grown.times[keep]))

    def test_runner_report_identical_across_worker_counts(self):
        model = _model(users=600)
        cluster = ServerConfig(num_shards=4)
        with use_registry(MetricsRegistry()):
            serial = run_loadtest(
                model, cluster, seed=4, workers=1, block_users=128
            )
        with use_registry(MetricsRegistry()):
            pooled = run_loadtest(
                model, cluster, seed=4, workers=2, block_users=128
            )
        serial.pop("workers")
        pooled.pop("workers")
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_zipf_empirical_frequencies_within_tolerance(self):
        model = _model(users=4000, duration_seconds=30.0, zipf_exponent=1.2)
        stream = generate_arrivals(model, seed=7)
        assert len(stream) > 5000
        assert empirical_zipf_error(stream, model) < 0.02

    @given(
        users=st.integers(min_value=1, max_value=300),
        venues=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        zipf=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_stream_invariants(self, users, venues, seed, zipf):
        model = TrafficModel(
            users=users,
            venues=venues,
            duration_seconds=5.0,
            rate_per_user=0.5,
            zipf_exponent=zipf,
        )
        stream = generate_arrivals(model, seed=seed, block_users=64)
        times, user_ids, venue_ids = stream.times, stream.users, stream.venues
        assert np.all(np.diff(times) >= 0)
        if len(stream):
            assert times.min() >= 0.0
            assert times.max() <= model.duration_seconds
            assert user_ids.min() >= 0 and user_ids.max() < users
            assert venue_ids.min() >= 0 and venue_ids.max() < venues
            # Session coherence: one venue and one user per session.
            for key in np.unique(stream.sessions):
                mask = stream.sessions == key
                assert np.unique(venue_ids[mask]).size == 1
                assert np.unique(user_ids[mask]).size == 1


class TestTrafficShape:
    def test_session_lengths_are_geometric_with_requested_mean(self):
        # Long per-user streams (~40 queries each), so truncation at the
        # horizon barely bites and the geometric mean shows through.
        model = _model(
            users=300, duration_seconds=40.0, rate_per_user=1.0,
            session_queries=5.0,
        )
        stream = generate_arrivals(model, seed=2)
        _, lengths = np.unique(stream.sessions, return_counts=True)
        assert 4.0 < lengths.mean() < 5.5

    def test_burst_envelope_alternates_and_starts_calm(self):
        model = _model(
            burst_multiplier=4.0, burst_dwell_seconds=2.0, calm_dwell_seconds=5.0
        )
        starts, multipliers = burst_envelope(model, seed=1)
        assert starts[0] == 0.0 and multipliers[0] == 1.0
        assert set(np.unique(multipliers)) == {1.0, 4.0}
        assert np.all(np.diff(starts) > 0)
        assert np.all(multipliers[:-1] != multipliers[1:])

    def test_calm_model_has_flat_envelope(self):
        starts, multipliers = burst_envelope(_model(), seed=1)
        assert list(starts) == [0.0] and list(multipliers) == [1.0]

    def test_bursts_lift_offered_volume(self):
        calm = generate_arrivals(_model(users=3000), seed=8)
        bursty = generate_arrivals(
            _model(
                users=3000,
                burst_multiplier=5.0,
                burst_dwell_seconds=4.0,
                calm_dwell_seconds=4.0,
            ),
            seed=8,
        )
        assert len(bursty) > 1.3 * len(calm)


class TestRunLoadtest:
    def test_accounting_identity_and_report_shape(self):
        with use_registry(MetricsRegistry()) as registry:
            report = run_loadtest(_model(), ServerConfig(num_shards=4), seed=1)
        assert report["offered"] == (
            report["served"] + report["shed"] + report["abandoned"]
        )
        assert report["offered"] == len(
            generate_arrivals(_model(), seed=1)
        )
        for key in ("p50", "p99", "p999"):
            assert report["latency_seconds"][key] >= 0.0
            assert key in report["queue_depth"]
        assert report["queries_per_second_per_core"] == pytest.approx(
            report["queries_per_second"] / 4
        )
        offered = registry.counter("loadgen_queries_offered_total").value
        assert offered == report["offered"]

    def test_overload_sheds_and_underload_does_not(self):
        light = _model(users=200, rate_per_user=0.02)
        heavy = _model(users=5000, rate_per_user=0.5)
        slow = synthetic_service_seconds(seed=0, mean_seconds=0.05)
        with use_registry(MetricsRegistry()):
            ok = run_loadtest(
                light, ServerConfig(num_shards=4), seed=3, service_samples=slow
            )
        with use_registry(MetricsRegistry()):
            melt = run_loadtest(
                heavy,
                ServerConfig(num_shards=4, queue_depth=8),
                seed=3,
                service_samples=slow,
            )
        assert ok["shed"] == 0
        assert melt["shed_fraction"] > 0.5
        assert melt["queue_depth"]["p99"] >= ok["queue_depth"]["p99"]

    def test_replicating_the_zipf_head_raises_sustained_qps(self):
        """The acceptance scenario: one venue takes >= 50% of traffic;
        replication_factor=2 must measurably beat 1 on sustained qps."""
        model = _model(
            users=4000, venues=16, duration_seconds=30.0,
            rate_per_user=0.05, zipf_exponent=3.0,
        )
        results = {}
        for factor in (1, 2):
            cluster = ServerConfig(
                num_shards=4, queue_depth=16, replication_factor=factor
            )
            with use_registry(MetricsRegistry()):
                results[factor] = run_loadtest(model, cluster, seed=11)
        assert results[1]["hot_venue_share"] >= 0.5
        assert results[1]["offered"] == results[2]["offered"]
        gain = (
            results[2]["queries_per_second"] / results[1]["queries_per_second"]
        )
        assert gain > 1.5
        assert results[2]["shed"] < results[1]["shed"]

    def test_faulty_uplink_abandons_and_degrades(self):
        model = _model(users=400, duration_seconds=10.0)
        channel = FaultyChannel(CHANNEL_PRESETS["lte"], loss=0.6, seed=5)
        with use_registry(MetricsRegistry()):
            report = run_loadtest(
                model, ServerConfig(num_shards=4), seed=5, channel=channel
            )
        assert report["abandoned"] > 0
        assert report["uplink"]["degraded"] > 0
        assert report["uplink"]["retries"] > 0
        assert report["offered"] == (
            report["served"] + report["shed"] + report["abandoned"]
        )
        # Lost arrivals still stretch the run: throughput divides by the
        # full offered horizon (the satellite-2 contract, end to end).
        assert report["makespan_seconds"] >= report["last_arrival_seconds"]

    def test_slo_tracker_sees_simulated_overload(self):
        heavy = _model(users=5000, rate_per_user=0.5)
        registry = MetricsRegistry()
        tracker = SloTracker(default_objectives(), registry=registry)
        with use_registry(registry), use_slo_tracker(tracker):
            report = run_loadtest(
                heavy, ServerConfig(num_shards=2, queue_depth=8), seed=6
            )
        assert report["slo"]["alerts_fired"] >= 1
        assert tracker.alerts_fired >= 1
        availability = report["slo"]["objectives"]["availability"]
        assert availability["error_rate"] > 0.5
        assert 0 < availability["total_events"] <= 2100

    def test_empty_service_samples_rejected(self):
        with pytest.raises(ValueError):
            run_loadtest(
                _model(users=10),
                seed=0,
                service_samples=[],
                registry=MetricsRegistry(),
            )


class TestCalibration:
    def test_one_positive_service_time_per_query(self):
        samples = calibrate_service_seconds(queries=8)
        assert len(samples) == 8
        assert (samples > 0).all()

    def test_library_never_imports_the_cli(self):
        import repro

        root = Path(repro.__file__).parent
        offenders = [
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if path.name not in ("cli.py", "__main__.py")
            and "repro.cli" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


class TestLoadtestCli:
    def test_calibrated_run(self, tmp_path):
        out = tmp_path / "calibrated.json"
        assert main([
            "loadtest", "--fast", "--users", "1000", "--calibrate",
            "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["offered"] > 0

    def test_smoke_and_bit_identical_rerun(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        flags = [
            "loadtest", "--users", "500", "--venues", "8", "--rate", "0.05",
            "--shards", "4", "--fast", "--seed", "3",
        ]
        assert main(flags + ["--out", str(out_a)]) == 0
        assert main(flags + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["traffic"]["users"] == 500
        assert {"p50", "p99", "p999"} <= set(report["latency_seconds"])
        assert "sustained" in capsys.readouterr().out

    def test_cli_replication_flag_reaches_report(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main([
            "loadtest", "--users", "300", "--fast", "--replication-factor",
            "2", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["cluster"]["replication_factor"] == 2

    def test_cli_slo_report_artifact(self, tmp_path):
        out = tmp_path / "bench.json"
        slo = tmp_path / "slo.json"
        assert main([
            "loadtest", "--users", "300", "--venues", "8", "--rate", "0.02",
            "--shards", "8", "--fast", "--out", str(out),
            "--slo-report", str(slo),
        ]) == 0
        slo_doc = json.loads(slo.read_text())
        assert "objectives" in slo_doc
        # A healthy operating point must close the CI gate.
        assert main(["slo-report", str(slo), "--fail-on-alerts"]) == 0
