"""Predictive link layer: estimator inference, policy decisions, wiring.

The load-bearing properties:

* the Gilbert–Elliott run-length MLE recovers a ``FaultyChannel``'s true
  ``outage_enter`` / ``outage_exit`` from a long seeded attempt trace
  (hypothesis property), and a null-spec channel drives the posterior
  to the good state;
* the decision table maps predicted failure probability to entry rung /
  retry budget / backoff scaling exactly as DESIGN.md §15 specifies;
* path selection is hysteretic — flapping is bounded by the dwell
  window even under adversarially alternating scores;
* :func:`submit_payload` returns a :class:`TransferOutcome` whose
  scalar properties (attempts, retries, latency, wasted bytes) are
  views over its attempt records, and ``FaultyChannel`` emits
  outage-transition events;
* the adaptive experiment improves wasted bytes deterministically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    CHANNEL_PRESETS,
    AdaptiveConfig,
    AdaptiveOffloadPolicy,
    AttemptRecord,
    FaultSpec,
    FaultyChannel,
    LinkQualityEstimator,
    RetryPolicy,
    TransferError,
    UplinkChannel,
    submit_payload,
)
from repro.obs import EventLog, MetricsRegistry, use_event_log, use_registry
from repro.util.rng import rng_for


def _channel() -> UplinkChannel:
    # Jitterless: 1 Mbps => 125 kB/s, 40 ms RTT => 0.02 s half-RTT.
    return UplinkChannel("t", bandwidth_mbps=1.0, rtt_ms=40.0, jitter_sigma=0.0)


def _drive(channel: FaultyChannel, attempts: int, num_bytes: int = 1000) -> None:
    """Push ``attempts`` uplink attempts through, swallowing faults."""
    for _ in range(attempts):
        try:
            channel.transfer_seconds(num_bytes)
        except TransferError:
            pass


class TestLinkQualityEstimator:
    def test_starts_at_priors(self):
        est = LinkQualityEstimator("t", AdaptiveConfig(prior_loss=0.1))
        assert est.confidence == 0.0
        assert est.loss_rate == pytest.approx(0.1)
        assert est.outage_exit_hat == pytest.approx(0.3)
        assert est.failure_probability == pytest.approx(0.1)
        assert est.attempts_observed == 0

    def test_loss_ewma_tracks_all_loss(self):
        est = LinkQualityEstimator("t")
        for _ in range(200):
            est.observe_attempt("loss", 1000, 0.03)
        assert est.loss_rate > 0.9
        assert est.failure_probability > 0.9

    def test_loss_ewma_ignores_outage_attempts(self):
        # Losses are conditioned on the good state: a burst of outage
        # probes must not dilute (or inflate) the loss estimate.
        est = LinkQualityEstimator("t")
        for _ in range(50):
            est.observe_attempt("loss", 1000, 0.03)
        before = est._loss_ewma
        for _ in range(50):
            est.observe_attempt("outage", 1000, 0.04)
        assert est._loss_ewma == before

    def test_throughput_and_rtt_from_attempts(self):
        est = LinkQualityEstimator("t")
        for _ in range(50):
            est.observe_attempt("ok", 125_000, 1.0)  # 125 kB/s
            est.observe_attempt("outage", 1000, 0.04)  # one 40 ms RTT
        # The public estimate is confidence-blended toward the prior
        # (0 here); the underlying EWMA should have converged exactly.
        assert est._throughput_ewma == pytest.approx(125_000, rel=0.01)
        assert est.throughput_bps == pytest.approx(
            est.confidence * 125_000, rel=0.01
        )
        assert est.rtt_seconds == pytest.approx(0.04)

    def test_confidence_decays_over_idle_time(self):
        config = AdaptiveConfig(confidence_halflife_seconds=10.0)
        est = LinkQualityEstimator("t", config)
        for _ in range(100):
            est.observe_attempt("ok", 1000, 0.01)
        fresh = est.confidence
        est.advance(10.0)
        assert est.confidence == pytest.approx(fresh / 2, rel=1e-6)
        est.advance(100.0)
        assert est.confidence < 0.01

    def test_idle_decay_blends_toward_stationary(self):
        est = LinkQualityEstimator("t")
        # Learn an always-bad chain, then go idle: the conditional
        # prediction (still bad) must fade toward the stationary mix.
        est.observe_attempt("outage", 1000, 0.04)
        for _ in range(100):
            est.observe_attempt("outage", 1000, 0.04)
        assert est.in_outage
        conditional = est.outage_probability
        est.advance(1e6)
        assert est.outage_probability == pytest.approx(
            est.stationary_outage_probability, abs=1e-6
        )
        assert conditional >= est.outage_probability

    def test_null_channel_drives_posterior_good(self):
        channel = FaultyChannel(_channel(), FaultSpec())
        est = LinkQualityEstimator("t")
        channel.add_observer(est)
        _drive(channel, 300)
        assert not est.in_outage
        assert est.outage_enter_hat == 0.0
        assert est.outage_probability == 0.0
        assert est.failure_probability < 0.01
        assert est.loss_rate < 0.01

    def test_estimator_consumes_no_rng(self):
        # Wrapping a faulty run with an observer must not perturb the
        # seeded fault pattern: same seed, same latency sequence.
        def trace(with_observer: bool) -> list[float]:
            channel = FaultyChannel(
                _channel(), FaultSpec(loss=0.3, outage_enter=0.1, seed=5)
            )
            if with_observer:
                channel.add_observer(LinkQualityEstimator("t"))
            out = []
            for _ in range(100):
                try:
                    out.append(channel.transfer_seconds(1000))
                except TransferError as fault:
                    out.append(-fault.elapsed_seconds)
            return out

        assert trace(False) == trace(True)

    def test_snapshot_is_plain_scalars(self):
        est = LinkQualityEstimator("t")
        est.observe_attempt("ok", 1000, 0.01)
        snapshot = est.snapshot()
        assert snapshot["channel"] == "t"
        assert snapshot["attempts"] == 1
        assert all(
            isinstance(value, (int, float, bool, str))
            for value in snapshot.values()
        )

    @given(
        enter=st.floats(min_value=0.05, max_value=0.4),
        exit_=st.floats(min_value=0.2, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_recovers_gilbert_elliott_rates(self, enter, exit_, seed):
        """The run-length MLE lands near the channel's true transition
        probabilities given a long observed attempt trace."""
        channel = FaultyChannel(
            _channel(),
            FaultSpec(outage_enter=enter, outage_exit=exit_, seed=seed),
        )
        est = LinkQualityEstimator("t")
        channel.add_observer(est)
        _drive(channel, 4000)
        # Standard error of a binomial rate at ~4000 trials split across
        # the two states; loose 3-sigma-ish envelopes.
        assert est.outage_enter_hat == pytest.approx(enter, abs=0.08)
        assert est.outage_exit_hat == pytest.approx(exit_, abs=0.15)

    def test_validation(self):
        est = LinkQualityEstimator("t")
        with pytest.raises(ValueError):
            est.advance(-1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(shade_threshold=0.8, floor_threshold=0.5)
        with pytest.raises(ValueError):
            AdaptiveConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(probe_backoff_scale=0.5)


def _estimator_at(policy: AdaptiveOffloadPolicy, channel, p_loss: float) -> None:
    """Saturate the channel's estimator at a target loss probability."""
    est = policy.estimator_for(channel)
    for _ in range(500):
        if p_loss in (0.0, 1.0):
            est.observe_attempt("loss" if p_loss else "ok", 1000, 0.01)
        else:
            # Deterministic dithering toward the target rate.
            current = est._loss_ewma or 0.0
            est.observe_attempt(
                "loss" if current < p_loss else "ok", 1000, 0.01
            )


class TestDecisionTable:
    def test_healthy_link_goes_full(self):
        policy = AdaptiveOffloadPolicy()
        channel = _channel()
        _estimator_at(policy, channel, 0.0)
        decision = policy.decide(channel, ladder_rungs=3)
        assert decision.action == "full"
        assert decision.entry_rung == 0
        assert decision.extra_attempts == 0
        assert decision.backoff_scale == 1.0
        assert decision.channel is channel
        assert decision.adapt_retry_policy(RetryPolicy()) == RetryPolicy()

    def test_moderate_loss_shades_one_rung(self):
        policy = AdaptiveOffloadPolicy()
        channel = _channel()
        _estimator_at(policy, channel, 0.3)
        decision = policy.decide(channel, ladder_rungs=3)
        assert decision.action == "shade"
        assert decision.entry_rung == 1
        assert decision.extra_attempts == 2

    def test_heavy_loss_floors(self):
        policy = AdaptiveOffloadPolicy()
        channel = _channel()
        _estimator_at(policy, channel, 0.55)
        decision = policy.decide(channel, ladder_rungs=3)
        assert decision.action == "floor"
        assert decision.entry_rung == 2
        assert decision.backoff_scale == 1.0

    def test_probable_outage_probes_with_scaled_backoff(self):
        policy = AdaptiveOffloadPolicy()
        channel = _channel()
        _estimator_at(policy, channel, 1.0)
        decision = policy.decide(channel, ladder_rungs=3)
        assert decision.action == "probe"
        assert decision.entry_rung == 2
        assert decision.backoff_scale == pytest.approx(2.0)
        adapted = decision.adapt_retry_policy(RetryPolicy())
        assert adapted.max_attempts == RetryPolicy().max_attempts + 2
        assert adapted.base_backoff_seconds == pytest.approx(
            RetryPolicy().base_backoff_seconds * 2.0
        )

    def test_single_rung_ladder_clamps(self):
        policy = AdaptiveOffloadPolicy()
        channel = _channel()
        _estimator_at(policy, channel, 1.0)
        decision = policy.decide(channel, ladder_rungs=1)
        assert decision.entry_rung == 0

    def test_decide_needs_channel_or_paths(self):
        with pytest.raises(ValueError):
            AdaptiveOffloadPolicy().decide()

    def test_decision_counters_and_gauges(self):
        registry = MetricsRegistry()
        policy = AdaptiveOffloadPolicy()
        channel = _channel()
        _estimator_at(policy, channel, 0.3)
        with use_registry(registry):
            policy.decide(channel, ladder_rungs=3)
        counters = {
            (c.name, tuple(sorted(c.labels.items()))): c.value
            for c in registry.instruments()
            if c.kind == "counter"
        }
        assert counters[("adaptive_decisions_total", (("action", "shade"),))] == 1
        gauges = {g.name for g in registry.instruments() if g.kind == "gauge"}
        assert "link_failure_probability" in gauges
        assert "link_throughput_bps" in gauges
        assert "link_confidence" in gauges

    def test_preemptive_degrade_event_on_action_change(self):
        events = EventLog()
        policy = AdaptiveOffloadPolicy()
        channel = _channel()
        _estimator_at(policy, channel, 0.3)
        with use_event_log(events):
            policy.decide(channel, ladder_rungs=3)
            policy.decide(channel, ladder_rungs=3)  # same action: no repeat
        kinds = [record["kind"] for record in events.records]
        assert kinds.count("adaptive.preemptive_degrade") == 1
        record = next(
            r for r in events.records if r["kind"] == "adaptive.preemptive_degrade"
        )
        assert record["action"] == "shade"
        assert record["entry_rung"] == 1


class TestPathSelection:
    def _policy_with_paths(self, margin=0.25, dwell=4):
        config = AdaptiveConfig(
            hysteresis_margin=margin, min_dwell_decisions=dwell
        )
        policy = AdaptiveOffloadPolicy(config)
        lte = FaultyChannel(
            CHANNEL_PRESETS["lte"], FaultSpec(loss=0.0, seed=1)
        )
        wifi = FaultyChannel(
            CHANNEL_PRESETS["wifi"], FaultSpec(loss=0.0, seed=2)
        )
        policy.register_path("lte", lte)
        policy.register_path("wifi", wifi)
        return policy

    def _feed(self, policy, name, kind, count=50):
        est = policy._estimators[name]
        for _ in range(count):
            est.observe_attempt(kind, 10_000, 0.01)

    def test_first_registered_path_is_default(self):
        policy = self._policy_with_paths()
        decision = policy.decide(ladder_rungs=3)
        assert decision.path == "lte"
        assert not decision.switched_path

    def test_switches_to_clearly_better_path(self):
        policy = self._policy_with_paths(dwell=2)
        # LTE collapses (every attempt a loss), WiFi delivers fast.
        self._feed(policy, "lte", "loss")
        self._feed(policy, "wifi", "ok")
        switched = False
        for _ in range(6):
            decision = policy.decide(ladder_rungs=3)
            switched = switched or decision.switched_path
        assert switched
        assert policy.current_path == "wifi"
        assert policy.path_switches == 1

    def test_no_switch_within_hysteresis_margin(self):
        policy = self._policy_with_paths(margin=10.0, dwell=1)
        self._feed(policy, "lte", "loss")
        self._feed(policy, "wifi", "ok")
        for _ in range(10):
            policy.decide(ladder_rungs=3)
        # WiFi is better, but not 11x better than a zero-score path is
        # unreachable — margin*current_score==0 edge: a zero score is
        # always beatable, so exercise a non-degenerate current path.
        policy2 = self._policy_with_paths(margin=10.0, dwell=1)
        self._feed(policy2, "lte", "ok", count=50)
        self._feed(policy2, "wifi", "ok", count=50)
        for _ in range(10):
            assert not policy2.decide(ladder_rungs=3).switched_path
        assert policy2.path_switches == 0

    def test_flapping_bounded_by_dwell(self):
        dwell = 5
        policy = self._policy_with_paths(margin=0.1, dwell=dwell)
        decisions = 60
        # Adversarial schedule: after every decision, invert both
        # estimators so the *other* path always looks better.
        for index in range(decisions):
            good, bad = (
                ("lte", "wifi") if policy.current_path == "wifi" else ("wifi", "lte")
            )
            self._feed(policy, good, "ok", count=30)
            self._feed(policy, bad, "loss", count=30)
            policy.decide(ladder_rungs=3)
        assert policy.path_switches <= decisions // dwell + 1

    def test_path_switch_event(self):
        events = EventLog()
        policy = self._policy_with_paths(dwell=1)
        self._feed(policy, "lte", "loss")
        self._feed(policy, "wifi", "ok")
        with use_event_log(events):
            for _ in range(4):
                policy.decide(ladder_rungs=3)
        switch = next(
            r for r in events.records if r["kind"] == "adaptive.path_switch"
        )
        assert switch["old_path"] == "lte"
        assert switch["new_path"] == "wifi"

    def test_register_path_replace_keeps_estimator(self):
        policy = AdaptiveOffloadPolicy()
        first = FaultyChannel(_channel(), FaultSpec(loss=0.5, seed=3))
        policy.register_path("uplink", first)
        _drive(first, 100)
        est = policy._estimators["uplink"]
        seen = est.attempts_observed
        assert seen == 100
        second = FaultyChannel(_channel(), FaultSpec(loss=0.5, seed=4))
        policy.register_path("uplink", second)
        assert policy._estimators["uplink"] is est
        _drive(second, 50)
        assert est.attempts_observed == seen + 50
        # ... and the old channel no longer feeds it.
        _drive(first, 50)
        assert est.attempts_observed == seen + 50


class TestTransferOutcome:
    def test_clean_delivery_shape(self):
        channel = FaultyChannel(_channel(), FaultSpec())
        outcome = submit_payload(channel, [1000, 500])
        assert outcome.status == "delivered"
        assert outcome.attempt_records == (
            AttemptRecord("ok", outcome.latency_seconds, 1000, 0),
        )
        assert outcome.attempts == 1
        assert outcome.retries == 0
        assert outcome.payload_bytes == 1000
        assert outcome.wasted_seconds == 0.0
        assert outcome.wasted_bytes == 0
        assert outcome.ladder_step == 0
        assert outcome.delivered

    def test_degraded_walk_records_every_attempt(self):
        channel = FaultyChannel(
            _channel(), FaultSpec(loss=1.0, seed=0)
        )
        # Force exactly two losses then a success by flipping loss off.
        records = []

        class Probe:
            def observe_attempt(self, kind, num_bytes, elapsed, direction):
                records.append((kind, num_bytes))

        channel.add_observer(Probe())
        outcome = submit_payload(
            channel, [1000, 500, 250], RetryPolicy(max_attempts=4)
        )
        # loss=1.0: every attempt fails; the walk degrades to the floor.
        assert outcome.status == "abandoned"
        assert [r.kind for r in outcome.attempt_records] == ["loss"] * 4
        assert [r.rung for r in outcome.attempt_records] == [0, 1, 2, 2]
        assert [r.payload_bytes for r in outcome.attempt_records] == [
            1000,
            500,
            250,
            250,
        ]
        assert outcome.wasted_bytes == 1000 + 500 + 250 + 250
        assert outcome.payload_bytes == 0
        assert outcome.retries == 3
        assert records == [
            ("loss", 1000),
            ("loss", 500),
            ("loss", 250),
            ("loss", 250),
        ]

    def test_outage_wastes_time_not_bytes(self):
        channel = FaultyChannel(
            _channel(), FaultSpec(outage_enter=1.0, outage_exit=1.0, seed=0)
        )
        outcome = submit_payload(channel, [1000, 500], RetryPolicy(max_attempts=2))
        kinds = [r.kind for r in outcome.attempt_records]
        assert kinds[0] == "outage"
        assert outcome.wasted_bytes == 0
        assert outcome.wasted_seconds > 0.0

    def test_latency_is_records_plus_backoff(self):
        channel = FaultyChannel(_channel(), FaultSpec(loss=1.0, seed=0))
        outcome = submit_payload(channel, [1000], RetryPolicy(max_attempts=3))
        elapsed = sum(r.elapsed_seconds for r in outcome.attempt_records)
        assert outcome.latency_seconds == pytest.approx(
            elapsed + outcome.backoff_seconds
        )
        assert outcome.backoff_seconds > 0.0


class TestOutageEvents:
    def test_enter_and_exit_events(self):
        events = EventLog()
        channel = FaultyChannel(
            _channel(), FaultSpec(outage_enter=1.0, outage_exit=1.0, seed=0)
        )
        with use_event_log(events):
            _drive(channel, 6, num_bytes=1000)
        kinds = [record["kind"] for record in events.records]
        assert kinds.count("channel.outage_enter") == 3
        assert kinds.count("channel.outage_exit") == 3
        exit_record = next(
            r for r in events.records if r["kind"] == "channel.outage_exit"
        )
        assert exit_record["channel"] == "t"
        assert exit_record["attempts"] == 1
        # One fail-fast probe: one 40 ms RTT of observed outage time.
        assert exit_record["outage_seconds"] == pytest.approx(0.04)

    def test_outage_seconds_counter(self):
        registry = MetricsRegistry()
        channel = FaultyChannel(
            _channel(), FaultSpec(outage_enter=1.0, outage_exit=1.0, seed=0)
        )
        with use_registry(registry):
            _drive(channel, 10, num_bytes=1000)
        counter = next(
            c
            for c in registry.instruments()
            if c.name == "channel_outage_seconds_total"
        )
        assert counter.labels == {"channel": "t"}
        assert counter.value == pytest.approx(5 * 0.04)

    def test_null_spec_emits_nothing(self):
        events = EventLog()
        channel = FaultyChannel(_channel(), FaultSpec())
        with use_event_log(events):
            _drive(channel, 20)
        assert len(events.records) == 0


class TestClientIntegration:
    def _client(self, adaptive):
        from repro import UniquenessOracle, VisualPrintClient, VisualPrintConfig

        config = VisualPrintConfig(
            descriptor_capacity=4096, fingerprint_size=24
        )
        oracle = UniquenessOracle(config)
        return VisualPrintClient(
            oracle, config, degrade_floor=4, adaptive=adaptive
        )

    def _fingerprint(self, client):
        rng = rng_for(0, "test/linkstate/frame")
        image = rng.random((128, 128))
        keypoints = client.extract_keypoints(image)
        return client.fingerprint_keypoints(keypoints)

    def test_config_off_by_default(self):
        client = self._client(None)
        assert client.adaptive is None

    def test_adaptive_config_builds_policy(self):
        client = self._client(AdaptiveConfig())
        assert isinstance(client.adaptive, AdaptiveOffloadPolicy)

    def test_policy_pre_degrades_entry_rung(self):
        client = self._client(AdaptiveConfig())
        fingerprint = self._fingerprint(client)
        channel = FaultyChannel(_channel(), FaultSpec(loss=0.3, seed=9))
        # Teach the estimator the link is lossy before the submission.
        est = client.adaptive.estimator_for(channel)
        for _ in range(300):
            est.observe_attempt("loss", 1000, 0.01)
            est.observe_attempt("ok", 1000, 0.01)
            est.observe_attempt("loss", 1000, 0.01)
        assert est.failure_probability > 0.2
        outcome = client.submit_fingerprint(fingerprint, channel)
        # Entry rung came from the policy, not backpressure: the first
        # attempt already used a shrunken payload.
        assert outcome.attempt_records[0].rung >= 1

    def test_zero_fault_channel_stays_full_quality(self):
        client = self._client(AdaptiveConfig())
        fingerprint = self._fingerprint(client)
        channel = FaultyChannel(_channel(), FaultSpec())
        outcome = client.submit_fingerprint(fingerprint, channel)
        assert outcome.status == "delivered"
        assert outcome.attempt_records[0].rung == 0

    def test_multi_path_client_uses_policy_channel(self):
        client = self._client(AdaptiveConfig(min_dwell_decisions=0))
        fingerprint = self._fingerprint(client)
        lte = FaultyChannel(CHANNEL_PRESETS["lte"], FaultSpec(seed=0))
        wifi = FaultyChannel(CHANNEL_PRESETS["wifi"], FaultSpec(seed=0))
        client.adaptive.register_path("lte", lte)
        client.adaptive.register_path("wifi", wifi)
        outcome = client.submit_fingerprint(fingerprint, channel=None)
        assert outcome.delivered


class TestAdaptiveExperiment:
    def test_deterministic_and_improving(self):
        from repro.evaluation.experiments.adaptive_offload import run

        first = run(queries=160)
        second = run(queries=160)
        assert first == second
        assert first["regimes_improved"] >= 2
        # No accuracy regression where bytes improved.
        for regime in first["regimes"].values():
            if regime["improved"]:
                assert (
                    regime["adaptive"]["delivery_rate"]
                    >= regime["reactive"]["delivery_rate"]
                )

    def test_estimator_recovers_bursty_rates_in_experiment(self):
        from repro.evaluation.experiments.adaptive_offload import REGIMES, run

        result = run(queries=400, regimes=["bursty"])
        estimator = result["regimes"]["bursty"]["adaptive"]["estimator"]
        spec = REGIMES["bursty"][0]
        assert estimator["outage_enter_hat"] == pytest.approx(
            spec["outage_enter"], abs=0.05
        )
        assert estimator["outage_exit_hat"] == pytest.approx(
            spec["outage_exit"], abs=0.2
        )


class TestLoadgenAdaptive:
    def _model(self):
        from repro.loadgen import TrafficModel

        return TrafficModel(
            users=300, venues=4, duration_seconds=4.0, rate_per_user=0.5
        )

    def test_adaptive_uplink_summary(self):
        from repro.loadgen import run_loadtest

        channel = FaultyChannel(
            CHANNEL_PRESETS["lte"], FaultSpec(loss=0.3, seed=3)
        )
        report = run_loadtest(
            self._model(),
            seed=3,
            channel=channel,
            adaptive=True,
            registry=MetricsRegistry(),
        )
        uplink = report["uplink"]
        assert "adaptive" in uplink
        assert uplink["adaptive"]["estimators"]["lte"]["attempts"] > 0
        assert uplink["wasted_bytes"] >= 0

    def test_adaptive_reduces_wasted_bytes(self):
        from repro.loadgen import run_loadtest

        def wasted(adaptive: bool) -> int:
            channel = FaultyChannel(
                CHANNEL_PRESETS["lte"], FaultSpec(loss=0.35, seed=3)
            )
            report = run_loadtest(
                self._model(),
                seed=3,
                channel=channel,
                adaptive=adaptive,
                registry=MetricsRegistry(),
            )
            return report["uplink"]["wasted_bytes"]

        assert wasted(True) < wasted(False)

    def test_reactive_report_unchanged_shape(self):
        from repro.loadgen import run_loadtest

        channel = FaultyChannel(
            CHANNEL_PRESETS["lte"], FaultSpec(loss=0.2, seed=3)
        )
        report = run_loadtest(
            self._model(),
            seed=3,
            channel=channel,
            registry=MetricsRegistry(),
        )
        assert "adaptive" not in report["uplink"]
