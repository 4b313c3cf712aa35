"""Chaos suite: fault injection, retry/backoff, graceful degradation.

Covers the fault-injecting channel wrapper (`repro.network.faults`), the
retry/degradation submission path, the client's backpressure loop, the
oracle refresher's stale-snapshot fallback, and the VPDT v2 delta format
(geometry validation, v1 rejection, saturation rejection) — plus the
acceptance properties: zero-fault parity with the bare channel and
deterministic accounting under 20% loss.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bloom import CountingBloomFilter, SnapshotCorruptError
from repro.core import (
    OracleRefresher,
    UniquenessOracle,
    VisualPrintClient,
    VisualPrintConfig,
)
from repro.core.fingerprint import (
    Fingerprint,
    degradation_keep_counts,
    degradation_ladder,
)
from repro.core.persistence import ServerStateStore
from repro.core.server import VisualPrintServer
from repro.core.updates import (
    apply_delta,
    choose_refresh_payload,
    diff_counting_filters,
)
from repro.features.keypoint import KeypointSet
from repro.features.serialize import serialized_size
from repro.network import (
    FaultSpec,
    FaultyChannel,
    RetryPolicy,
    TransferError,
    UplinkChannel,
    simulate_stream,
    submit_payload,
)
from repro.obs import (
    EventLog,
    MetricsRegistry,
    TraceCollector,
    use_collector,
    use_event_log,
    use_registry,
)


def _channel() -> UplinkChannel:
    # Jitterless: 1 Mbps => 125 kB/s, 40 ms RTT => 0.02 s half-RTT.
    return UplinkChannel("t", bandwidth_mbps=1.0, rtt_ms=40.0, jitter_sigma=0.0)


def _outage_alternator(seed: int = 0) -> FaultyChannel:
    # enter=1/exit=1 alternates outage, success, outage, ... exactly.
    return FaultyChannel(
        _channel(), FaultSpec(outage_enter=1.0, outage_exit=1.0, seed=seed)
    )


class TestFaultSpec:
    def test_default_is_null(self):
        assert FaultSpec().is_null

    def test_any_fault_field_breaks_null(self):
        assert not FaultSpec(loss=0.1).is_null
        assert not FaultSpec(outage_enter=0.1).is_null
        assert not FaultSpec(dip_probability=0.1).is_null

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(loss=1.5)
        with pytest.raises(ValueError):
            FaultSpec(outage_enter=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(outage_exit=0.0)  # the chain could never leave "bad"
        with pytest.raises(ValueError):
            FaultSpec(dip_factor=0.5)


class TestFaultyChannel:
    def test_spec_and_fields_are_exclusive(self):
        with pytest.raises(ValueError):
            FaultyChannel(_channel(), FaultSpec(), loss=0.1)

    def test_null_spec_delegates_latency(self):
        bare = _channel()
        wrapped = FaultyChannel(bare, FaultSpec())
        for size in (100, 125_000):
            assert wrapped.transfer_seconds(size) == bare.transfer_seconds(size)
            assert wrapped.response_seconds(size) == bare.response_seconds(size)

    def test_null_spec_preserves_jitter_stream(self):
        # A null wrap must consume the caller's rng identically to the
        # bare channel — same draws, same order.
        jittery = UplinkChannel("j", bandwidth_mbps=8.0, jitter_sigma=0.3)
        bare_rng = np.random.default_rng(5)
        wrapped_rng = np.random.default_rng(5)
        wrapped = FaultyChannel(jittery, FaultSpec())
        for _ in range(8):
            assert wrapped.transfer_seconds(4096, wrapped_rng) == pytest.approx(
                jittery.transfer_seconds(4096, bare_rng)
            )

    def test_null_spec_metrics_parity(self):
        bare_registry, wrapped_registry = MetricsRegistry(), MetricsRegistry()
        bare = _channel()
        wrapped = FaultyChannel(_channel(), FaultSpec())
        for channel, registry in ((bare, bare_registry), (wrapped, wrapped_registry)):
            with use_registry(registry):
                channel.transfer_seconds(10_000)
                channel.response_seconds(256)
        assert wrapped_registry.samples() == bare_registry.samples()

    def test_loss_raises_with_full_attempt_cost(self):
        lossy = FaultyChannel(_channel(), loss=1.0)
        with pytest.raises(TransferError) as excinfo:
            lossy.transfer_seconds(125_000)
        fault = excinfo.value
        assert fault.kind == "loss"
        assert fault.direction == "up"
        assert fault.channel == "t"
        # Lost payload: fully serialized (1 s), then an RTT timeout.
        assert fault.elapsed_seconds == pytest.approx(1.0 + 0.04)

    def test_outage_fails_fast(self):
        down = FaultyChannel(
            _channel(), FaultSpec(outage_enter=1.0, outage_exit=1e-9)
        )
        with pytest.raises(TransferError) as excinfo:
            down.transfer_seconds(125_000)
        assert excinfo.value.kind == "outage"
        # No air time: one RTT radio probe.
        assert excinfo.value.elapsed_seconds == pytest.approx(0.04)

    def test_outage_state_persists(self):
        # Gilbert–Elliott: with a tiny exit probability the bad state
        # sticks across attempts.
        down = FaultyChannel(
            _channel(), FaultSpec(outage_enter=1.0, outage_exit=1e-9)
        )
        kinds = []
        for _ in range(5):
            with pytest.raises(TransferError) as excinfo:
                down.transfer_seconds(100)
            kinds.append(excinfo.value.kind)
        assert kinds == ["outage"] * 5

    def test_outage_alternation(self):
        channel = _outage_alternator()
        with pytest.raises(TransferError):
            channel.transfer_seconds(100)
        assert channel.transfer_seconds(100) > 0  # recovered
        with pytest.raises(TransferError):
            channel.transfer_seconds(100)

    def test_response_faults_are_downlink(self):
        lossy = FaultyChannel(_channel(), loss=1.0)
        with pytest.raises(TransferError) as excinfo:
            lossy.response_seconds(1000)
        assert excinfo.value.direction == "down"

    def test_dip_slows_without_failing(self):
        dippy = FaultyChannel(_channel(), dip_probability=1.0, dip_factor=4.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            seconds = dippy.transfer_seconds(125_000)
        # 4x serialization at 1/4 bandwidth, plus the usual half-RTT.
        assert seconds == pytest.approx(4.0 + 0.02)
        counter = registry.counter(
            "network_faults_injected_total", channel="t", kind="dip"
        )
        assert counter.value == 1

    def test_deterministic_fault_sequence(self):
        def kinds(seed: int) -> list[str | None]:
            channel = FaultyChannel(
                _channel(), FaultSpec(loss=0.3, outage_enter=0.1, seed=seed)
            )
            out = []
            for _ in range(40):
                try:
                    channel.transfer_seconds(100)
                    out.append(None)
                except TransferError as fault:
                    out.append(fault.kind)
            return out

        assert kinds(1) == kinds(1)
        assert kinds(1) != kinds(2)

    def test_fault_metrics_and_wasted_bytes(self):
        registry = MetricsRegistry()
        lossy = FaultyChannel(_channel(), loss=1.0)
        with use_registry(registry):
            for _ in range(3):
                with pytest.raises(TransferError):
                    lossy.transfer_seconds(2000)
        assert (
            registry.counter(
                "network_faults_injected_total", channel="t", kind="loss"
            ).value
            == 3
        )
        assert (
            registry.counter("network_wasted_bytes_total", channel="t").value == 6000
        )

    def test_fault_span_emitted(self):
        collector = TraceCollector()
        lossy = FaultyChannel(_channel(), loss=1.0)
        with use_collector(collector):
            with pytest.raises(TransferError):
                lossy.transfer_seconds(4096)
        assert len(collector.roots) == 1
        span = collector.roots[0]
        assert span.name == "network.fault"
        assert span.attributes["kind"] == "loss"
        assert span.attributes["bytes"] == 4096
        assert span.attributes["direction"] == "up"

    def test_duck_types_as_channel(self):
        bare = _channel()
        wrapped = FaultyChannel(bare, loss=0.5)
        assert wrapped.name == bare.name
        assert wrapped.bandwidth_mbps == bare.bandwidth_mbps
        assert wrapped.rtt_ms == bare.rtt_ms
        assert wrapped.bytes_per_second == bare.bytes_per_second
        assert wrapped.inner is bare
        assert wrapped.serialization_seconds(1000) == bare.serialization_seconds(1000)


class TestRetryPolicy:
    def test_backoff_progression(self):
        policy = RetryPolicy(base_backoff_seconds=0.05, backoff_multiplier=2.0)
        assert policy.backoff_seconds(1) == pytest.approx(0.05)
        assert policy.backoff_seconds(2) == pytest.approx(0.10)
        assert policy.backoff_seconds(3) == pytest.approx(0.20)

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_backoff_seconds=0.1, jitter=0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            pause = policy.backoff_seconds(1, rng)
            assert 0.1 <= pause <= 0.15

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(0)


class TestSubmitPayload:
    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            submit_payload(_channel(), [])

    def test_fault_free_is_one_transfer(self):
        registry = MetricsRegistry()
        channel = _channel()
        outcome = submit_payload(channel, [1000], registry=registry)
        assert outcome.status == "delivered"
        assert outcome.attempts == 1
        assert outcome.retries == 0
        assert outcome.latency_seconds == pytest.approx(
            channel.transfer_seconds(1000)
        )
        assert outcome.payload_bytes == 1000
        # Zero-fault parity: no retry/degradation counters are created.
        assert registry.samples() == []

    def test_degrades_down_ladder(self):
        registry = MetricsRegistry()
        outcome = submit_payload(
            _outage_alternator(),
            [1000, 500, 250],
            RetryPolicy(base_backoff_seconds=0.05, jitter=0.0),
            registry=registry,
        )
        # Attempt 1 hits the outage (0.04 s), backs off 0.05 s, then the
        # 500-byte rung goes through (0.004 s + half-RTT).
        assert outcome.status == "degraded"
        assert outcome.attempts == 2
        assert outcome.retries == 1
        assert outcome.ladder_step == 1
        assert outcome.payload_bytes == 500
        assert outcome.latency_seconds == pytest.approx(0.04 + 0.05 + 0.024)
        assert outcome.wasted_seconds == pytest.approx(0.04)
        assert outcome.backoff_seconds == pytest.approx(0.05)
        assert registry.counter("network_retries_total", channel="t").value == 1
        assert registry.counter("queries_degraded_total", channel="t").value == 1

    def test_abandoned_after_max_attempts(self):
        registry = MetricsRegistry()
        lossy = FaultyChannel(_channel(), loss=1.0)
        outcome = submit_payload(
            lossy, [125_000], RetryPolicy(max_attempts=3), registry=registry
        )
        assert outcome.status == "abandoned"
        assert not outcome.delivered
        assert outcome.attempts == 3
        assert outcome.retries == 2
        assert outcome.payload_bytes == 0
        assert outcome.wasted_seconds == pytest.approx(3 * 1.04)
        assert registry.counter("queries_abandoned_total", channel="t").value == 1

    def test_budget_cuts_retries_short(self):
        lossy = FaultyChannel(_channel(), loss=1.0)
        outcome = submit_payload(
            lossy,
            [125_000],
            RetryPolicy(max_attempts=10, budget_seconds=1.5, jitter=0.0),
        )
        # Each failed attempt burns 1.04 s; the second exceeds the budget.
        assert outcome.status == "abandoned"
        assert outcome.attempts == 2

    def test_start_step_pre_degrades(self):
        outcome = submit_payload(_channel(), [1000, 500, 250], start_step=2)
        assert outcome.status == "degraded"
        assert outcome.payload_bytes == 250

    def test_deterministic_for_fixed_seed(self):
        def run() -> list[tuple]:
            channel = FaultyChannel(_channel(), FaultSpec(loss=0.4, seed=9))
            rng = np.random.default_rng(0)
            policy = RetryPolicy(jitter=0.2)
            return [
                submit_payload(channel, [1000, 500], policy, rng) for _ in range(20)
            ]

        assert run() == run()


class TestStreamRetries:
    def test_null_faults_match_bare_stream(self):
        payloads = [30_000] * 20
        bare = simulate_stream("s", payloads, _channel(), capture_fps=2.0)
        wrapped = simulate_stream(
            "s",
            payloads,
            FaultyChannel(_channel(), FaultSpec()),
            capture_fps=2.0,
            retry=RetryPolicy(),
        )
        assert wrapped.events == bare.events

    def test_lossy_stream_accounts_every_frame(self):
        registry = MetricsRegistry()
        channel = FaultyChannel(_channel(), FaultSpec(loss=0.5, seed=3))
        payloads = [20_000] * 30
        with use_registry(registry):
            trace = simulate_stream(
                "s",
                payloads,
                channel,
                capture_fps=2.0,
                retry=RetryPolicy(max_attempts=2, budget_seconds=1.0),
            )
        delivered = len(trace.events)
        dropped = registry.counter("network_frames_dropped_total", scheme="s").value
        abandoned = registry.counter(
            "network_frames_abandoned_total", scheme="s"
        ).value
        assert delivered + dropped + abandoned == len(payloads)
        assert abandoned > 0  # the chaos actually bit
        assert registry.counter("network_retries_total", channel="t").value > 0

    def test_lossy_stream_deterministic(self):
        def run():
            channel = FaultyChannel(_channel(), FaultSpec(loss=0.5, seed=3))
            return simulate_stream(
                "s", [20_000] * 30, channel, capture_fps=2.0, retry=RetryPolicy()
            )

        assert run().events == run().events

    def test_lossy_stream_attempt_accounting(self):
        """Each failed attempt is observed, spanned, counted and costed once.

        A loss costs the frame's serialization and an outage costs
        nothing; the seeded totals pin this run's fault sequence.
        """
        registry = MetricsRegistry()
        collector = TraceCollector()
        log = EventLog()
        attempts: list[tuple] = []
        spec = FaultSpec(loss=0.3, outage_enter=0.15, outage_exit=0.4, seed=5)
        channel = FaultyChannel(_channel(), spec)
        channel.add_observer(lambda *attempt: attempts.append(attempt))
        with use_registry(registry), use_collector(collector), use_event_log(log):
            trace = simulate_stream(
                "s",
                [20_000] * 40,
                channel,
                capture_fps=2.0,
                retry=RetryPolicy(max_attempts=3, budget_seconds=2.0),
            )
        faults = [attempt for attempt in attempts if attempt[0] in ("loss", "outage")]
        for kind, num_bytes, elapsed, direction in faults:
            assert direction == "up"
            air_time = channel.serialization_seconds(num_bytes)
            assert elapsed == (air_time if kind == "loss" else 0.0)
        spans = [span for span in collector.roots if span.name == "network.fault"]
        assert [
            (span.attributes["kind"], span.attributes["bytes"]) for span in spans
        ] == [(kind, num_bytes) for kind, num_bytes, _, _ in faults]
        for span, (_, _, elapsed, _) in zip(spans, faults):
            assert span.duration_seconds == pytest.approx(elapsed, abs=1e-12)

        def faults_of(kind: str) -> float:
            return registry.counter(
                "network_faults_injected_total", channel="t", kind=kind
            ).value

        losses = sum(kind == "loss" for kind, *_ in faults)
        outages = sum(kind == "outage" for kind, *_ in faults)
        assert (faults_of("loss"), faults_of("outage")) == (losses, outages)
        assert registry.counter(
            "network_wasted_bytes_total", channel="t"
        ).value == 20_000 * losses
        assert registry.counter(
            "channel_outage_seconds_total", channel="t"
        ).value == 0.0
        assert (losses, outages, len(trace.events)) == (13, 37, 25)
        assert len(log.by_kind("channel.outage_enter")) == 9
        exits = log.by_kind("channel.outage_exit")
        assert [record["attempts"] for record in exits] == [2, 10, 1, 3, 10, 2, 5, 1, 3]
        assert sum(record["attempts"] for record in exits) == outages


def _synthetic_fingerprint(count: int = 64) -> Fingerprint:
    rng = np.random.default_rng(0)
    keypoints = KeypointSet(
        positions=rng.uniform(0, 100, (count, 2)).astype(np.float32),
        scales=np.ones(count, dtype=np.float32),
        orientations=np.zeros(count, dtype=np.float32),
        responses=np.ones(count, dtype=np.float32),
        descriptors=rng.integers(0, 256, (count, 128)).astype(np.float32),
    )
    # Stored most-unique-first: ascending oracle counts.
    return Fingerprint(
        keypoints=keypoints,
        uniqueness_counts=np.arange(count, dtype=np.int64),
    )


class TestDegradation:
    def test_keep_counts_halve_to_floor(self):
        assert degradation_keep_counts(200) == [200, 100, 50]
        assert degradation_keep_counts(40, floor=16, max_steps=3) == [40, 20]
        assert degradation_keep_counts(10, floor=16) == [10]

    def test_truncate_keeps_most_unique_prefix(self):
        fingerprint = _synthetic_fingerprint(64)
        smaller = fingerprint.truncate(16)
        assert len(smaller) == 16
        assert np.array_equal(smaller.uniqueness_counts, np.arange(16))
        assert np.array_equal(
            smaller.keypoints.descriptors, fingerprint.keypoints.descriptors[:16]
        )
        assert fingerprint.truncate(64) is fingerprint
        with pytest.raises(ValueError):
            fingerprint.truncate(-1)

    def test_truncated_sizes_match_ladder_pricing(self):
        fingerprint = _synthetic_fingerprint(64)
        for count in degradation_keep_counts(64):
            assert fingerprint.truncate(count).upload_bytes == serialized_size(count)


class TestClientRecovery:
    def _client(self) -> VisualPrintClient:
        config = VisualPrintConfig(descriptor_capacity=5000, fingerprint_size=64)
        return VisualPrintClient(UniquenessOracle(config), config)

    def test_degradation_ladder_sizes(self):
        client = self._client()
        ladder = degradation_ladder(
            64, floor=client.degrade_floor, max_steps=client.degrade_steps
        )
        assert ladder == [serialized_size(c) for c in (64, 32, 16)]
        outcome = client.submit_fingerprint(
            _synthetic_fingerprint(64), _outage_alternator()
        )
        assert [a.payload_bytes for a in outcome.attempt_records] == ladder[:2]

    def test_submission_degrades_and_recovers(self):
        client = self._client()
        fingerprint = _synthetic_fingerprint(64)
        outcome = client.submit_fingerprint(fingerprint, _outage_alternator())
        assert outcome.status == "degraded"
        assert outcome.ladder_step == 1
        # Delivered at rung 1: the next submission probes one rung up.
        assert client.backpressure_level == 0

    def test_backpressure_rises_then_drains(self):
        client = self._client()
        fingerprint = _synthetic_fingerprint(64)
        lossy = FaultyChannel(_channel(), loss=1.0)
        client.submit_fingerprint(
            fingerprint, lossy, retry_policy=RetryPolicy(max_attempts=2)
        )
        assert client.backpressure_level == 1
        client.submit_fingerprint(
            fingerprint, lossy, retry_policy=RetryPolicy(max_attempts=2)
        )
        assert client.backpressure_level == 2  # clamped at the ladder end
        # The link heals: the pre-degraded submission lands at rung 2,
        # and the level steps back down (additive decrease).
        outcome = client.submit_fingerprint(fingerprint, _channel())
        assert outcome.status == "degraded"
        assert outcome.ladder_step == 2
        assert client.backpressure_level == 1

    def test_offload_frame_delivers(self):
        client = self._client()
        rng = np.random.default_rng(0)
        image = rng.uniform(0, 1, (160, 160)).astype(np.float32)
        report = client.offload_frame(image, _channel())
        assert report.status == "delivered"
        assert report.fingerprint is not None
        assert report.outcome is not None
        assert report.outcome.payload_bytes == report.fingerprint.upload_bytes

    def test_offload_frame_abandons_on_dead_link(self):
        client = self._client()
        rng = np.random.default_rng(0)
        image = rng.uniform(0, 1, (160, 160)).astype(np.float32)
        lossy = FaultyChannel(_channel(), loss=1.0)
        report = client.offload_frame(
            image, lossy, retry_policy=RetryPolicy(max_attempts=2)
        )
        assert report.status == "abandoned"
        assert report.fingerprint is not None  # computed, just undelivered
        assert client.metrics.counter("queries_abandoned_total", channel="t").value == 1

    def test_offload_frame_blur_rejection_skips_channel(self):
        class AlwaysBlurred:
            def is_blurred(self, image) -> bool:
                return True

        config = VisualPrintConfig(descriptor_capacity=5000, fingerprint_size=64)
        client = VisualPrintClient(
            UniquenessOracle(config), config, blur_detector=AlwaysBlurred()
        )
        lossy = FaultyChannel(_channel(), loss=1.0)  # would raise if touched
        image = np.zeros((160, 160), dtype=np.float32)
        report = client.offload_frame(image, lossy)
        assert report.status == "rejected"
        assert report.fingerprint is None
        assert report.outcome is None


def _filter_pair(seed: int = 0) -> tuple[CountingBloomFilter, CountingBloomFilter]:
    rng = np.random.default_rng(seed)
    old = CountingBloomFilter(num_counters=512, num_hashes=4, seed=seed)
    old.add(rng.integers(0, 256, (40, 16)))
    new = CountingBloomFilter(num_counters=512, num_hashes=4, seed=seed)
    new.counters = old.counters.copy()
    new.add(rng.integers(0, 256, (25, 16)))
    return old, new


class TestDeltaFormatV2:
    def test_roundtrip(self):
        old, new = _filter_pair()
        delta = diff_counting_filters(old, new)
        assert delta.num_changes > 0
        apply_delta(old, delta)
        assert np.array_equal(old.counters, new.counters)

    def test_accepts_raw_payload(self):
        old, new = _filter_pair()
        payload = diff_counting_filters(old, new).payload
        apply_delta(old, payload)
        assert np.array_equal(old.counters, new.counters)

    def test_diff_validates_geometry(self):
        old, _ = _filter_pair()
        with pytest.raises(ValueError):
            diff_counting_filters(
                old, CountingBloomFilter(num_counters=256, num_hashes=4)
            )
        with pytest.raises(ValueError):
            diff_counting_filters(
                old, CountingBloomFilter(num_counters=512, num_hashes=5)
            )
        with pytest.raises(ValueError, match="counter width"):
            diff_counting_filters(
                old,
                CountingBloomFilter(num_counters=512, num_hashes=4, bits_per_counter=8),
            )
        with pytest.raises(ValueError, match="hash seed"):
            diff_counting_filters(
                old, CountingBloomFilter(num_counters=512, num_hashes=4, seed=99)
            )

    def test_apply_rejects_mismatched_base(self):
        old, new = _filter_pair()
        delta = diff_counting_filters(old, new)
        cases = {
            "counters": CountingBloomFilter(num_counters=256, num_hashes=4),
            "hashes": CountingBloomFilter(num_counters=512, num_hashes=5),
            "width": CountingBloomFilter(
                num_counters=512, num_hashes=4, bits_per_counter=8
            ),
            "seed": CountingBloomFilter(num_counters=512, num_hashes=4, seed=99),
        }
        for wrong in cases.values():
            with pytest.raises(ValueError):
                apply_delta(wrong, delta)

    def test_v1_payload_rejected(self):
        base, _ = _filter_pair()
        raw = struct.pack("<4sIII", b"VPDT", 1, base.num_counters, 0)
        with pytest.raises(ValueError, match="v1"):
            apply_delta(base, gzip.compress(raw))

    def test_bad_magic_and_future_version(self):
        base, _ = _filter_pair()
        with pytest.raises(ValueError, match="magic"):
            apply_delta(base, gzip.compress(struct.pack("<4sI", b"NOPE", 2)))
        raw = struct.pack(
            "<4sIIIIIq", b"VPDT", 3, base.num_counters, 0, base.num_hashes,
            base.bits_per_counter, base.hash_seed,
        )
        with pytest.raises(ValueError, match="version 3"):
            apply_delta(base, gzip.compress(raw))

    def test_oversaturated_values_rejected(self):
        base, _ = _filter_pair()
        before = base.counters.copy()
        # Hand-craft a delta writing 65535 into counter 0: the on-wire
        # <u2 can encode values a 10-bit filter cannot hold.
        raw = struct.pack(
            "<4sIIIIIq", b"VPDT", 2, base.num_counters, 1, base.num_hashes,
            base.bits_per_counter, base.hash_seed,
        )
        raw += np.array([0], dtype="<u4").tobytes()
        raw += np.array([65535], dtype="<u2").tobytes()
        with pytest.raises(SnapshotCorruptError, match="saturation"):
            apply_delta(base, gzip.compress(raw))
        assert np.array_equal(base.counters, before)

    @given(st.integers(0, 2**31), st.integers(1, 60), st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_apply_diff_reproduces_target(self, seed, initial, growth):
        rng = np.random.default_rng(seed)
        old = CountingBloomFilter(num_counters=256, num_hashes=3, seed=1)
        old.add(rng.integers(0, 256, (initial, 8)))
        new = CountingBloomFilter(num_counters=256, num_hashes=3, seed=1)
        new.counters = old.counters.copy()
        if growth:
            new.add(rng.integers(0, 256, (growth, 8)))
        apply_delta(old, diff_counting_filters(old, new))
        assert np.array_equal(old.counters, new.counters)


def _tiny_config(**overrides) -> VisualPrintConfig:
    return VisualPrintConfig(
        descriptor_capacity=2000, fingerprint_size=20, **overrides
    )


def _descriptors(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, 256, (count, 128)).astype(np.float32)


class TestOracleRefresher:
    def _pair(self, seed: int = 0):
        config = _tiny_config()
        rng = np.random.default_rng(seed)
        server = UniquenessOracle(config)
        server.insert(_descriptors(rng, 60))
        client = UniquenessOracle(config)
        client.counting.counters = server.counting.counters.copy()
        server.insert(_descriptors(rng, 30))  # growth since the client's copy
        return client, server, rng

    def test_refresh_applies_delta(self):
        client, server, _ = self._pair()
        registry = MetricsRegistry()
        refresher = OracleRefresher(client, registry=registry)
        report = refresher.refresh(server, now_seconds=10.0)
        assert report.status == "applied"
        assert report.staleness_seconds == 0.0
        assert np.array_equal(client.counting.counters, server.counting.counters)
        assert registry.gauge("oracle_staleness_seconds").value == 0.0
        assert registry.counter("oracle_refreshes_total", outcome="applied").value == 1

    def test_small_growth_prefers_delta(self):
        client, server, _ = self._pair()
        kind, payload = choose_refresh_payload(client, server)
        assert kind == "delta"
        assert len(payload) < server.snapshot().compressed_bytes

    def test_refresh_invalidates_download_cache(self):
        client, server, _ = self._pair()
        before = client.download_bytes()
        OracleRefresher(client).refresh(server)
        assert client.download_bytes() != before

    def test_failed_refresh_serves_stale(self):
        client, server, rng = self._pair()
        stale_counters = client.counting.counters.copy()
        registry = MetricsRegistry()
        refresher = OracleRefresher(
            client, RetryPolicy(max_attempts=2), registry=registry
        )
        dead = FaultyChannel(_channel(), loss=1.0)
        report = refresher.refresh(server, channel=dead, now_seconds=42.0)
        assert report.status == "stale"
        assert report.staleness_seconds == pytest.approx(42.0)
        # The client's copy is untouched and keeps answering queries.
        assert np.array_equal(client.counting.counters, stale_counters)
        assert client.counts(_descriptors(rng, 5)).shape == (5,)
        assert registry.gauge("oracle_staleness_seconds").value == pytest.approx(42.0)
        assert registry.counter("oracle_refreshes_total", outcome="failed").value == 1
        assert registry.counter("queries_abandoned_total", channel="t").value == 1

    def test_recovery_after_outage_clears_staleness(self):
        client, server, _ = self._pair()
        registry = MetricsRegistry()
        refresher = OracleRefresher(
            client, RetryPolicy(max_attempts=2), registry=registry
        )
        dead = FaultyChannel(_channel(), loss=1.0)
        refresher.refresh(server, channel=dead, now_seconds=42.0)
        report = refresher.refresh(server, channel=_channel(), now_seconds=60.0)
        assert report.status == "applied"
        assert registry.gauge("oracle_staleness_seconds").value == 0.0
        assert refresher.staleness_seconds(75.0) == pytest.approx(15.0)

    @given(seed=st.integers(0, 2**31))
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_persistence_roundtrip_after_delta_refresh(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        config = _tiny_config()
        server = VisualPrintServer(config)
        descriptors = _descriptors(rng, 50)
        server.ingest(descriptors, rng.uniform(0, 10, (50, 3)))
        client = UniquenessOracle(config)
        client.counting.counters = server.oracle.counting.counters.copy()
        extra = _descriptors(rng, 20)
        server.ingest(extra, rng.uniform(0, 10, (20, 3)))

        OracleRefresher(client).refresh(server.oracle)
        assert np.array_equal(
            client.counting.counters, server.oracle.counting.counters
        )

        root = tmp_path / f"server-{seed}"
        ServerStateStore(root).save(server)
        loaded, _ = ServerStateStore(root).load()
        queries = _descriptors(rng, 10)
        assert loaded.oracle.lookup_batch(queries) == server.oracle.lookup_batch(
            queries
        )


class TestFig16Chaos:
    """End-to-end acceptance: zero-fault parity and lossy accounting."""

    FAST = dict(seed=3, num_frames=6, image_size=160, fingerprint_size=40)

    @staticmethod
    def _run(**kwargs):
        from repro.evaluation.experiments import fig16_latency

        registry = MetricsRegistry()
        with use_registry(registry):
            result = fig16_latency.run(**kwargs)
        return result, registry

    @staticmethod
    def _deterministic_samples(registry: MetricsRegistry) -> list:
        # Byte counters and simulated-latency metrics are exact;
        # wall-clock stage sketches (span_*_seconds)
        # legitimately differ between runs.
        keep = ("network_", "client_upload", "client_keypoints",
                "client_frames", "queries_")
        return [
            sample
            for sample in registry.samples()
            if sample[0].startswith(keep)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_fault_parity(self, workers):
        bare, bare_registry = self._run(workers=workers, **self.FAST)
        wrapped, wrapped_registry = self._run(
            workers=workers,
            faults=FaultSpec(),
            retry=RetryPolicy(),
            **self.FAST,
        )
        assert np.array_equal(bare["upload_bytes"], wrapped["upload_bytes"])
        assert np.array_equal(
            bare["transfer_seconds"], wrapped["transfer_seconds"]
        )
        assert self._deterministic_samples(
            wrapped_registry
        ) == self._deterministic_samples(bare_registry)
        assert wrapped["faults"] == {
            "delivered": self.FAST["num_frames"],
            "degraded": 0,
            "abandoned": 0,
            "retries": 0,
        }

    def test_lossy_run_accounts_every_query(self):
        result, registry = self._run(
            faults=FaultSpec(loss=0.2, seed=1),
            retry=RetryPolicy(max_attempts=3),
            **self.FAST,
        )
        faults = result["faults"]
        assert faults["delivered"] + faults["abandoned"] == self.FAST["num_frames"]
        counted = sum(
            value
            for name, _, value in registry.samples()
            if name in ("queries_degraded_total", "queries_abandoned_total")
        )
        assert counted == faults["degraded"] + faults["abandoned"]

    def test_lossy_run_deterministic(self):
        kwargs = dict(
            faults=FaultSpec(loss=0.2, seed=1),
            retry=RetryPolicy(max_attempts=3),
            **self.FAST,
        )
        first, first_registry = self._run(**kwargs)
        second, second_registry = self._run(**kwargs)
        assert first["faults"] == second["faults"]
        assert np.array_equal(
            first["transfer_seconds"], second["transfer_seconds"]
        )
        assert self._deterministic_samples(
            first_registry
        ) == self._deterministic_samples(second_registry)
