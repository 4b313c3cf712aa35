"""Unit + property tests for the uplink model, FPS math, upload traces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    CHANNEL_PRESETS,
    UplinkChannel,
    fps_curve,
    simulate_stream,
    sustainable_fps,
)
from repro.obs import (
    MetricsRegistry,
    TraceCollector,
    TraceContext,
    use_collector,
    use_registry,
    use_trace_context,
)


class TestChannel:
    def test_serialization_time_linear(self):
        channel = UplinkChannel("t", bandwidth_mbps=8.0, rtt_ms=0.001)
        assert channel.serialization_seconds(2_000_000) == pytest.approx(
            2 * channel.serialization_seconds(1_000_000)
        )

    def test_one_megabit_per_second(self):
        channel = UplinkChannel("t", bandwidth_mbps=1.0)
        assert channel.serialization_seconds(125_000) == pytest.approx(1.0)

    def test_transfer_includes_rtt(self):
        channel = UplinkChannel("t", bandwidth_mbps=100.0, rtt_ms=100.0)
        assert channel.transfer_seconds(1) >= 0.05

    def test_jitter_varies(self):
        channel = UplinkChannel("t", bandwidth_mbps=8.0, jitter_sigma=0.5)
        rng = np.random.default_rng(0)
        samples = {channel.transfer_seconds(1000, rng) for _ in range(10)}
        assert len(samples) > 1

    def test_presets_exist(self):
        assert {"3g", "lte", "wifi"} <= set(CHANNEL_PRESETS)
        assert CHANNEL_PRESETS["wifi"].bandwidth_mbps > CHANNEL_PRESETS["3g"].bandwidth_mbps

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            UplinkChannel("t", bandwidth_mbps=0.0)


class TestChannelMetrics:
    """The channel model's reporting into the contextual registry."""

    def _channel(self) -> UplinkChannel:
        # Jitterless: 1 Mbps => 125 kB/s, 40 ms RTT => 0.02 s half-RTT.
        return UplinkChannel("t", bandwidth_mbps=1.0, rtt_ms=40.0, jitter_sigma=0.0)

    def test_transfer_seconds_histogram(self):
        registry = MetricsRegistry()
        channel = self._channel()
        with use_registry(registry):
            seconds = channel.transfer_seconds(125_000)
        sketch = registry.sketch(
            "network_transfer_seconds", channel="t", direction="up"
        )
        assert sketch.count == 1
        assert sketch.sum == pytest.approx(seconds)
        assert seconds == pytest.approx(1.02)  # 1 s serialization + half RTT

    def test_upload_byte_instruments(self):
        registry = MetricsRegistry()
        channel = self._channel()
        with use_registry(registry):
            channel.transfer_seconds(1000)
            channel.transfer_seconds(2500)
        sketch = registry.sketch("network_upload_bytes", channel="t")
        assert sketch.count == 2
        assert sketch.sum == pytest.approx(3500)
        assert registry.counter("network_upload_bytes_total", channel="t").value == 3500

    def test_round_trip_is_two_transfers(self):
        registry = MetricsRegistry()
        channel = self._channel()
        with use_registry(registry):
            channel.transfer_seconds(10_000)
            channel.response_seconds(256)
        up = registry.sketch(
            "network_transfer_seconds", channel="t", direction="up"
        )
        down = registry.sketch(
            "network_transfer_seconds", channel="t", direction="down"
        )
        assert up.count == 1 and down.count == 1
        # Only the uplink leg counts as upload; the response is downlink.
        assert (
            registry.counter("network_upload_bytes_total", channel="t").value == 10_000
        )
        assert (
            registry.counter("network_download_bytes_total", channel="t").value == 256
        )

    def test_response_leg_uses_downlink_rate(self):
        # 1 Mbps up / 4 Mbps down: the response must be 4x faster than
        # the same payload sent uplink (the old model rated both legs
        # at the uplink bandwidth).
        channel = UplinkChannel(
            "t", bandwidth_mbps=1.0, rtt_ms=40.0, jitter_sigma=0.0, downlink_mbps=4.0
        )
        up = channel.transfer_seconds(125_000) - 0.02
        down = channel.response_seconds(125_000) - 0.02
        assert up == pytest.approx(4 * down)
        assert channel.response_serialization_seconds(125_000) == pytest.approx(0.25)

    def test_symmetric_by_default(self):
        channel = self._channel()
        assert channel.downlink_mbps is None
        assert channel.response_seconds(5000) == pytest.approx(
            channel.transfer_seconds(5000)
        )

    def test_cellular_presets_are_asymmetric(self):
        for name in ("3g", "lte"):
            preset = CHANNEL_PRESETS[name]
            assert preset.downlink_mbps is not None
            assert preset.downlink_mbps > preset.bandwidth_mbps

    def test_no_registry_no_side_effects(self):
        # Outside use_registry the metrics (and spans) are a no-op.
        assert self._channel().transfer_seconds(1000) > 0

    def test_transfer_span_joins_ambient_context(self):
        collector = TraceCollector()
        channel = self._channel()
        context = TraceContext(trace_id="trace-q7", span_id="frame-q7")
        with use_collector(collector):
            with use_trace_context(context):
                seconds = channel.transfer_seconds(4096)
        assert len(collector.roots) == 1
        span = collector.roots[0]
        assert span.name == "network.transfer"
        assert span.trace_id == "trace-q7"
        assert span.parent_id == "frame-q7"
        assert span.duration_seconds == pytest.approx(seconds)
        assert span.attributes["bytes"] == 4096
        assert span.attributes["channel"] == "t"
        assert span.attributes["direction"] == "up"


class TestFps:
    def test_paper_png_example(self):
        # ~523 KB lossless frame on 2 Mbps: well under 1 FPS.
        assert sustainable_fps(2.0, 523 * 1024) < 0.5

    def test_linear_in_bandwidth(self):
        assert sustainable_fps(16.0, 10_000) == pytest.approx(
            2 * sustainable_fps(8.0, 10_000)
        )

    def test_curve_matches_scalar(self):
        bandwidths = np.array([1.0, 2.0, 4.0])
        curve = fps_curve(bandwidths, 50_000)
        for bandwidth, value in zip(bandwidths, curve):
            assert value == pytest.approx(sustainable_fps(bandwidth, 50_000))

    @given(
        st.floats(min_value=0.1, max_value=100),
        st.integers(min_value=100, max_value=10**7),
    )
    @settings(max_examples=30)
    def test_positive(self, bandwidth, frame_bytes):
        assert sustainable_fps(bandwidth, frame_bytes) > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sustainable_fps(0.0, 100)
        with pytest.raises(ValueError):
            fps_curve(np.array([-1.0]), 100)


class TestUploadTrace:
    def test_cumulative_monotone(self):
        channel = UplinkChannel("t", bandwidth_mbps=8.0)
        trace = simulate_stream("s", [10_000] * 50, channel, capture_fps=10.0)
        times = np.linspace(0, 10, 30)
        cumulative = trace.cumulative_at(times)
        assert (np.diff(cumulative) >= 0).all()

    def test_backlogged_frames_dropped(self):
        # Frames far larger than the uplink can carry per period.
        slow = UplinkChannel("slow", bandwidth_mbps=1.0)
        trace = simulate_stream("s", [500_000] * 20, slow, capture_fps=10.0)
        assert len(trace.events) < 20

    def test_queueing_mode_keeps_all(self):
        slow = UplinkChannel("slow", bandwidth_mbps=1.0)
        trace = simulate_stream(
            "s", [50_000] * 10, slow, capture_fps=10.0, drop_when_backlogged=False
        )
        assert len(trace.events) == 10
        assert trace.total_bytes == 500_000

    def test_small_payloads_all_sent(self):
        fast = UplinkChannel("fast", bandwidth_mbps=30.0)
        trace = simulate_stream("s", [30_000] * 20, fast, capture_fps=10.0)
        assert len(trace.events) == 20

    def test_visualprint_order_of_magnitude_cheaper(self):
        """The Fig. 14 headline: fingerprints vs whole frames."""
        channel = CHANNEL_PRESETS["wifi"]
        frames = simulate_stream("frames", [500_000] * 100, channel, 10.0)
        fingerprints = simulate_stream("vp", [40_000] * 100, channel, 10.0)
        assert frames.total_bytes >= 5 * fingerprints.total_bytes

    def test_empty_stream(self):
        channel = CHANNEL_PRESETS["lte"]
        trace = simulate_stream("s", [], channel)
        assert trace.total_bytes == 0
        assert trace.cumulative_at(np.array([1.0]))[0] == 0
