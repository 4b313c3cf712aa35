"""Uplink channel: bandwidth, propagation delay, jitter.

"Several factors including the distance between the device and cloud,
network bandwidth and channel, and sheer data quantity contribute to"
end-to-end latency; the model keeps exactly those three terms.

Mobile links are asymmetric: the ``downlink_mbps`` field (default
``None`` = symmetric) rates the response leg separately, and every
transfer is recorded with a ``direction`` label so upload accounting
(``network_upload_bytes*``) only ever counts bytes the device put on
the air — responses land in ``network_download_bytes_total``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import current_registry, record_span
from repro.util.validation import check_positive

__all__ = ["UplinkChannel", "CHANNEL_PRESETS", "resolve_channel"]


def _record_transfer(
    channel_name: str, num_bytes: int, seconds: float, direction: str
) -> None:
    """Report a transfer into the contextual registry, if one is active.

    The channel model is a frozen value object used in tight simulation
    loops, so it carries no registry of its own: outside a
    :func:`repro.obs.use_registry` block the metrics are a no-op.

    Each transfer is also recorded as a ``network.transfer`` span whose
    duration is the *simulated* seconds (no wall clock elapses here).
    Inside a :func:`repro.obs.use_trace_context` block the span joins
    the originating query's trace — how a fingerprint's channel leg
    correlates with the frame that produced it; without an ambient span,
    context, or collector, :func:`repro.obs.record_span` is a no-op too.

    ``direction`` separates the two legs of a round trip: only ``"up"``
    transfers count as uploads (the response leg used to inflate
    ``network_upload_bytes_total``).
    """
    record_span(
        "network.transfer",
        seconds,
        channel=channel_name,
        bytes=int(num_bytes),
        direction=direction,
    )
    registry = current_registry()
    if registry is None:
        return
    registry.sketch(
        "network_transfer_seconds",
        help="one-way transfer latency per payload",
        channel=channel_name,
        direction=direction,
    ).observe(seconds)
    if direction == "up":
        registry.sketch(
            "network_upload_bytes",
            help="payload size per upload",
            channel=channel_name,
        ).observe(num_bytes)
        registry.counter(
            "network_upload_bytes_total",
            help="cumulative bytes placed on the uplink",
            channel=channel_name,
        ).inc(num_bytes)
    else:
        registry.counter(
            "network_download_bytes_total",
            help="cumulative bytes received on the downlink",
            channel=channel_name,
        ).inc(num_bytes)


@dataclass(frozen=True)
class UplinkChannel:
    """A fixed-rate link with additive RTT and lognormal jitter.

    ``downlink_mbps`` rates the response leg; ``None`` means the link is
    symmetric (the uplink rate applies both ways).
    """

    name: str
    bandwidth_mbps: float
    rtt_ms: float = 40.0
    jitter_sigma: float = 0.2  # lognormal sigma on the RTT term
    downlink_mbps: float | None = None

    def __post_init__(self) -> None:
        check_positive("bandwidth_mbps", self.bandwidth_mbps)
        check_positive("rtt_ms", self.rtt_ms)
        if self.downlink_mbps is not None:
            check_positive("downlink_mbps", self.downlink_mbps)

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_mbps * 1e6 / 8.0

    @property
    def downlink_bytes_per_second(self) -> float:
        rate = (
            self.bandwidth_mbps if self.downlink_mbps is None else self.downlink_mbps
        )
        return rate * 1e6 / 8.0

    def serialization_seconds(self, num_bytes: int) -> float:
        """Pure transmission time for an uplink payload."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        return num_bytes / self.bytes_per_second

    def response_serialization_seconds(self, num_bytes: int) -> float:
        """Pure transmission time for a downlink payload."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        return num_bytes / self.downlink_bytes_per_second

    def _one_way_seconds(
        self,
        serialization: float,
        num_bytes: int,
        rng: np.random.Generator | None,
        direction: str,
    ) -> float:
        base_half_rtt = self.rtt_ms / 2e3
        if rng is None or self.jitter_sigma == 0:
            seconds = serialization + base_half_rtt
        else:
            jitter = float(rng.lognormal(mean=0.0, sigma=self.jitter_sigma))
            seconds = serialization + base_half_rtt * jitter
        _record_transfer(self.name, num_bytes, seconds, direction)
        return seconds

    def transfer_seconds(
        self, num_bytes: int, rng: np.random.Generator | None = None
    ) -> float:
        """One-way upload latency: serialization + half-RTT (+ jitter)."""
        return self._one_way_seconds(
            self.serialization_seconds(num_bytes), num_bytes, rng, "up"
        )

    def response_seconds(
        self, num_bytes: int, rng: np.random.Generator | None = None
    ) -> float:
        """One-way download latency at the downlink rate."""
        return self._one_way_seconds(
            self.response_serialization_seconds(num_bytes), num_bytes, rng, "down"
        )


CHANNEL_PRESETS: dict[str, UplinkChannel] = {
    # Typical sustained rates (not headline peaks); cellular links are
    # asymmetric — downlink a few times the uplink — while WiFi is
    # symmetric enough to model with one rate.
    "3g": UplinkChannel(name="3g", bandwidth_mbps=1.0, rtt_ms=120.0, downlink_mbps=4.0),
    "lte": UplinkChannel(
        name="lte", bandwidth_mbps=8.0, rtt_ms=60.0, downlink_mbps=24.0
    ),
    "wifi": UplinkChannel(name="wifi", bandwidth_mbps=30.0, rtt_ms=15.0),
}


def resolve_channel(name: str) -> UplinkChannel:
    """Look up a channel preset by name, with a helpful error.

    The single resolution point for CLI ``--channel`` flags (experiment
    subcommands, ``repro serve``): unknown names fail fast listing the
    presets instead of surfacing a bare ``KeyError`` deep in a driver.
    """
    try:
        return CHANNEL_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown channel {name!r}; available presets: "
            f"{', '.join(sorted(CHANNEL_PRESETS))}"
        ) from None
