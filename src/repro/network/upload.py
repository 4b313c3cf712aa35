"""Cumulative upload traces (Fig. 14).

Simulates a capture session: frames arrive at the camera rate; each
produces a payload (whole frame, or a VisualPrint fingerprint) that
queues on the uplink.  The trace records cumulative bytes sent over
time — the two curves of Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.channel import UplinkChannel
from repro.network.faults import RetryPolicy, TransferError
from repro.obs import current_registry

__all__ = ["UploadEvent", "UploadTrace", "record_wasted_transfer", "simulate_stream"]


def record_wasted_transfer(
    num_bytes: int, channel: str = "download", registry=None
) -> None:
    """Count transfer bytes that bought nothing as wasted.

    The fault layer counts bytes on attempts *lost in flight*; this is
    the other way a transfer is wasted — delivered intact as far as the
    link can tell, then refused by swap-in validation (see
    ``repro.core.updates.apply_delta`` / ``apply_snapshot``).  Both land in the same
    ``network_wasted_bytes_total`` series so Fig. 14-style accounting
    sees every byte that crossed the air without advancing the system.
    """
    registry = registry if registry is not None else current_registry()
    if registry is not None:
        registry.counter(
            "network_wasted_bytes_total",
            help="bytes transmitted on attempts that were lost",
            channel=channel,
        ).inc(num_bytes)


@dataclass(frozen=True)
class UploadEvent:
    """One payload leaving the device."""

    time_seconds: float  # when the upload completes
    payload_bytes: int
    cumulative_bytes: int


@dataclass
class UploadTrace:
    """The cumulative-upload curve for one scheme."""

    scheme: str
    events: list[UploadEvent] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.events[-1].cumulative_bytes if self.events else 0

    def cumulative_at(self, times: np.ndarray) -> np.ndarray:
        """Cumulative bytes sent by each query time (step interpolation)."""
        times = np.asarray(times, dtype=np.float64)
        if not self.events:
            return np.zeros_like(times)
        event_times = np.array([e.time_seconds for e in self.events])
        cumulative = np.array([e.cumulative_bytes for e in self.events])
        indices = np.searchsorted(event_times, times, side="right") - 1
        out = np.where(indices >= 0, cumulative[np.maximum(indices, 0)], 0)
        return out.astype(np.float64)


def simulate_stream(
    scheme: str,
    payload_bytes_per_frame: list[int],
    channel: UplinkChannel,
    capture_fps: float = 10.0,
    drop_when_backlogged: bool = True,
    retry: RetryPolicy | None = None,
) -> UploadTrace:
    """Run a capture session through the uplink.

    Frames are captured every ``1 / capture_fps`` seconds.  If the
    uplink is still busy when a new frame arrives, the frame is dropped
    (the paper's client "rejects frames when processing falls behind the
    realtime stream") unless ``drop_when_backlogged`` is False, in which
    case frames queue.

    With ``retry`` set and a fault-injecting channel (one that exposes
    ``attempt_serialization_seconds``), lost frames are retransmitted
    under the policy: failed attempts and backoff pauses occupy the
    uplink, so faults cost realtime budget and cause knock-on drops.
    Frames that exhaust the policy are counted in
    ``network_frames_abandoned_total`` — never silently discarded.
    """
    if capture_fps <= 0:
        raise ValueError(f"capture_fps must be positive, got {capture_fps}")
    trace = UploadTrace(scheme=scheme)
    registry = current_registry()
    attempt_seconds = getattr(
        channel, "attempt_serialization_seconds", channel.serialization_seconds
    )
    uplink_free_at = 0.0
    cumulative = 0
    dropped = 0
    abandoned = 0
    retries = 0
    for frame_index, payload in enumerate(payload_bytes_per_frame):
        capture_time = frame_index / capture_fps
        if drop_when_backlogged and uplink_free_at > capture_time:
            dropped += 1
            continue
        start = max(capture_time, uplink_free_at)
        if retry is None:
            uplink_free_at = start + channel.serialization_seconds(payload)
            delivered = True
        else:
            elapsed = 0.0
            delivered = False
            for attempt_index in range(1, retry.max_attempts + 1):
                try:
                    elapsed += attempt_seconds(payload)
                except TransferError as fault:
                    elapsed += fault.elapsed_seconds
                    if (
                        attempt_index >= retry.max_attempts
                        or elapsed >= retry.budget_seconds
                    ):
                        break
                    pause = retry.backoff_seconds(attempt_index)
                    if elapsed + pause >= retry.budget_seconds:
                        break
                    elapsed += pause
                    retries += 1
                    continue
                delivered = True
                break
            uplink_free_at = start + elapsed
        if delivered:
            cumulative += payload
            trace.events.append(
                UploadEvent(
                    time_seconds=uplink_free_at,
                    payload_bytes=payload,
                    cumulative_bytes=cumulative,
                )
            )
        else:
            abandoned += 1
    if registry is not None and retries:
        registry.counter(
            "network_retries_total",
            help="resubmissions after a failed transfer attempt",
            channel=getattr(channel, "name", "channel"),
        ).inc(retries)
    if registry is not None and abandoned:
        registry.counter(
            "network_frames_abandoned_total",
            help="frames that exhausted their retransmission budget",
            scheme=scheme,
        ).inc(abandoned)
    if registry is not None:
        registry.counter(
            "network_payloads_total",
            help="payloads that made it onto the uplink",
            scheme=scheme,
        ).inc(len(trace.events))
        registry.counter(
            "network_frames_dropped_total",
            help="frames dropped because the uplink was backlogged",
            scheme=scheme,
        ).inc(dropped)
        registry.counter(
            "network_stream_bytes_total",
            help="cumulative bytes a simulated capture session uploaded",
            scheme=scheme,
        ).inc(cumulative)
    return trace
