"""Uplink channel model, sustainable-FPS math, and upload traces.

Figure 2 ("uplink bandwidth versus sustainable frames per second, by
encoding") and Figure 14 ("cumulative data upload by execution time")
are deterministic functions of payload sizes and channel rate; this
package provides those functions plus LTE/WiFi presets with jitter for
latency experiments, a seeded fault-injection layer
(:class:`FaultyChannel`, :class:`RetryPolicy`) for chaos runs, and the
predictive layer (:class:`LinkQualityEstimator`,
:class:`AdaptiveOffloadPolicy`) that shapes transmissions *before*
sending from observed channel history.
"""

from repro.network.channel import CHANNEL_PRESETS, UplinkChannel, resolve_channel
from repro.network.faults import (
    AttemptRecord,
    FaultSpec,
    FaultyChannel,
    RetryPolicy,
    TransferError,
    TransferOutcome,
    submit_payload,
)
from repro.network.fps import sustainable_fps, fps_curve
from repro.network.linkstate import (
    AdaptiveConfig,
    AdaptiveOffloadPolicy,
    LinkQualityEstimator,
    OffloadDecision,
)
from repro.network.upload import (
    UploadEvent,
    UploadTrace,
    record_wasted_transfer,
    simulate_stream,
)

__all__ = [
    "CHANNEL_PRESETS",
    "AdaptiveConfig",
    "AdaptiveOffloadPolicy",
    "AttemptRecord",
    "FaultSpec",
    "FaultyChannel",
    "LinkQualityEstimator",
    "OffloadDecision",
    "RetryPolicy",
    "TransferError",
    "TransferOutcome",
    "UplinkChannel",
    "UploadEvent",
    "UploadTrace",
    "fps_curve",
    "record_wasted_transfer",
    "resolve_channel",
    "simulate_stream",
    "submit_payload",
    "sustainable_fps",
]
