"""The VisualPrint client library.

Per frame: extract SIFT keypoints, query the downloaded uniqueness
oracle for every descriptor (constant time each), rank, keep the top-k,
serialize.  The client reports everything the paper's client-overhead
figures (Figs. 14 and 16) need into a :class:`repro.obs.MetricsRegistry`:
nested per-frame :class:`repro.obs.Span` traces (the latest "frame"
span is ``client.last_frame_span``), whose durations are the per-stage
latency sketches
(``span_frame_seconds``, ``span_sift_seconds``, ``span_oracle_seconds``,
``span_serialize_seconds``), frame/keypoint/byte counters, and a
blur-rejection counter.

The metrics surface is ``client.metrics`` (the registry) and
``client.latency_quantiles(stage)``; the pre-``repro.obs`` views
(``client.stats`` / ``client.median_latency``) completed their
deprecation cycle and are gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import VisualPrintConfig
from repro.core.fingerprint import Fingerprint, degradation_ladder
from repro.core.oracle import UniquenessOracle
from repro.features.keypoint import DESCRIPTOR_DIM, KeypointSet
from repro.features.serialize import serialize_keypoints_into
from repro.features.sift import SiftExtractor, SiftParams
from repro.network.faults import (
    RetryPolicy,
    TransferOutcome,
    next_backpressure_level,
    submit_payload,
)
from repro.network.linkstate import (
    AdaptiveConfig,
    AdaptiveOffloadPolicy,
    adaptive_policy,
)
from repro.obs import (
    MetricsRegistry,
    Span,
    resolve_registry,
    trace_span,
    use_trace_context,
)

if TYPE_CHECKING:
    from repro.features.blur import BlurDetector

__all__ = ["OffloadReport", "VisualPrintClient"]

#: Stages with a per-frame latency span (``span_<stage>_seconds``).
_STAGES = ("sift", "oracle", "serialize")


@dataclass(frozen=True)
class OffloadReport:
    """One frame's shutter-to-uplink outcome (see :meth:`offload_frame`).

    ``status`` is ``"rejected"`` (blur gate, nothing uploaded),
    ``"delivered"`` (full fingerprint), ``"degraded"`` (a shrunken
    fingerprint made it through), or ``"abandoned"`` (retry budget
    exhausted).
    """

    status: str
    fingerprint: Fingerprint | None
    outcome: TransferOutcome | None


class VisualPrintClient:
    """Extract → rank by uniqueness → upload only the top-k."""

    def __init__(
        self,
        oracle: UniquenessOracle,
        config: VisualPrintConfig | None = None,
        sift_params: SiftParams | None = None,
        blur_detector: "BlurDetector | None" = None,
        registry: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        degrade_floor: int = 16,
        degrade_steps: int = 2,
        adaptive: "AdaptiveOffloadPolicy | AdaptiveConfig | None" = None,
    ) -> None:
        self.oracle = oracle
        self.config = config or oracle.config
        self._registry = resolve_registry(registry)
        self._extractor = SiftExtractor(
            sift_params or SiftParams(contrast_threshold=0.01),
            registry=self._registry,
        )
        # Optional frame gate: "performs a quick check on each frame to
        # detect blur ... discarding such frames" (paper, client app).
        self.blur_detector = blur_detector
        #: The most recent "frame" span, the root of that query's trace.
        self.last_frame_span: Span | None = None
        # Zero-copy serialization state: the wire payload is written into
        # this reusable bytearray (grown once to the high-water mark),
        # with a float32 scratch for the descriptor rint/clip pass.
        self._serialize_buffer = bytearray()
        self._serialize_scratch: np.ndarray | None = None
        self._last_upload_bytes = 0
        self.retry_policy = retry_policy
        self.degrade_floor = int(degrade_floor)
        self.degrade_steps = int(degrade_steps)
        # How many ladder rungs recent submissions had to step down;
        # starts the next submission pre-degraded (see DESIGN.md §9).
        self._backpressure_level = 0
        # Optional predictive layer: consulted ahead of every
        # submission to shape entry rung / retry budget / path before
        # the first byte goes out (see DESIGN.md §15).
        self.adaptive = adaptive_policy(adaptive)
        self._m_frames = self._registry.counter(
            "client_frames_total", help="frames fully processed"
        )
        self._m_frames_blur = self._registry.counter(
            "client_frames_rejected_blur_total", help="frames dropped by the blur gate"
        )
        self._m_keypoints_extracted = self._registry.counter(
            "client_keypoints_extracted_total", help="keypoints out of SIFT"
        )
        self._m_keypoints_uploaded = self._registry.counter(
            "client_keypoints_uploaded_total", help="keypoints kept in fingerprints"
        )
        self._m_upload_bytes_total = self._registry.counter(
            "client_upload_bytes_total", help="cumulative fingerprint bytes"
        )
        self._m_upload_bytes = self._registry.sketch(
            "client_upload_bytes", help="per-fingerprint upload size"
        )

    # ------------------------------------------------------------------
    # Metrics API
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry all client instrumentation reports into."""
        return self._registry

    def latency_quantiles(
        self, stage: str, qs: tuple[float, ...] = (0.5, 0.9, 0.99)
    ) -> dict[float, float]:
        """Per-frame latency quantiles (seconds) for one pipeline stage.

        ``stage`` is one of ``"sift"``, ``"oracle"``, ``"serialize"``;
        the answer comes from that stage's ``span_<stage>_seconds``
        sketch.  Returns ``{q: seconds}``; all zeros before the first
        frame.
        """
        if stage not in _STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {_STAGES}")
        return self._registry.sketch(f"span_{stage}_seconds").quantiles(qs)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def extract_keypoints(self, image: np.ndarray) -> KeypointSet:
        """SIFT extraction with latency accounting."""
        with trace_span("sift", registry=self._registry) as span:
            keypoints = self._extractor.extract(image)
            span.set("keypoints", len(keypoints))
        return keypoints

    def fingerprint_keypoints(
        self, keypoints: KeypointSet, frame_index: int = 0
    ) -> Fingerprint:
        """Rank pre-extracted keypoints by uniqueness and keep the top-k."""
        config = self.config
        if len(keypoints) == 0:
            fingerprint = Fingerprint(
                keypoints=keypoints,
                uniqueness_counts=np.empty(0, dtype=np.int64),
                frame_index=frame_index,
            )
            self._account(keypoints, fingerprint)
            return fingerprint
        with trace_span("oracle", registry=self._registry) as span:
            counts = self.oracle.counts(keypoints.descriptors)
            order = self.oracle.rank_by_uniqueness(keypoints.descriptors, counts=counts)
            kept = order[: config.fingerprint_size]
            span.set("candidates", len(keypoints))
            span.set("kept", int(kept.shape[0]))
        fingerprint = Fingerprint(
            keypoints=keypoints.select(kept),
            uniqueness_counts=counts[kept],
            frame_index=frame_index,
        )
        self._account(keypoints, fingerprint)
        return fingerprint

    def process_frame(
        self, image: np.ndarray, frame_index: int = 0
    ) -> Fingerprint | None:
        """Full per-frame pipeline: blur gate, extract, rank, fingerprint.

        Returns ``None`` when the frame is rejected as blurred (nothing
        is uploaded for it) — only possible when a
        :class:`repro.features.BlurDetector` was supplied.

        The "frame" root span is the query's trace root: its
        ``trace_id`` identifies this query everywhere downstream, and
        ``client.last_frame_span.context`` hands drivers the
        :class:`repro.obs.TraceContext` to attach the channel transfer
        and server localize legs to (see DESIGN.md §8).
        """
        with trace_span(
            "frame", registry=self._registry, frame_index=frame_index
        ) as span:
            self.last_frame_span = span
            if self.blur_detector is not None and self.blur_detector.is_blurred(image):
                self._m_frames_blur.inc()
                span.set("rejected", "blur")
                return None
            keypoints = self.extract_keypoints(image)
            return self.fingerprint_keypoints(keypoints, frame_index=frame_index)

    # ------------------------------------------------------------------
    # Recovery: retries, degradation, backpressure
    # ------------------------------------------------------------------

    @property
    def backpressure_level(self) -> int:
        """Current degradation-ladder starting rung (0 = full quality)."""
        return self._backpressure_level

    def submit_fingerprint(
        self,
        fingerprint: Fingerprint,
        channel,
        rng: np.random.Generator | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> TransferOutcome:
        """Push one fingerprint through ``channel`` with retries.

        Failed attempts step down the degradation ladder; persistent
        trouble raises :attr:`backpressure_level` so the *next*
        submission starts pre-shrunk, and a delivery at any rung probes
        one rung back up (additive-increase / additive-decrease).  On a
        fault-free channel this is exactly one ``transfer_seconds``
        call — zero-fault parity with driving the channel directly.

        With :attr:`adaptive` set, :func:`submit_payload` consults the
        policy *before* the first byte goes out (entry rung, retry
        budget, backoff, path); the backpressure level stays a lower
        bound on the entry rung.
        """
        ladder = degradation_ladder(
            len(fingerprint), floor=self.degrade_floor, max_steps=self.degrade_steps
        )
        outcome = submit_payload(
            channel,
            ladder,
            retry_policy or self.retry_policy,
            rng,
            registry=self._registry,
            start_step=self._backpressure_level,
            adaptive=self.adaptive,
        )
        self._backpressure_level = next_backpressure_level(
            self._backpressure_level, outcome, len(ladder)
        )
        return outcome

    def offload_frame(
        self,
        image: np.ndarray,
        channel,
        frame_index: int = 0,
        rng: np.random.Generator | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> OffloadReport:
        """Full shutter-to-uplink path: process the frame, then submit it.

        The submission joins the frame's trace (one ``trace_id`` from
        SIFT through the last channel attempt).  A blur-rejected frame
        never touches the channel.
        """
        fingerprint = self.process_frame(image, frame_index=frame_index)
        if fingerprint is None:
            return OffloadReport(status="rejected", fingerprint=None, outcome=None)
        with use_trace_context(self.last_frame_span.context):
            outcome = self.submit_fingerprint(
                fingerprint, channel, rng=rng, retry_policy=retry_policy
            )
        return OffloadReport(
            status=outcome.status, fingerprint=fingerprint, outcome=outcome
        )

    @property
    def last_payload(self) -> memoryview:
        """Wire bytes of the most recent fingerprint (a read-only view).

        Valid until the next frame overwrites the shared serialization
        buffer; callers needing to keep it must copy.
        """
        return memoryview(self._serialize_buffer)[: self._last_upload_bytes].toreadonly()

    def _account(self, keypoints: KeypointSet, fingerprint: Fingerprint) -> None:
        count = len(fingerprint)
        scratch = self._serialize_scratch
        if scratch is None or scratch.shape[0] < count:
            scratch = self._serialize_scratch = np.empty(
                (count, DESCRIPTOR_DIM), dtype=np.float32
            )
        with trace_span("serialize", registry=self._registry) as span:
            upload_bytes = serialize_keypoints_into(
                fingerprint.keypoints, self._serialize_buffer, scratch=scratch[:count]
            )
            span.set("bytes", upload_bytes)
        self._last_upload_bytes = upload_bytes
        self._m_frames.inc()
        self._m_keypoints_extracted.inc(len(keypoints))
        self._m_keypoints_uploaded.inc(len(fingerprint))
        self._m_upload_bytes_total.inc(upload_bytes)
        self._m_upload_bytes.observe(upload_bytes)
