"""Figure 14: cumulative data upload over a 70 s capture session.

Whole-frame upload ships every (losslessly compressed) frame the uplink
can carry; VisualPrint ships a ~top-k fingerprint per frame.  Expected
shape: VisualPrint's cumulative curve at least an order of magnitude
below frame upload throughout the run (paper: 51.2 KB vs 523 KB per
query-equivalent).
"""

from __future__ import annotations

import numpy as np

from repro.codecs import PngCodec
from repro.core import UniquenessOracle, VisualPrintClient, VisualPrintConfig
from repro.features import SiftExtractor, SiftParams
from repro.imaging import to_float, to_uint8
from repro.imaging.synth import SceneLibrary
from repro.network import (
    CHANNEL_PRESETS,
    FaultSpec,
    FaultyChannel,
    RetryPolicy,
    simulate_stream,
)
from repro.obs import trace_span
from repro.parallel import get_shared, parallel_map

__all__ = ["run", "main"]


def _extract_frame(frame: np.ndarray):
    """Extract one panning frame's keypoints (pool worker body)."""
    return get_shared().extract(to_float(frame))


def _make_fingerprint_client() -> VisualPrintClient:
    oracle, config = get_shared()
    return VisualPrintClient(oracle, config)


def _fingerprint_frame(item: tuple, client: VisualPrintClient) -> int:
    """Fingerprint one (index, keypoints) pair under a per-frame root span.

    ``fingerprint_keypoints`` alone would emit disjoint "oracle" and
    "serialize" root spans; the explicit "frame" root groups them into
    one trace per frame, mirroring :meth:`VisualPrintClient.process_frame`.
    """
    frame_index, keypoints = item
    with trace_span("frame", registry=client.metrics, frame_index=frame_index):
        return client.fingerprint_keypoints(
            keypoints, frame_index=frame_index
        ).upload_bytes


def run(
    seed: int = 7,
    duration_seconds: float = 70.0,
    capture_fps: float = 10.0,
    # 50 of our ~500-800 keypoints per frame corresponds to the paper's
    # 200 of ~3500 — the fingerprint scales with the keypoint budget.
    fingerprint_size: int = 50,
    image_size: int = 320,
    num_panning_frames: int = 24,
    channel: str = "wifi",
    workers: int = 1,
    faults: FaultSpec | None = None,
    retry: RetryPolicy | None = None,
) -> dict:
    """Returns the two cumulative-upload traces and their totals.

    ``workers`` fans frame extraction, wardrive ingest, and per-frame
    fingerprinting across a process pool; payload sequences are
    bit-identical to ``workers=1``.

    With ``faults``/``retry`` set, each scheme's stream runs through its
    own seeded :class:`FaultyChannel` (same spec, so both schemes face
    the identical fault pattern): lost frames retransmit under the
    policy, burning realtime budget and causing knock-on drops — the
    cumulative curves separate further because a lost 500 KB frame
    wastes far more air time than a lost fingerprint.
    """
    library = SceneLibrary(
        seed=seed, num_scenes=2, num_distractors=2, size=(image_size, image_size)
    )
    base = to_uint8(library.scene(0))
    frames = [np.roll(base, 5 * i, axis=1) for i in range(num_panning_frames)]

    # Whole-frame payloads: lossless (Fig. 3 rules out lossy frames).
    codec = PngCodec()
    frame_payloads = [len(codec.encode(frame)) for frame in frames]

    # VisualPrint payloads: fingerprint the same frames.
    config = VisualPrintConfig(
        descriptor_capacity=100_000, fingerprint_size=fingerprint_size
    )
    oracle = UniquenessOracle(config)
    extractor = SiftExtractor(SiftParams(contrast_threshold=0.008))
    keypoint_sets = parallel_map(
        _extract_frame, frames, workers=workers, shared=extractor
    )
    oracle.insert(
        np.vstack([k.descriptors for k in keypoint_sets]), workers=workers
    )
    fingerprint_payloads = parallel_map(
        _fingerprint_frame,
        list(enumerate(keypoint_sets)),
        workers=workers,
        shared=(oracle, config),
        chunk_setup=_make_fingerprint_client,
    )

    total_frames = int(duration_seconds * capture_fps)
    frame_cycle = [frame_payloads[i % len(frame_payloads)] for i in range(total_frames)]
    fp_cycle = [
        fingerprint_payloads[i % len(fingerprint_payloads)]
        for i in range(total_frames)
    ]
    uplink = CHANNEL_PRESETS[channel]

    def _stream_channel():
        # A fresh wrapper per stream: both schemes replay the same
        # seeded fault sequence from the same initial link state.
        return FaultyChannel(uplink, faults) if faults is not None else uplink

    frame_trace = simulate_stream(
        "frame-upload", frame_cycle, _stream_channel(), capture_fps, retry=retry
    )
    vp_trace = simulate_stream(
        "visualprint", fp_cycle, _stream_channel(), capture_fps, retry=retry
    )

    times = np.arange(0.0, duration_seconds + 1e-9, 5.0)
    return {
        "times": times,
        "frame_cumulative_mb": frame_trace.cumulative_at(times) / 2**20,
        "visualprint_cumulative_mb": vp_trace.cumulative_at(times) / 2**20,
        "frame_total_mb": frame_trace.total_bytes / 2**20,
        "visualprint_total_mb": vp_trace.total_bytes / 2**20,
        "mean_frame_bytes": float(np.mean(frame_payloads)),
        "mean_fingerprint_bytes": float(np.mean(fingerprint_payloads)),
    }


def main(workers: int = 1, **overrides) -> None:
    result = run(workers=workers, **overrides)
    print("Figure 14: cumulative upload (MB) over time")
    print(f"{'t(s)':>5} {'frame-upload':>13} {'visualprint':>12}")
    for t, frame_mb, vp_mb in zip(
        result["times"],
        result["frame_cumulative_mb"],
        result["visualprint_cumulative_mb"],
    ):
        print(f"{t:>5.0f} {frame_mb:>13.2f} {vp_mb:>12.3f}")
    reduction = result["frame_total_mb"] / max(result["visualprint_total_mb"], 1e-9)
    print(
        f"per-query: frame {result['mean_frame_bytes'] / 1024:.1f} KB vs "
        f"fingerprint {result['mean_fingerprint_bytes'] / 1024:.1f} KB; "
        f"total reduction {reduction:.1f}x"
    )


if __name__ == "__main__":
    main()
