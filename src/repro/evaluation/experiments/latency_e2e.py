"""Extension experiment: end-to-end query latency by channel and scheme.

The paper's introduction motivates VisualPrint with "unpredictable
end-to-end network latency": the time from shutter to on-screen answer
is client compute + upload + server compute + response.  This driver
composes our measured client latencies (Fig. 16), payload sizes
(Fig. 14), and the channel model to the full latency distribution the
user actually experiences — per channel, for whole-frame offload versus
VisualPrint.

Shape expectation: on WiFi both schemes are compute-dominated and
comparable; on cellular, frame upload's serialization delay blows up
while VisualPrint stays compute-bound — the paper's argument that
shrinking payloads "fix[es] the network latency issue".
"""

from __future__ import annotations

import numpy as np

from repro.codecs import PngCodec
from repro.core import UniquenessOracle, VisualPrintClient, VisualPrintConfig
from repro.core.fingerprint import degradation_keep_counts
from repro.features import SiftExtractor, SiftParams
from repro.features.serialize import serialized_size
from repro.imaging import to_uint8
from repro.imaging.synth import SceneLibrary
from repro.network import CHANNEL_PRESETS, FaultSpec, FaultyChannel, RetryPolicy
from repro.network.faults import submit_payload
from repro.obs import TraceContext, use_trace_context
from repro.parallel import get_shared, parallel_map
from repro.util.rng import rng_for

__all__ = ["run", "main"]


def _make_frame_worker() -> tuple:
    """Per-chunk setup: library + a private client + a PNG codec."""
    library, oracle, config = get_shared()
    return library, VisualPrintClient(oracle, config), PngCodec()


def _measure_frame(
    frame_index: int, context: tuple
) -> tuple[int, int, int, float, TraceContext | None]:
    """One frame's (png bytes, fp bytes, fp keypoints, compute s, trace ctx)."""
    library, client, codec = context
    image = library.query_view(
        frame_index % library.num_scenes, frame_index % library.views_per_scene
    )
    fingerprint = client.process_frame(image, frame_index)
    # Per-frame stage timings come from the client's trace: the
    # "frame" root span nests one "sift" and one "oracle" child.
    frame_span = client.last_frame_span
    compute = (
        frame_span.child("sift").duration_seconds
        + frame_span.child("oracle").duration_seconds
    )
    return (
        len(codec.encode(to_uint8(image))),
        fingerprint.upload_bytes,
        len(fingerprint),
        compute,
        frame_span.context,
    )


def run(
    seed: int = 7,
    num_frames: int = 10,
    image_size: int = 256,
    fingerprint_size: int = 50,
    server_seconds: float = 0.05,
    workers: int = 1,
    faults: FaultSpec | None = None,
    retry: RetryPolicy | None = None,
) -> dict:
    """Returns per-channel latency samples for both offload schemes.

    ``workers`` fans the frame measurement loop across a process pool
    (payload sizes are bit-identical to serial; compute timings are
    wall-clock and vary run to run either way).  Channel jitter is
    applied in the parent, consuming its rng stream sequentially.

    With ``retry`` set, each uplink leg runs through ``faults`` (a
    fresh seeded :class:`FaultyChannel` per preset) under the retry
    policy — VisualPrint degrades its fingerprint on failures, whereas
    whole-frame offload can only retry the full frame.  The tiny
    response leg is modeled fault-free (an ack retransmits in
    negligible time); abandoned queries are excluded from the latency
    arrays and counted per channel/scheme in the ``faults`` section.
    """
    library = SceneLibrary(
        seed=seed, num_scenes=4, num_distractors=4, size=(image_size, image_size)
    )
    config = VisualPrintConfig(
        descriptor_capacity=100_000, fingerprint_size=fingerprint_size
    )
    oracle = UniquenessOracle(config)
    extractor = SiftExtractor(SiftParams(contrast_threshold=0.008))
    for scene in range(library.num_scenes):
        keypoints = extractor.extract(library.scene(scene))
        if len(keypoints):
            oracle.insert(keypoints.descriptors)

    measurements = parallel_map(
        _measure_frame,
        range(num_frames),
        workers=workers,
        shared=(library, oracle, config),
        chunk_setup=_make_frame_worker,
    )
    frame_bytes = [m[0] for m in measurements]
    fingerprint_bytes = [m[1] for m in measurements]
    fingerprint_counts = [m[2] for m in measurements]
    compute_seconds = [m[3] for m in measurements]
    trace_contexts = [m[4] for m in measurements]

    rng = rng_for(seed, "latency-e2e")
    latencies: dict[str, dict[str, np.ndarray]] = {}
    fault_counts: dict[str, dict[str, int]] = {}
    for channel_name, channel in CHANNEL_PRESETS.items():
        channel_model = (
            FaultyChannel(channel, faults) if faults is not None else channel
        )
        frame_lat = []
        vp_lat = []
        abandoned = {"frame_upload": 0, "visualprint": 0}
        for compute, frame_size, fp_size, fp_count, trace_context in zip(
            compute_seconds,
            frame_bytes,
            fingerprint_bytes,
            fingerprint_counts,
            trace_contexts,
        ):
            # Both schemes' simulated transfers join the frame's trace,
            # so each query reads as one trace_id across every channel.
            with use_trace_context(trace_context):
                if retry is None:
                    # Whole-frame offload skips local feature compute.
                    frame_lat.append(
                        channel_model.round_trip_seconds(
                            frame_size, server_seconds=server_seconds, rng=rng
                        )
                    )
                    vp_lat.append(
                        compute
                        + channel_model.round_trip_seconds(
                            fp_size, server_seconds=server_seconds, rng=rng
                        )
                    )
                    continue
                reliable = getattr(channel_model, "reliable", channel_model)
                up = submit_payload(channel_model, [frame_size], retry, rng)
                if up.delivered:
                    frame_lat.append(
                        up.latency_seconds
                        + server_seconds
                        + reliable.response_seconds(256, rng)
                    )
                else:
                    abandoned["frame_upload"] += 1
                ladder = [
                    serialized_size(count)
                    for count in degradation_keep_counts(fp_count)
                ]
                up = submit_payload(channel_model, ladder, retry, rng)
                if up.delivered:
                    vp_lat.append(
                        compute
                        + up.latency_seconds
                        + server_seconds
                        + reliable.response_seconds(256, rng)
                    )
                else:
                    abandoned["visualprint"] += 1
        latencies[channel_name] = {
            "frame_upload": np.array(frame_lat),
            "visualprint": np.array(vp_lat),
        }
        fault_counts[channel_name] = abandoned
    result = {
        "latencies": latencies,
        "mean_frame_bytes": float(np.mean(frame_bytes)),
        "mean_fingerprint_bytes": float(np.mean(fingerprint_bytes)),
        "mean_compute_seconds": float(np.mean(compute_seconds)),
    }
    if retry is not None:
        result["abandoned"] = fault_counts
    return result


def main(workers: int = 1, **overrides) -> None:
    result = run(workers=workers, **overrides)
    print("End-to-end query latency by channel (median seconds)")
    print(
        f"payloads: frame {result['mean_frame_bytes'] / 1024:.0f} KB, "
        f"fingerprint {result['mean_fingerprint_bytes'] / 1024:.1f} KB; "
        f"client compute {result['mean_compute_seconds'] * 1e3:.0f} ms"
    )
    print(f"{'channel':<8} {'frame-upload':>13} {'visualprint':>12}")
    for channel, schemes in result["latencies"].items():
        print(
            f"{channel:<8} {np.median(schemes['frame_upload']):>12.3f}s "
            f"{np.median(schemes['visualprint']):>11.3f}s"
        )


if __name__ == "__main__":
    main()
