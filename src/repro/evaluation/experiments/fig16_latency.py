"""Figure 16: client compute latency CDF — SIFT vs oracle lookups.

The paper's medians on a Galaxy S6: SIFT extraction 3300 ms, Bloom
filter lookups + sorting 217 ms — extraction dominates by ~15x.  Our
absolute numbers come from this host; the hardware-independent shape is
the ratio (SIFT >= 5x oracle ranking per frame).

This experiment takes its per-stage samples from each frame's ``sift`` /
``oracle`` child spans (returned with the payload size, one sample per
frame) and additionally pushes every fingerprint through an uplink
channel model, so a ``--metrics-json`` run captures the full
shutter-to-server accounting: the ``span_*_seconds`` stage sketches,
upload-byte counters, and ``network_transfer_seconds``.

A ``--trace-out`` run additionally yields one correlated trace per
frame: the "frame" span tree produced in a pool worker plus the
parent-side ``network.transfer`` span, linked by the frame's trace
context (returned alongside each payload size).

With ``faults``/``retry`` set (the ``--channel-loss`` / ``--retry-*``
CLI flags), transfers run through a seeded :class:`FaultyChannel` under
the retry policy: failed attempts back off and step down the
fingerprint degradation ladder, and the result gains a ``faults``
section accounting for every query (delivered + abandoned = frames; no
silent drops).  A null fault spec is bit-identical to the bare channel.
"""

from __future__ import annotations

import numpy as np

from repro.core import UniquenessOracle, VisualPrintClient, VisualPrintConfig
from repro.core.fingerprint import degradation_keep_counts
from repro.features import SiftExtractor, SiftParams
from repro.features.serialize import serialized_size
from repro.imaging.synth import SceneLibrary
from repro.network import CHANNEL_PRESETS, FaultSpec, FaultyChannel, RetryPolicy
from repro.network.faults import submit_payload
from repro.obs import resolve_registry, use_trace_context
from repro.parallel import get_shared, parallel_map
from repro.util.rng import rng_for

__all__ = ["run", "main"]


def _make_client() -> tuple:
    """Per-chunk setup: a client whose metrics merge back to the parent."""
    library, oracle, config = get_shared()
    return library, VisualPrintClient(oracle, config)


def _process_frame(frame: int, context: tuple) -> tuple:
    """Fingerprint one frame.

    Returns ``(payload size, keypoints, trace ctx, sift s, oracle s)``.
    The trace context travels back to the parent so the channel
    transfer — applied sequentially after the pool for rng determinism —
    can join the frame's trace (one ``trace_id`` per query end to end).
    The keypoint count lets the parent build the degradation ladder
    without shipping the fingerprint itself across the pool.  The two
    stage durations are the frame span's ``sift`` and ``oracle``
    children (``None`` for a frame without keypoints: no oracle stage).
    """
    library, client = context
    scene = frame % library.num_scenes
    view = frame % library.views_per_scene
    fingerprint = client.process_frame(library.query_view(scene, view), frame)
    root = client.last_frame_span
    oracle = root.child("oracle")
    return (
        fingerprint.upload_bytes,
        len(fingerprint),
        root.context,
        root.child("sift").duration_seconds,
        oracle.duration_seconds if oracle is not None else None,
    )


class _UplinkEngine:
    """The uplink transfer leg as a serving-layer venue engine.

    One payload is a ``_process_frame`` outcome; serving it prices the
    fingerprint on the channel (or pushes it down the retry/degradation
    path) inside the frame's trace context.  The engine consumes the
    shared jitter rng sequentially, so results are identical whether
    the legs run in a plain loop or in admission order through an
    inline :class:`repro.serving.ServingFrontend`.
    """

    def __init__(self, channel_model, rng, retry=None, registry=None) -> None:
        self.channel_model = channel_model
        self.rng = rng
        self.retry = retry
        self.registry = registry

    def serve(self, payload):
        size, num_keypoints, trace_context, *_ = payload
        with use_trace_context(trace_context):
            if self.retry is None:
                return self.channel_model.transfer_seconds(size, self.rng)
            ladder = [
                serialized_size(count)
                for count in degradation_keep_counts(num_keypoints)
            ]
            return submit_payload(
                self.channel_model, ladder, self.retry, self.rng,
                registry=self.registry,
            )


def run(
    seed: int = 7,
    num_frames: int = 20,
    image_size: int = 320,
    fingerprint_size: int = 200,
    channel: str = "wifi",
    workers: int = 1,
    faults: FaultSpec | None = None,
    retry: RetryPolicy | None = None,
    serving: int | None = None,
) -> dict:
    """Returns per-frame SIFT, oracle, and transfer latency samples.

    ``workers`` fans the frame loop across a process pool; each worker
    constructs its own :class:`VisualPrintClient` (in ``chunk_setup``)
    so the per-frame latency sketches merge back into this run's
    registry, and the per-frame samples come back in frame order.
    Transfer jitter — and every fault/retry decision — is applied in
    the parent, consuming its rng streams sequentially, so the samples
    match a serial run exactly.

    ``serving`` routes the transfer legs through an inline
    :class:`repro.serving.ServingFrontend` venue (``fig16/uplink``)
    instead of the plain loop; admission order is submission order, so
    the rng draw sequence — and every sample — is unchanged.
    """
    library = SceneLibrary(
        seed=seed,
        num_scenes=max(2, num_frames // 3),
        num_distractors=max(2, num_frames // 3),
        size=(image_size, image_size),
    )
    config = VisualPrintConfig(
        descriptor_capacity=200_000, fingerprint_size=fingerprint_size
    )
    oracle = UniquenessOracle(config)

    # Seed the oracle with database content using a standalone extractor
    # so the warm-up frames never pollute the client's latency metrics.
    seeder = SiftExtractor(SiftParams(contrast_threshold=0.01))
    for scene in range(min(6, library.num_scenes)):
        keypoints = seeder.extract(library.scene(scene))
        if len(keypoints):
            oracle.insert(keypoints.descriptors)

    registry = resolve_registry(None)
    outcomes = parallel_map(
        _process_frame,
        range(num_frames),
        workers=workers,
        shared=(library, oracle, config),
        chunk_setup=_make_client,
        registry=registry,
    )
    upload_bytes = [size for size, *_ in outcomes]

    uplink = CHANNEL_PRESETS[channel]
    channel_model = (
        FaultyChannel(uplink, faults) if faults is not None else uplink
    )
    rng = rng_for(seed, "fig16/jitter")
    uplink_engine = _UplinkEngine(channel_model, rng, retry=retry, registry=registry)
    if serving is not None:
        from repro.serving import ServingFrontend

        # Each simulated transfer joins its originating frame's trace;
        # the legs run in admission order, preserving the rng sequence.
        with ServingFrontend(num_shards=serving, seed=seed) as frontend:
            frontend.register_venue("fig16/uplink", uplink_engine)
            legs = frontend.map("fig16/uplink", outcomes)
    else:
        legs = [uplink_engine.serve(outcome) for outcome in outcomes]

    transfer = []
    result_extra: dict = {}
    if retry is None:
        transfer = [float(leg) for leg in legs]
    else:
        delivered = degraded = abandoned = retries = 0
        for outcome in legs:
            retries += outcome.retries
            if outcome.delivered:
                delivered += 1
                degraded += outcome.status == "degraded"
                transfer.append(outcome.latency_seconds)
            else:
                abandoned += 1
        result_extra["faults"] = {
            "delivered": delivered,
            "degraded": degraded,
            "abandoned": abandoned,
            "retries": retries,
        }

    sift = np.array([sift_s for *_, sift_s, _ in outcomes])
    oracle_t = np.array([oracle_s for *_, oracle_s in outcomes if oracle_s is not None])
    transfer_arr = np.array(transfer) if transfer else np.zeros(0)
    return {
        "sift_seconds": sift,
        "oracle_seconds": oracle_t,
        "transfer_seconds": transfer_arr,
        "upload_bytes": np.array(upload_bytes),
        "median_sift": float(np.median(sift)),
        "median_oracle": float(np.median(oracle_t)),
        "median_transfer": float(np.median(transfer_arr)) if transfer else 0.0,
        "ratio": float(np.median(sift) / max(np.median(oracle_t), 1e-9)),
        **result_extra,
    }


def main(workers: int = 1, **overrides) -> None:
    result = run(workers=workers, **overrides)
    print("Figure 16: client compute latency CDF (this host)")
    for q in (10, 50, 90):
        print(
            f"p{q:<3} SIFT {np.percentile(result['sift_seconds'], q) * 1e3:>8.1f} ms   "
            f"oracle {np.percentile(result['oracle_seconds'], q) * 1e3:>7.1f} ms   "
            f"transfer {np.percentile(result['transfer_seconds'], q) * 1e3:>7.1f} ms"
        )
    print(
        f"median ratio SIFT/oracle: {result['ratio']:.1f}x "
        "(paper: 3300 ms / 217 ms ~ 15x)"
    )
    if "faults" in result:
        f = result["faults"]
        print(
            f"faults: delivered {f['delivered']} (degraded {f['degraded']}), "
            f"abandoned {f['abandoned']}, retries {f['retries']}"
        )


if __name__ == "__main__":
    main()
