"""Client hot-path trajectory: batched SIFT, packed oracle, zero-copy wire.

Every before/after pair here times the *reference implementation* (the
test-only twins in tests/sift_reference.py and tests/oracle_reference.py)
against the batched hot path on the same seeded frame, with the parity
contract asserted in the same breath (geometry bit-identical,
descriptors within ±1 integer step — see tests/test_sift_parity.py for
the exhaustive version).

Rows land in BENCH_sift.json via ``conftest.pytest_sessionfinish``; the
single-core extract row is mirrored into BENCH_parallel.json as the
SIFT axis of the parallel-layer trajectory.

Honest numbers, not target numbers: the Gaussian pyramid is kept
bit-identical to ``scipy.ndimage.gaussian_filter`` (the parity anchor
for every downstream extremum), which puts a ~9 ms floor under the fast
path on a 256x256 frame and caps the extract speedup around 2.5-2.7x
single-core.  The end-to-end frame also banks the packed-counter oracle
(~3x) and the zero-copy serializer.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.client import VisualPrintClient
from repro.core.config import VisualPrintConfig
from repro.core.oracle import UniquenessOracle
from repro.features.serialize import serialize_keypoints_into
from repro.features.sift import SiftExtractor, SiftParams
from repro.imaging import scene_image
from repro.imaging.synth import BuildingMotifs
from repro.lsh.buckets import QuantizedBuckets
from repro.util.rng import rng_for
from tests.oracle_reference import indices_reference
from tests.sift_reference import extract_reference, serialize_keypoints_reference

_FRAME_SIZE = (256, 256)


def _bench_frame() -> np.ndarray:
    """A dense seeded 256x256 AR frame (~600 keypoints at ct=0.01)."""
    rng = rng_for(7, "bench-sift-frame")
    motifs = BuildingMotifs.create(rng)
    return scene_image(motifs, rng, size=_FRAME_SIZE)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _counts_reference(
    oracle: UniquenessOracle,
    descriptors: np.ndarray,
    unpacked: np.ndarray | None = None,
) -> np.ndarray:
    """The seed oracle inner loop: per-seed murmur + unpacked counter gather.

    ``unpacked`` is the seed's resident uint16 counter array (it stored
    counters unpacked); pass it precomputed so the timed region covers
    only the per-query work the seed actually did.
    """
    quantized = QuantizedBuckets(
        oracle.projections.quantize(np.asarray(descriptors, dtype=np.float32))
    )
    if unpacked is None:
        unpacked = oracle.counting.counters
    estimate = np.full(quantized.num_items, np.iinfo(np.int64).max, dtype=np.int64)
    for table, family in enumerate(oracle._families):
        indices = indices_reference(family, quantized.table_vectors(table))
        np.minimum(
            estimate, unpacked[indices].min(axis=1).astype(np.int64), out=estimate
        )
    return estimate


def test_extract_batched_vs_reference(sift_trajectory, parallel_trajectory):
    frame = _bench_frame()
    extractor = SiftExtractor(SiftParams(contrast_threshold=0.01))

    fast = extractor.extract(frame)
    ref = extract_reference(extractor, frame)
    assert np.array_equal(fast.positions, ref.positions)
    assert np.array_equal(fast.scales, ref.scales)
    assert np.array_equal(fast.orientations, ref.orientations)
    assert np.array_equal(fast.responses, ref.responses)
    descriptor_diff = float(np.abs(fast.descriptors - ref.descriptors).max())
    assert descriptor_diff <= 1.0

    ref_seconds = _best_of(lambda: extract_reference(extractor, frame))
    fast_seconds = _best_of(lambda: extractor.extract(frame))

    row = {
        "frame": f"{_FRAME_SIZE[0]}x{_FRAME_SIZE[1]}",
        "keypoints": len(fast),
        "reference_ms": round(ref_seconds * 1e3, 2),
        "batched_ms": round(fast_seconds * 1e3, 2),
        "speedup": round(ref_seconds / max(fast_seconds, 1e-9), 2),
        "geometry_bit_identical": True,
        "descriptor_max_abs_diff": descriptor_diff,
    }
    sift_trajectory["extract_256x256"] = row
    parallel_trajectory["sift_extract"] = row
    print(f"\nextract: ref {row['reference_ms']} ms, batched "
          f"{row['batched_ms']} ms ({row['speedup']}x, {row['keypoints']} kp)")


def test_oracle_counts_packed_vs_reference(sift_trajectory):
    config = VisualPrintConfig()
    oracle = UniquenessOracle(config)
    rng = rng_for(11, "bench-sift-db")
    oracle.insert(rng.normal(127, 40, size=(4000, 128)).astype(np.float32))
    queries = rng.normal(127, 40, size=(600, 128)).astype(np.float32)

    unpacked = oracle.counting.counters
    np.testing.assert_array_equal(
        oracle.counts(queries), _counts_reference(oracle, queries, unpacked)
    )
    ref_seconds = _best_of(lambda: _counts_reference(oracle, queries, unpacked))
    fast_seconds = _best_of(lambda: oracle.counts(queries))
    sift_trajectory["oracle_counts_600"] = {
        "descriptors": queries.shape[0],
        "reference_ms": round(ref_seconds * 1e3, 2),
        "packed_ms": round(fast_seconds * 1e3, 2),
        "speedup": round(ref_seconds / max(fast_seconds, 1e-9), 2),
        "bit_identical": True,
    }


def test_serialize_zero_copy_vs_reference(sift_trajectory):
    frame = _bench_frame()
    extractor = SiftExtractor(SiftParams(contrast_threshold=0.01))
    keypoints = extractor.extract(frame).top_by_response(200)

    buffer = bytearray()
    size = serialize_keypoints_into(keypoints, buffer)
    assert bytes(buffer[:size]) == serialize_keypoints_reference(keypoints)

    ref_seconds = _best_of(
        lambda: serialize_keypoints_reference(keypoints), repeats=20
    )
    fast_seconds = _best_of(
        lambda: serialize_keypoints_into(keypoints, buffer), repeats=20
    )
    sift_trajectory["serialize_200"] = {
        "keypoints": len(keypoints),
        "payload_bytes": size,
        "reference_us": round(ref_seconds * 1e6, 1),
        "zero_copy_us": round(fast_seconds * 1e6, 1),
        "speedup": round(ref_seconds / max(fast_seconds, 1e-9), 2),
        "byte_identical": True,
    }


def test_process_frame_end_to_end(sift_trajectory):
    """Shutter-to-payload: seed-equivalent pipeline vs the batched client."""
    frame = _bench_frame()
    config = VisualPrintConfig()
    oracle = UniquenessOracle(config)
    rng = rng_for(12, "bench-sift-e2e-db")
    oracle.insert(rng.normal(127, 40, size=(4000, 128)).astype(np.float32))
    client = VisualPrintClient(oracle)
    extractor = SiftExtractor(SiftParams(contrast_threshold=0.01))
    unpacked = oracle.counting.counters

    def reference_pipeline():
        keypoints = extract_reference(extractor, frame)
        counts = _counts_reference(oracle, keypoints.descriptors, unpacked)
        order = oracle.rank_by_uniqueness(keypoints.descriptors, counts=counts)
        kept = keypoints.select(order[: config.fingerprint_size])
        return serialize_keypoints_reference(kept)

    reference_pipeline()  # warm caches
    client.process_frame(frame)
    ref_seconds = _best_of(reference_pipeline)
    fast_seconds = _best_of(lambda: client.process_frame(frame))

    stages = {
        stage: round(client.latency_quantiles(stage, (0.5,))[0.5] * 1e3, 3)
        for stage in ("sift", "oracle", "serialize")
    }
    sift_trajectory["process_frame_256x256"] = {
        "frame": f"{_FRAME_SIZE[0]}x{_FRAME_SIZE[1]}",
        "reference_ms": round(ref_seconds * 1e3, 2),
        "batched_ms": round(fast_seconds * 1e3, 2),
        "speedup": round(ref_seconds / max(fast_seconds, 1e-9), 2),
        "fast_stage_median_ms": stages,
    }
    print(f"\nprocess_frame: ref {ref_seconds*1e3:.1f} ms, batched "
          f"{fast_seconds*1e3:.1f} ms "
          f"({ref_seconds/max(fast_seconds,1e-9):.2f}x), stages {stages}")
