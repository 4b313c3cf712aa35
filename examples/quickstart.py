"""Quickstart: the VisualPrint idea in sixty lines.

Builds a tiny image database, curates a uniqueness oracle from it, then
shows how the oracle lets a client ship an order of magnitude less data
than a whole frame while still identifying the scene.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import SceneLibrary, SiftExtractor, SiftParams, UniquenessOracle
from repro import VisualPrintClient, VisualPrintConfig
from repro.codecs import PngCodec
from repro.imaging import to_uint8
from repro.matching import BruteForceMatcher, SceneDatabase, vote_scene
from repro.obs import TraceCollector, use_collector, write_chrome_trace


def main() -> None:
    # 1. A small "building": 5 unique scenes + 10 repetitive distractors.
    library = SceneLibrary(seed=7, num_scenes=5, num_distractors=10, size=(256, 256))
    extractor = SiftExtractor(SiftParams(contrast_threshold=0.008))
    keypoint_sets, labels = [], []
    for label, image in library.all_database_images():
        keypoint_sets.append(extractor.extract(image))
        labels.append(label)
    database = SceneDatabase.from_keypoint_sets(keypoint_sets, labels)
    print(f"database: {database.size} descriptors from {len(labels)} images")

    # 2. Curate the uniqueness oracle (server side) and hand it to a client.
    config = VisualPrintConfig(
        descriptor_capacity=max(database.size, 1024), fingerprint_size=60
    )
    oracle = UniquenessOracle(config)
    oracle.insert(database.descriptors)
    client = VisualPrintClient(oracle, config)
    download_kb = oracle.download_bytes() / 1024
    print(f"oracle download: {download_kb:.0f} KB (compressed)")

    # 3. The client sees a new photo of scene 2 from a different angle.
    #    A TraceCollector around the query captures the "frame" span
    #    tree (sift / oracle / serialize) for step 6.
    query_image = library.query_view(2, view_index=1)
    collector = TraceCollector()
    with use_collector(collector):
        fingerprint = client.process_frame(query_image)
    frame_bytes = len(PngCodec().encode(to_uint8(query_image)))
    extracted = int(client.metrics.counter("client_keypoints_extracted_total").value)
    print(f"query: {extracted} keypoints extracted, {len(fingerprint)} uploaded")
    print(
        f"upload: fingerprint {fingerprint.upload_bytes / 1024:.1f} KB vs "
        f"lossless frame {frame_bytes / 1024:.1f} KB "
        f"({frame_bytes / fingerprint.upload_bytes:.1f}x reduction)"
    )

    # 4. Server-side: match the fingerprint and vote for the scene.
    matcher = BruteForceMatcher(database.descriptors)
    _, matched_rows = matcher.match(fingerprint.keypoints.descriptors)
    outcome = vote_scene(database.labels[matched_rows], min_votes=5)
    print(f"predicted scene: {outcome.predicted_scene} (truth: 2)")
    print(f"votes: {outcome.votes}")

    # 5. Everything above was measured as it ran: dump the client's
    #    observability snapshot (repro.obs) — per-stage latency
    #    sketches fed by the spans, keypoint/byte counters.
    print("\nmetrics snapshot (client registry):")
    snapshot = client.metrics.to_dict()
    for name, entry in snapshot["counters"].items():
        print(f"  {name}: {entry['value']:.0f}")
    for name, entry in snapshot["sketches"].items():
        print(
            f"  {name}: n={entry['count']} p50={entry['p50']:.4g} "
            f"p99={entry['p99']:.4g}"
        )

    # 6. The same query as a trace: per-stage latency quantiles from the
    #    span sketches, plus a Chrome trace-event file you can load in
    #    chrome://tracing or https://ui.perfetto.dev.
    print("\nper-stage latency (span sketches):")
    for stage in ("sift", "oracle", "serialize"):
        stage_q = client.latency_quantiles(stage, (0.5, 0.9))
        print(
            f"  {stage}: p50={stage_q[0.5] * 1e3:.1f} ms "
            f"p90={stage_q[0.9] * 1e3:.1f} ms"
        )
    write_chrome_trace(collector.roots, "trace.json")
    trace = collector.traces()[0]
    print(
        f"trace {trace.trace_id}: {trace.num_spans} spans, "
        f"{trace.duration_seconds * 1e3:.1f} ms -> trace.json "
        "(open in chrome://tracing or ui.perfetto.dev)"
    )


if __name__ == "__main__":
    main()
