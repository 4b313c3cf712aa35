"""Figure 13: precision/recall CDFs for the five matching regimes.

Expected shape: Random worst on both axes; VisualPrint-200 comparable to
LSH; VisualPrint-500 at or slightly above LSH precision (the oracle
discards distracting non-unique keypoints); BruteForce best recall.

The default workload is a scaled version of the paper's (its image
resolution and keypoint budgets are smaller by ~4x; fingerprint sizes
scale with the keypoint budget — see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.core.fingerprint import degradation_ladder
from repro.evaluation.datasets import build_workload
from repro.evaluation.retrieval import (
    build_oracle,
    build_scene_database,
    evaluate_scheme_cdfs,
    run_bruteforce,
    run_lsh,
    run_random,
    run_visualprint,
)
from repro.features.serialize import serialized_size
from repro.matching import LshMatcher
from repro.network import CHANNEL_PRESETS, FaultSpec, FaultyChannel, RetryPolicy
from repro.network.faults import submit_payload
from repro.util.rng import rng_for

__all__ = ["run", "main"]


def _replay_uploads(
    results, seed: int, channel: str, faults: FaultSpec | None, retry: RetryPolicy
) -> dict:
    """Re-run every scheme's query uploads through a (faulty) channel.

    The retrieval stage computes each query's uploaded keypoint count;
    this prices those payloads on the wire and submits them under the
    retry policy, sequentially in the parent — so the fault pattern is
    deterministic for a fixed seed and independent of ``workers``.
    VisualPrint schemes degrade down their fingerprint ladder; the
    fixed-budget baselines retry the full payload.
    """
    channel_model = FaultyChannel(CHANNEL_PRESETS[channel], faults)
    rng = rng_for(seed, "fig13/uplink")
    replay: dict[str, dict[str, int]] = {}
    for result in results:
        degradable = "visualprint" in result.scheme.lower()
        counts = {"delivered": 0, "degraded": 0, "abandoned": 0, "retries": 0}
        for keypoints in result.uploaded_keypoints:
            ladder = (
                degradation_ladder(int(keypoints))
                if degradable
                else [serialized_size(int(keypoints))]
            )
            outcome = submit_payload(channel_model, ladder, retry, rng)
            counts["retries"] += outcome.retries
            if outcome.delivered:
                counts["delivered"] += 1
                counts["degraded"] += outcome.status == "degraded"
            else:
                counts["abandoned"] += 1
        replay[result.scheme] = counts
    return replay


def run(
    seed: int = 7,
    num_scenes: int = 50,
    num_distractors: int = 200,
    views_per_scene: int = 5,
    image_size: int = 320,
    small_count: int = 100,
    large_count: int = 250,
    random_count: int = 250,
    min_votes: int = 5,
    include_bruteforce: bool = True,
    cache_dir: str | None = ".cache",
    workers: int = 1,
    channel: str = "lte",
    faults: FaultSpec | None = None,
    retry: RetryPolicy | None = None,
    serving: int | None = None,
) -> dict:
    """Returns per-scheme precision/recall value arrays (CDF inputs).

    ``workers`` fans out the three serial hot paths — workload
    extraction, oracle wardrive ingest, and each scheme's query loop —
    across a process pool; results are bit-identical to ``workers=1``.

    ``serving`` routes every scheme's query loop through a
    :class:`repro.serving.ServingFrontend` with that many shards (one
    venue per scheme, inline workers).  Queries execute in admission
    order in this process, so results — predictions, spans, metrics —
    are bit-identical to the direct path regardless of the shard count;
    what changes is the request path (admission, routing, per-shard
    accounting), which is exactly what the CI serving smoke diffs.

    With ``retry`` set (the ``--channel-loss`` CLI path), each scheme's
    query uploads additionally replay through ``channel`` under
    ``faults`` and the retry policy, adding an ``uplink`` section to the
    result — the CI lossy smoke gates on its deterministic counts.
    """
    workload = build_workload(
        seed=seed,
        num_scenes=num_scenes,
        num_distractors=num_distractors,
        views_per_scene=views_per_scene,
        image_size=image_size,
        cache_dir=cache_dir,
        workers=workers,
    )
    database = build_scene_database(workload)
    oracle = build_oracle(workload, workers=workers)
    matcher = LshMatcher(database.descriptors)

    frontend = None
    if serving is not None:
        from repro.serving import ServingFrontend

        frontend = ServingFrontend(num_shards=serving, seed=seed)

    results = [
        run_random(
            workload,
            database,
            matcher,
            count=random_count,
            min_votes=min_votes,
            workers=workers,
            frontend=frontend,
        ),
        run_visualprint(
            workload,
            database,
            matcher,
            oracle,
            count=small_count,
            min_votes=min_votes,
            workers=workers,
            frontend=frontend,
        ),
        run_visualprint(
            workload,
            database,
            matcher,
            oracle,
            count=large_count,
            min_votes=min_votes,
            workers=workers,
            frontend=frontend,
        ),
        run_lsh(
            workload,
            database,
            matcher,
            min_votes=min_votes,
            workers=workers,
            frontend=frontend,
        ),
    ]
    if include_bruteforce:
        results.append(
            run_bruteforce(
                workload,
                database,
                min_votes=min_votes,
                workers=workers,
                frontend=frontend,
            )
        )
    if frontend is not None:
        frontend.close()
    cdfs = evaluate_scheme_cdfs(results, database)
    out = {
        "cdfs": cdfs,
        "mean_query_keypoints": workload.mean_query_keypoints(),
        "num_database_descriptors": workload.num_database_descriptors,
        "uploaded_keypoints": {
            r.scheme: float(r.uploaded_keypoints.mean()) for r in results
        },
    }
    if retry is not None:
        out["uplink"] = _replay_uploads(results, seed, channel, faults, retry)
    return out


def main(workers: int = 1, **overrides) -> None:
    result = run(workers=workers, **overrides)
    print("Figure 13: per-scene precision/recall by scheme")
    print(
        f"(database: {result['num_database_descriptors']} descriptors, "
        f"mean query keypoints {result['mean_query_keypoints']:.0f})"
    )
    print(f"{'scheme':<18} {'P p25':>6} {'P med':>6} {'P p75':>6} "
          f"{'R p25':>6} {'R med':>6} {'R p75':>6} {'upload':>7}")
    for scheme, pr in result["cdfs"].items():
        p, r = pr["precision"], pr["recall"]
        upload = result["uploaded_keypoints"][scheme]
        print(
            f"{scheme:<18} {np.percentile(p, 25):>6.2f} {np.median(p):>6.2f} "
            f"{np.percentile(p, 75):>6.2f} {np.percentile(r, 25):>6.2f} "
            f"{np.median(r):>6.2f} {np.percentile(r, 75):>6.2f} {upload:>7.0f}"
        )


if __name__ == "__main__":
    main()
