"""Adaptive vs. reactive offload across loss regimes (fig13/fig14 style).

The reactive client pays for a bad uplink *after* the fact: bytes are
burnt on full-size attempts that the channel was always going to drop,
and the degradation ladder only steps down once the damage is done.
The adaptive policy (:mod:`repro.network.linkstate`) predicts link
quality from observed attempt history and shapes each transmission
before sending.

This experiment prices both policies on identical seeded channels in
three loss regimes:

* ``stationary`` — flat 30% good-state loss,
* ``bursty`` — Gilbert–Elliott outages over a 25% lossy link,
* ``ramp`` — a mobility-driven loss ramp (5% → 50% across four channel
  segments; the adaptive arm's estimator persists across the handoffs).

Headline series per regime and arm: wasted transfer bytes (fully
transmitted then lost), delivery rate and mean delivered keypoints (the
accuracy proxies — the paper's fig13 shows small fingerprints localize
almost as well, so delivering *something small* beats abandoning),
latency quantiles, and attempt counts.  Everything is a deterministic
function of ``seed``: reruns are bit-identical, which the CI
``adaptive-smoke`` job locks.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.core.fingerprint import degradation_keep_counts, degradation_ladder
from repro.network import CHANNEL_PRESETS, FaultSpec, FaultyChannel, RetryPolicy
from repro.network.faults import next_backpressure_level, submit_payload
from repro.network.linkstate import AdaptiveConfig, AdaptiveOffloadPolicy
from repro.util.rng import derive_seed, rng_for

__all__ = ["run", "main", "REGIMES"]

#: Regime name → fault-spec fields for each sequential channel segment.
#: Loss components matter: outages fail fast (one RTT, zero bytes), so
#: wasted *bytes* accrue on lossy attempts — the quantity the adaptive
#: policy's pre-degrading is meant to shrink.
REGIMES: dict[str, tuple[dict[str, float], ...]] = {
    "stationary": ({"loss": 0.30},),
    "bursty": ({"loss": 0.25, "outage_enter": 0.06, "outage_exit": 0.3},),
    "ramp": (
        {"loss": 0.05},
        {"loss": 0.20},
        {"loss": 0.35},
        {"loss": 0.50},
    ),
}


def _run_arm(
    regime: str,
    segments: Sequence[dict[str, float]],
    *,
    adaptive: bool,
    queries: int,
    seed: int,
    keep_counts: Sequence[int],
    ladder: list[int],
    retry: RetryPolicy,
    inter_query_seconds: float,
    adaptive_config: AdaptiveConfig | None,
) -> dict[str, Any]:
    """Price ``queries`` fingerprint uploads under one regime and policy.

    Both arms face channels built from the *same* per-segment seeds and
    run the client's AIAD backpressure; the adaptive arm additionally
    consults the policy before each query (entry rung, retry budget,
    backoff scaling) with its estimator persisting across segment
    handoffs.
    """
    arm = "adaptive" if adaptive else "reactive"
    rng = rng_for(seed, f"adaptive_offload/{regime}/{arm}")
    policy = AdaptiveOffloadPolicy(adaptive_config) if adaptive else None
    preset = CHANNEL_PRESETS["lte"]
    per_segment = max(1, queries // len(segments))
    backpressure = 0
    latencies: list[float] = []
    delivered = degraded = abandoned = 0
    delivered_keypoints = 0
    delivered_bytes = 0
    wasted_bytes = 0
    wasted_seconds = 0.0
    attempts = 0
    for index, fields in enumerate(segments):
        spec = FaultSpec(
            **fields,
            seed=derive_seed(seed, f"adaptive_offload/{regime}/segment{index}"),
        )
        channel = FaultyChannel(
            dataclasses.replace(preset, name=f"{regime}-{arm}"), spec
        )
        if policy is not None:
            # Replace semantics: the estimator (and its learned link
            # history) survives the mobility handoff to the new segment.
            policy.register_path(regime, channel)
        for _ in range(per_segment):
            if policy is not None:
                policy.advance(inter_query_seconds)
            outcome = submit_payload(
                channel,
                ladder,
                retry,
                rng,
                start_step=backpressure,
                adaptive=policy,
            )
            backpressure = next_backpressure_level(
                backpressure, outcome, len(ladder)
            )
            latencies.append(outcome.latency_seconds)
            attempts += outcome.attempts
            wasted_bytes += outcome.wasted_bytes
            wasted_seconds += outcome.wasted_seconds
            if outcome.delivered:
                delivered += 1
                degraded += outcome.status == "degraded"
                delivered_keypoints += keep_counts[outcome.ladder_step]
                delivered_bytes += outcome.payload_bytes
            else:
                abandoned += 1
    total = len(latencies)
    series = np.asarray(latencies)
    result: dict[str, Any] = {
        "queries": total,
        "delivered": delivered,
        "degraded": degraded,
        "abandoned": abandoned,
        "delivery_rate": delivered / total,
        "mean_delivered_keypoints": (
            delivered_keypoints / delivered if delivered else 0.0
        ),
        "delivered_bytes": delivered_bytes,
        "wasted_bytes": wasted_bytes,
        "total_bytes": delivered_bytes + wasted_bytes,
        "wasted_seconds": wasted_seconds,
        "attempts": attempts,
        "latency_seconds": {
            "p50": float(np.percentile(series, 50)),
            "p99": float(np.percentile(series, 99)),
            "mean": float(series.mean()),
        },
    }
    if policy is not None:
        result["estimator"] = policy.snapshot()["estimators"][regime]
    return result


def run(
    seed: int = 7,
    queries: int = 600,
    fingerprint_size: int = 200,
    inter_query_seconds: float = 0.5,
    retry: RetryPolicy | None = None,
    adaptive_config: AdaptiveConfig | None = None,
    regimes: Sequence[str] | None = None,
) -> dict:
    """Adaptive vs. reactive bytes/accuracy per loss regime.

    Returns per-regime reactive and adaptive series plus the
    ``wasted_bytes_reduction`` headline (fraction of the reactive arm's
    wasted bytes the adaptive arm avoids) and ``regimes_improved`` (the
    acceptance bar: adaptive must strictly reduce wasted bytes in at
    least two of the three regimes with no delivery-rate regression).
    Deterministic in ``seed`` — rerunning yields a bit-identical report.
    """
    retry = retry or RetryPolicy()
    keep_counts = degradation_keep_counts(fingerprint_size)
    ladder = degradation_ladder(fingerprint_size)
    names = list(regimes) if regimes is not None else list(REGIMES)
    out_regimes: dict[str, Any] = {}
    improved = 0
    accuracy_held = 0
    for name in names:
        segments = REGIMES[name]
        arms = {}
        for adaptive in (False, True):
            arms["adaptive" if adaptive else "reactive"] = _run_arm(
                name,
                segments,
                adaptive=adaptive,
                queries=queries,
                seed=seed,
                keep_counts=keep_counts,
                ladder=ladder,
                retry=retry,
                inter_query_seconds=inter_query_seconds,
                adaptive_config=adaptive_config,
            )
        reactive, adaptive_arm = arms["reactive"], arms["adaptive"]
        reduction = (
            1.0 - adaptive_arm["wasted_bytes"] / reactive["wasted_bytes"]
            if reactive["wasted_bytes"]
            else 0.0
        )
        regime_improved = adaptive_arm["wasted_bytes"] < reactive["wasted_bytes"]
        regime_accuracy_held = (
            adaptive_arm["delivery_rate"] >= reactive["delivery_rate"]
        )
        improved += regime_improved
        accuracy_held += regime_accuracy_held
        out_regimes[name] = {
            **arms,
            "wasted_bytes_reduction": reduction,
            "improved": bool(regime_improved),
            "accuracy_held": bool(regime_accuracy_held),
        }
    return {
        "params": {
            "seed": seed,
            "queries": queries,
            "fingerprint_size": fingerprint_size,
            "ladder_bytes": ladder,
            "keep_counts": list(keep_counts),
            "inter_query_seconds": inter_query_seconds,
        },
        "regimes": out_regimes,
        "regimes_improved": improved,
        "regimes_accuracy_held": accuracy_held,
    }


def main(**overrides) -> None:
    result = run(**overrides)
    print("Adaptive vs. reactive offload across loss regimes")
    print(
        f"(ladder {result['params']['ladder_bytes']} bytes, "
        f"{result['params']['queries']} queries per regime)"
    )
    header = (
        f"{'regime':<11} {'arm':<9} {'wasted_kB':>9} {'total_kB':>9} "
        f"{'deliv%':>7} {'kpts':>6} {'p99 s':>7}"
    )
    print(header)
    for name, regime in result["regimes"].items():
        for arm in ("reactive", "adaptive"):
            series = regime[arm]
            print(
                f"{name:<11} {arm:<9} {series['wasted_bytes'] / 1e3:>9.1f} "
                f"{series['total_bytes'] / 1e3:>9.1f} "
                f"{100 * series['delivery_rate']:>6.1f}% "
                f"{series['mean_delivered_keypoints']:>6.0f} "
                f"{series['latency_seconds']['p99']:>7.3f}"
            )
        print(
            f"{'':<11} -> wasted-bytes reduction "
            f"{100 * regime['wasted_bytes_reduction']:.1f}%"
            + ("" if regime["accuracy_held"] else "  (delivery regressed!)")
        )
    print(
        f"improved {result['regimes_improved']}/{len(result['regimes'])} regimes, "
        f"accuracy held in {result['regimes_accuracy_held']}"
    )


if __name__ == "__main__":
    main()
