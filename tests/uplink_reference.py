"""Test-only references: the hand-rolled uplink loops that
:func:`repro.network.faults.submit_payload` absorbed.

Before the adaptive pre-send step and the AIAD backpressure rule lived
in one place, each caller wrapped ``submit_payload`` in its own copy of
that policy: the client's ``submit_fingerprint``, the adaptive
experiment's arm loop, the load test's channel leg, and the end-to-end
latency experiment's fault-free branch (``round_trip_seconds`` on the bare
channel).  This module keeps those loops as they were, calling
``submit_payload`` only for the retry walk it always did, so
``tests/test_uplink_parity.py`` can check that the single path gives
the same attempts, statuses, latencies and backpressure levels.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.core.fingerprint import degradation_keep_counts
from repro.features.serialize import serialized_size
from repro.network import CHANNEL_PRESETS, FaultSpec, FaultyChannel, RetryPolicy
from repro.network.faults import TransferOutcome, submit_payload
from repro.util.rng import derive_seed, rng_for

__all__ = [
    "channel_leg_reference",
    "client_submission_reference",
    "latency_round_trips_reference",
    "run_arm_reference",
]


def client_submission_reference(
    num_keypoints: int,
    channel,
    level: int,
    *,
    floor: int = 16,
    max_steps: int = 2,
    retry: RetryPolicy | None = None,
    adaptive=None,
    rng: np.random.Generator | None = None,
) -> tuple[TransferOutcome, int]:
    """One ``VisualPrintClient.submit_fingerprint``; returns (outcome, next level)."""
    policy = retry or RetryPolicy()
    ladder = [
        serialized_size(count)
        for count in degradation_keep_counts(
            num_keypoints, floor=floor, max_steps=max_steps
        )
    ]
    start = min(level, len(ladder) - 1)
    if adaptive is not None:
        decision = adaptive.decide(channel, ladder_rungs=len(ladder))
        channel = decision.channel
        start = min(max(start, decision.entry_rung), len(ladder) - 1)
        policy = decision.adapt_retry_policy(policy)
    outcome = submit_payload(channel, ladder, policy, rng, start_step=start)
    if outcome.delivered:
        level = max(0, outcome.ladder_step - 1)
    else:
        level = min(level + 1, len(ladder) - 1)
    return outcome, level


def run_arm_reference(
    regime: str,
    segments: Sequence[dict[str, float]],
    *,
    adaptive_policy,
    arm: str,
    queries: int,
    seed: int,
    ladder: Sequence[int],
    retry: RetryPolicy,
    inter_query_seconds: float,
) -> list[tuple[TransferOutcome, int]]:
    """The adaptive experiment's arm loop: per query (outcome, entry level)."""
    rng = rng_for(seed, f"adaptive_offload/{regime}/{arm}")
    preset = CHANNEL_PRESETS["lte"]
    per_segment = max(1, queries // len(segments))
    backpressure = 0
    trace = []
    for index, fields in enumerate(segments):
        spec = FaultSpec(
            **fields,
            seed=derive_seed(seed, f"adaptive_offload/{regime}/segment{index}"),
        )
        channel = FaultyChannel(
            dataclasses.replace(preset, name=f"{regime}-{arm}"), spec
        )
        if adaptive_policy is not None:
            adaptive_policy.register_path(regime, channel)
        for _ in range(per_segment):
            if adaptive_policy is not None:
                adaptive_policy.advance(inter_query_seconds)
                decision = adaptive_policy.decide(ladder_rungs=len(ladder))
                start = max(backpressure, decision.entry_rung)
                attempt_policy = decision.adapt_retry_policy(retry)
            else:
                start = backpressure
                attempt_policy = retry
            outcome = submit_payload(
                channel,
                list(ladder),
                attempt_policy,
                rng,
                start_step=min(start, len(ladder) - 1),
            )
            trace.append((outcome, backpressure))
            if outcome.delivered:
                backpressure = max(0, outcome.ladder_step - 1)
            else:
                backpressure = min(backpressure + 1, len(ladder) - 1)
    return trace


def channel_leg_reference(
    count: int,
    channel,
    retry: RetryPolicy,
    ladder: Sequence[int],
    seed: int,
    adaptive=None,
    arrival_times: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, Any], list[TransferOutcome]]:
    """The load test's uplink leg: (latency, abandoned, summary, outcomes)."""
    rng = rng_for(seed, "loadgen/channel")
    ladder = [int(size) for size in ladder]
    latency = np.zeros(count)
    abandoned = np.zeros(count, dtype=bool)
    degraded = 0
    delivered_bytes = 0
    wasted = 0.0
    wasted_bytes = 0
    retries = 0
    outcomes = []
    last_time = float(arrival_times[0]) if arrival_times is not None else 0.0
    for index in range(count):
        policy = retry
        start_step = 0
        if adaptive is not None:
            if arrival_times is not None:
                now = float(arrival_times[index])
                adaptive.advance(max(0.0, now - last_time))
                last_time = now
            decision = adaptive.decide(channel, ladder_rungs=len(ladder))
            policy = decision.adapt_retry_policy(retry)
            start_step = decision.entry_rung
        outcome = submit_payload(channel, ladder, policy, rng, start_step=start_step)
        outcomes.append(outcome)
        latency[index] = outcome.latency_seconds
        retries += outcome.retries
        wasted += outcome.wasted_seconds
        wasted_bytes += outcome.wasted_bytes
        if outcome.status == "abandoned":
            abandoned[index] = True
        else:
            delivered_bytes += outcome.payload_bytes
            if outcome.status == "degraded":
                degraded += 1
    summary = {
        "degraded": degraded,
        "delivered_bytes": delivered_bytes,
        "wasted_seconds": float(wasted),
        "wasted_bytes": wasted_bytes,
        "retries": retries,
    }
    if adaptive is not None:
        summary["adaptive"] = adaptive.snapshot()
    return latency, abandoned, summary, outcomes


def latency_round_trips_reference(
    compute_seconds: Sequence[float],
    frame_bytes: Sequence[int],
    fingerprint_bytes: Sequence[int],
    server_seconds: float,
    rng: np.random.Generator,
) -> dict[str, dict[str, np.ndarray]]:
    """The end-to-end latency experiment's fault-free branch, per channel preset."""
    latencies = {}
    for channel_name, channel in CHANNEL_PRESETS.items():
        frame_lat = []
        vp_lat = []
        for compute, frame_size, fp_size in zip(
            compute_seconds, frame_bytes, fingerprint_bytes
        ):
            up = channel.transfer_seconds(frame_size, rng)
            down = channel.response_seconds(256, rng)
            frame_lat.append(up + server_seconds + down)
            up = channel.transfer_seconds(fp_size, rng)
            down = channel.response_seconds(256, rng)
            vp_lat.append(compute + (up + server_seconds + down))
        latencies[channel_name] = {
            "frame_upload": np.array(frame_lat),
            "visualprint": np.array(vp_lat),
        }
    return latencies
