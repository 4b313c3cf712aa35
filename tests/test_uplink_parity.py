"""The one uplink submission path against the loops it replaced.

:func:`repro.network.faults.submit_payload` makes the adaptive pre-send
decision itself, and :func:`repro.network.faults.next_backpressure_level`
is the one AIAD rule.  Each test below drives a caller of that path and
its old hand-rolled loop (``tests/uplink_reference.py``) over twin
seeded channels and checks that every attempt, status, latency and
backpressure level comes out the same, with the adaptive policy on and
off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Fingerprint, UniquenessOracle, VisualPrintClient
from repro.core.config import VisualPrintConfig
from repro.core.fingerprint import degradation_keep_counts, degradation_ladder
from repro.evaluation.experiments import adaptive_offload, latency_e2e
from repro.features.keypoint import KeypointSet
from repro.features.serialize import serialized_size
from repro.loadgen import runner
from repro.network import (
    CHANNEL_PRESETS,
    AdaptiveConfig,
    AdaptiveOffloadPolicy,
    FaultSpec,
    FaultyChannel,
    RetryPolicy,
)
from repro.network.faults import submit_payload
from repro.obs import MetricsRegistry
from repro.util.rng import rng_for
from tests.uplink_reference import (
    channel_leg_reference,
    client_submission_reference,
    latency_round_trips_reference,
    run_arm_reference,
)

#: One fault mix per failure kind the channel can inject.
_FAULTS = {
    "loss": {"loss": 0.3},
    "outage": {"loss": 0.1, "outage_enter": 0.15, "outage_exit": 0.3},
    "dip": {"loss": 0.1, "dip_probability": 0.4},
}


def _channel(kind: str) -> FaultyChannel:
    return FaultyChannel(CHANNEL_PRESETS["lte"], FaultSpec(**_FAULTS[kind], seed=5))


def _fingerprint(count: int) -> Fingerprint:
    rng = np.random.default_rng(count)
    keypoints = KeypointSet(
        positions=rng.uniform(0, 100, (count, 2)).astype(np.float32),
        scales=np.ones(count, dtype=np.float32),
        orientations=np.zeros(count, dtype=np.float32),
        responses=np.ones(count, dtype=np.float32),
        descriptors=rng.integers(0, 256, (count, 128)).astype(np.float32),
    )
    return Fingerprint(keypoints=keypoints, uniqueness_counts=np.arange(count))


def _assert_same(new, old) -> None:
    assert new.attempt_records == old.attempt_records
    assert new.status == old.status
    assert new.latency_seconds == old.latency_seconds


def _recording(calls: list):
    """``submit_payload`` that logs each outcome with its ``start_step``."""

    def submit(*args, **kwargs):
        outcome = submit_payload(*args, **kwargs)
        calls.append((outcome, kwargs.get("start_step", 0)))
        return outcome

    return submit


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("kind", list(_FAULTS))
def test_client_submission_matches_reference(kind, adaptive):
    config = VisualPrintConfig(descriptor_capacity=5000, fingerprint_size=200)
    retry = RetryPolicy(max_attempts=2)
    client = VisualPrintClient(
        UniquenessOracle(config),
        config,
        retry_policy=retry,
        adaptive=AdaptiveConfig() if adaptive else None,
    )
    policy = AdaptiveOffloadPolicy() if adaptive else None
    new_channel, old_channel = _channel(kind), _channel(kind)
    new_rng, old_rng = rng_for(3, "parity/jitter"), rng_for(3, "parity/jitter")
    # Ladders of 3, 3, 2 and 1 rungs: the entry rung is clamped per ladder.
    fingerprints = [_fingerprint(count) for count in (200, 64, 40, 17)]
    level = 0
    levels = []
    for index in range(160):
        fingerprint = fingerprints[index % len(fingerprints)]
        new = client.submit_fingerprint(fingerprint, new_channel, rng=new_rng)
        old, level = client_submission_reference(
            len(fingerprint),
            old_channel,
            level,
            retry=retry,
            adaptive=policy,
            rng=old_rng,
        )
        _assert_same(new, old)
        assert client.backpressure_level == level
        levels.append(level)
    assert max(levels) > 0  # backpressure was exercised


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("kind", list(_FAULTS))
def test_arm_loop_matches_reference(kind, adaptive, monkeypatch):
    calls: list = []
    monkeypatch.setattr(adaptive_offload, "submit_payload", _recording(calls))
    segments = (_FAULTS[kind], {"loss": 0.45})
    shared = dict(
        queries=160,
        seed=7,
        ladder=degradation_ladder(200),
        retry=RetryPolicy(max_attempts=3),
        inter_query_seconds=0.5,
    )
    adaptive_offload._run_arm(
        kind,
        segments,
        adaptive=adaptive,
        keep_counts=degradation_keep_counts(200),
        adaptive_config=None,
        **shared,
    )
    trace = run_arm_reference(
        kind,
        segments,
        adaptive_policy=AdaptiveOffloadPolicy() if adaptive else None,
        arm="adaptive" if adaptive else "reactive",
        **shared,
    )
    assert len(calls) == len(trace) == 160
    for (new, new_level), (old, old_level) in zip(calls, trace):
        _assert_same(new, old)
        assert new_level == old_level
    assert max(level for _, level in trace) > 0


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("kind", list(_FAULTS))
def test_channel_leg_matches_reference(kind, adaptive, monkeypatch):
    calls: list = []
    monkeypatch.setattr(runner, "submit_payload", _recording(calls))
    count = 150
    times = np.cumsum(rng_for(1, "parity/gaps").exponential(0.2, count))
    latency, abandoned, summary = runner._channel_leg(
        count,
        _channel(kind),
        RetryPolicy(),
        9,
        MetricsRegistry(),
        AdaptiveOffloadPolicy() if adaptive else None,
        times,
    )
    old_latency, old_abandoned, old_summary, outcomes = channel_leg_reference(
        count,
        _channel(kind),
        RetryPolicy(),
        degradation_ladder(VisualPrintConfig().fingerprint_size),
        9,
        AdaptiveOffloadPolicy() if adaptive else None,
        times,
    )
    assert np.array_equal(latency, old_latency)
    assert np.array_equal(abandoned, old_abandoned)
    assert summary == old_summary
    assert len(calls) == len(outcomes)
    for (new, _), old in zip(calls, outcomes):
        _assert_same(new, old)


def test_latency_e2e_matches_bare_round_trips(monkeypatch):
    counts = (50, 50, 37, 12, 50)
    measurements = [
        (150_000 + 997 * i, serialized_size(count), count, 0.1 + 0.013 * i, None)
        for i, count in enumerate(counts)
    ]
    monkeypatch.setattr(latency_e2e, "parallel_map", lambda *a, **k: measurements)
    result = latency_e2e.run(
        seed=7, num_frames=len(counts), image_size=64, server_seconds=0.05
    )
    expected = latency_round_trips_reference(
        [m[3] for m in measurements],
        [m[0] for m in measurements],
        [m[1] for m in measurements],
        0.05,
        rng_for(7, "latency-e2e"),
    )
    for channel, schemes in expected.items():
        for scheme, samples in schemes.items():
            assert np.array_equal(result["latencies"][channel][scheme], samples)
    assert all(
        tally == {"frame_upload": 0, "visualprint": 0}
        for tally in result["abandoned"].values()
    )
