"""Tests of the benchmark driver itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import UniquenessOracle, VisualPrintConfig
from repro.features.keypoint import KeypointSet
from repro.obs import MetricsRegistry
from repro.serving import EngineSpec, ServingFrontend
from repro.wardrive import IndoorEnvironment

from perfbench import driver, report
from perfbench.engines import Reply
from perfbench.stats import slo_met_fraction, tail_percentile
from perfbench.workloads import (
    VENUES,
    WORKLOADS,
    Inputs,
    Read,
    Survey,
    Workload,
    make_inputs,
    program_config,
)

# ----------------------------------------------------------------------
# Percentile helper
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (32, 65), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99)],
)
def test_tail_percentile_picks_highest_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_percentile_always_leaves_ten_samples_beyond():
    for count in range(1, 3000):
        percentile = tail_percentile(count)
        if percentile is None:
            assert count < 20
        else:
            assert count * (100 - percentile) / 100 >= 10


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------


def _record(status, latency=None, kind="read", air_bytes=100):
    return SimpleNamespace(
        kind=kind,
        status=status,
        latency=latency if status == "answered" else None,
        air_bytes=air_bytes,
    )


def test_failed_shed_and_abandoned_queries_miss_the_slo():
    records = [
        _record("answered", 0.2),
        _record("answered", 0.9),  # answered, but beyond the limit
        _record("abandoned"),
        _record("failed"),
        _record("shed"),
    ]
    latencies = [r.latency for r in records]
    assert slo_met_fraction(latencies, 0.5) == pytest.approx(1 / 5)
    metrics = report.end_to_end(records, 0.5, [1.0, 2.0, 3.0], peak_qps=4.0, rss_kib=2048)
    assert metrics["slo_met_frac"] == pytest.approx(1 / 5)
    assert metrics["answered_frac"] == pytest.approx(2 / 5)
    assert metrics["setup_s"] == 2.0
    assert metrics["rss_peak_mb"] == 2.0
    counts = report.outcome_counts(records)
    assert counts == {"offered": 5, "answered": 2, "shed": 1, "failed": 1, "abandoned": 1}


def test_latency_percentiles_count_unanswered_reads_as_late():
    answered_reads = [_record("answered", 0.1 + 0.01 * i) for i in range(27)]
    records = answered_reads + [_record("abandoned"), _record("failed"), _record("shed")]
    summary = report.latency_summary(records)
    # The percentile follows the 30 offered reads, not the 27 answered.
    assert summary["count"] == 30
    assert summary["tail_percentile"] == tail_percentile(30) == 65
    assert summary["tail_s"] == pytest.approx(0.1 + 0.01 * 19)
    assert summary["p50_s"] == pytest.approx(0.1 + 0.01 * 14.5)
    lost = [_record("answered", 0.1)] * 15 + [_record("abandoned")] * 15
    assert report.latency_summary(lost)["tail_s"] == float("inf")


def test_check_flags_accounting_payload_and_pose_problems():
    low, high = np.zeros(3), np.array([10.0, 10.0, 3.0])
    good = SimpleNamespace(
        index=0, kind="read", venue="v", status="answered", payload_ok=True,
        result=((1.0, 1.0, 1.0), True, 5, 5), truth=None,
    )
    outside = SimpleNamespace(
        index=1, kind="read", venue="v", status="answered", payload_ok=False,
        result=((11.0, 1.0, 1.0), True, 5, 5), truth=None,
    )
    lost = SimpleNamespace(
        index=2, kind="read", venue="v", status="pending", payload_ok=True, result=None,
        truth=None,
    )
    assert report.check([good], "venue", {"v": (low, high)}) == []
    problems = report.check([good, outside, lost], "venue", {"v": (low, high)})
    assert any("accounted" in p for p in problems)
    assert any("serialized_size" in p for p in problems)
    assert any("outside the venue" in p for p in problems)


def test_queue_wait_counts_only_time_the_worker_served_others():
    first = SimpleNamespace(
        index=0, status="answered", submit_start=0.0, engine_start=0.001, engine_end=0.5
    )
    second = SimpleNamespace(
        index=1, status="answered", submit_start=0.1, engine_start=0.502, engine_end=0.6
    )
    waits = report.queue_waits([first, second])
    assert waits[0] == 0.0
    assert waits[1] == pytest.approx(0.4)


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------


def _small_surveys():
    return {
        venue: Survey(IndoorEnvironment.build(venue, seed=3), np.empty((0, 128)), np.empty((0, 3)))
        for venue in VENUES
    }


def test_seed_changes_inputs_but_not_program_configuration():
    workload = WORKLOADS["lossy_ingest_mix"]
    surveys = _small_surveys()
    first = make_inputs(workload, 1, 5, surveys)
    again = make_inputs(workload, 1, 5, surveys)
    other = make_inputs(workload, 2, 5, surveys)
    assert first.offsets == again.offsets
    assert len(first.requests) == len(other.requests)
    assert first.offsets != other.offsets
    first_reads = [r for r in first.requests if isinstance(r, Read)]
    other_reads = [r for r in other.requests if isinstance(r, Read)]
    assert not np.array_equal(first_reads[0].keypoints.descriptors, other_reads[0].keypoints.descriptors)
    assert [type(r) for r in first.requests] == [type(r) for r in other.requests]
    assert any(not isinstance(r, Read) for r in first.requests)
    # The program never sees the seed: every setting it gets comes from
    # the seed-free workload definition.
    assert program_config(workload) == program_config(WORKLOADS["lossy_ingest_mix"])


def test_spare_reads_for_bursts_are_seeded_and_never_offered():
    workload = WORKLOADS["lossy_ingest_mix"]
    surveys = _small_surveys()
    plain = make_inputs(workload, 1, 5, surveys)
    spared = make_inputs(workload, 1, 5, surveys, spares=6)
    again = make_inputs(workload, 1, 5, surveys, spares=6)
    assert not plain.spares
    assert len(spared.spares) == 6
    assert [type(r) for r in spared.requests] == [type(r) for r in plain.requests]
    assert spared.offsets == plain.offsets
    offered = [r.keypoints.descriptors for r in spared.requests if isinstance(r, Read)]
    for spare, repeat in zip(spared.spares, again.spares):
        assert np.array_equal(spare.keypoints.descriptors, repeat.keypoints.descriptors)
        assert not any(np.array_equal(spare.keypoints.descriptors, d) for d in offered)


# ----------------------------------------------------------------------
# Open loop: a stall delays the requests queued behind it
# ----------------------------------------------------------------------


class _StallOnceEngine:
    """Answers in ``service`` seconds, except the first request takes ``stall``."""

    def __init__(self, service: float, stall: float) -> None:
        self.service = service
        self.stall = stall
        self.served = 0

    def serve(self, request):
        start = time.perf_counter()
        time.sleep(self.stall if self.served == 0 else self.service)
        self.served += 1
        return Reply(((1.0, 1.0, 1.0), True, 8, 8), start, time.perf_counter())


def _build_stall_engine(service: float, stall: float) -> _StallOnceEngine:
    return _StallOnceEngine(service, stall)


def _stub_run(stall: float, workers: int, bursts: int = 0):
    rng = np.random.default_rng(0)
    config = VisualPrintConfig(descriptor_capacity=1024, fingerprint_size=8)
    oracle = UniquenessOracle(config, registry=MetricsRegistry())
    oracle.insert(rng.integers(0, 255, size=(256, 128)).astype(np.float32))
    frontend = ServingFrontend(
        num_shards=1,
        workers=workers,
        queue_depth=16,
        admission="reject",
        registry=MetricsRegistry(),
    )
    frontend.register_venue("v", EngineSpec(_build_stall_engine, 0.01, stall))
    deployment = driver.Deployment(
        frontend=frontend,
        oracles={"v": oracle},
        configs={"v": config},
        bounds={"v": (np.zeros(3), np.full(3, 10.0))},
        timings={},
    )
    count = 5
    reads = [
        Read(
            venue="v",
            keypoints=KeypointSet(
                positions=rng.uniform(0, 100, size=(20, 2)).astype(np.float32),
                scales=np.ones(20, dtype=np.float32),
                orientations=np.zeros(20, dtype=np.float32),
                responses=np.ones(20, dtype=np.float32),
                descriptors=rng.integers(0, 255, size=(20, 128)).astype(np.float32),
            ),
        )
        for _ in range(count)
    ]
    inputs = Inputs(
        offsets=[0.05 * i for i in range(count)], requests=reads, gaps=[0.05] * count, window=0.25
    )
    workload = Workload(
        name="stub", kind="venue", rate_qps=20.0, slo_ms=100.0, channel="wifi", bursts=bursts,
        burst_size=2,
    )
    try:
        if not bursts:
            return driver.offer(workload, deployment, inputs, seed=0)
        prepared = driver.prepare_bursts(workload, deployment, inputs)
        return driver.offer_between_bursts(workload, deployment, inputs, 0, prepared)
    finally:
        frontend.close()


@pytest.mark.parametrize("workers", [1, 2], ids=["inline-shard", "process-shard"])
def test_a_stall_adds_to_the_latency_of_requests_queued_behind_it(workers):
    # With a process shard the stall holds the worker, so later requests
    # queue inside the executor; with an inline shard it blocks the
    # driver's own loop, so later requests start late.  Timing from the
    # due time must charge the stall to them either way.
    stall = 0.6
    baseline = _stub_run(stall=0.01, workers=workers)
    stalled = _stub_run(stall=stall, workers=workers)
    assert all(r.status == "answered" for r in baseline + stalled)
    waits = report.queue_waits(stalled)
    for record in stalled[1:]:
        offset = record.due - stalled[0].due
        assert record.latency >= stall - offset
        assert record.latency > baseline[record.index].latency + 0.2
        if workers > 1:
            assert waits[record.index] > 0
    assert max(r.latency for r in baseline) < stall / 2


def test_bursts_run_before_between_and_after_the_open_loop_segments():
    records, saturation = _stub_run(stall=0.01, workers=2, bursts=3)
    assert all(r.status == "answered" for r in records)
    assert [len(report.answered(replays)) for replays, _ in saturation] == [2, 2, 2]
    first, middle, last = (replays for replays, _ in saturation)
    # Two segments of the 0.25 s window: offsets 0-0.1 and 0.15-0.2.
    early, late = records[:3], records[3:]
    assert max(r.submit_end for r in first) < min(r.due for r in early)
    assert max(r.done for r in early) < min(r.submit_start for r in middle)
    assert max(r.submit_end for r in middle) < min(r.due for r in late)
    assert max(r.done for r in late) < min(r.submit_start for r in last)
    # Within a segment the open-loop spacing is kept.
    assert late[1].due - late[0].due == pytest.approx(0.05)


def test_peak_rate_is_answers_over_summed_burst_seconds():
    burst = [_record("answered", 0.1)] * 4 + [_record("shed")]
    assert report.peak_rate([(burst, 1.0), (burst, 2.0), (burst, 1.0)]) == 3.0


def test_worker_memory_counts_only_pages_it_does_not_share():
    import os

    from perfbench.engines import peak_rss_kib, private_kib

    before = private_kib()
    ballast = np.ones(16 * 2**20 // 8)  # 16 MiB, written, so resident
    assert private_kib() - before >= 15 * 1024
    assert 0 < private_kib() <= peak_rss_kib()
    reader, writer = os.pipe()
    child = os.fork()
    if child == 0:  # the child shares every page it has not written
        os.write(writer, str(private_kib()).encode())
        os._exit(0)
    os.close(writer)
    shared_child = int(os.read(reader, 64))
    os.close(reader)
    os.waitpid(child, 0)
    assert shared_child < 8 * 1024
    del ballast


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the workload definitions
# ----------------------------------------------------------------------


def test_benchmark_json_states_each_workloads_rate_and_slo_and_tags_every_metric():
    import json
    from pathlib import Path

    from perfbench.run import TAGS

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"].endswith("; " + WORKLOADS[entry["name"]].rate_and_slo())
    assert {m["name"] for m in spec["end_to_end"] + spec["per_layer"]} == set(TAGS)
