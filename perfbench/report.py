"""Metrics and correctness checks computed from a run's records.

Every function here is pure: it reads :class:`perfbench.driver.Record`
objects (or anything with the same fields) and returns numbers, so the
driver's accounting can be tested without a shard.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from perfbench.stats import busy_overlap, slo_met_fraction, tail_percentile

#: Localization error and scene-hit sanity ranges (today ~1.1 m, ~0.99).
LOC_ERROR_RANGE_M = (0.3, 3.0)
SCENE_HIT_RANGE = (0.8, 1.0)
#: The traced run's layer budget must explain the end-to-end time to
#: within this share.
BUDGET_TOLERANCE = 0.05
#: Answers must lie inside the venue box (plus float slack).
BOUNDS_SLACK_M = 1e-6


def reads(records: Sequence[Any]) -> list[Any]:
    return [r for r in records if r.kind == "read"]


def answered(records: Sequence[Any]) -> list[Any]:
    return [r for r in records if r.status == "answered"]


def outcome_counts(records: Sequence[Any]) -> dict[str, int]:
    counts = {"offered": len(records), "answered": 0, "shed": 0, "failed": 0, "abandoned": 0}
    for record in records:
        if record.status in counts:
            counts[record.status] += 1
    return counts


def queue_waits(records: Sequence[Any]) -> dict[int, float]:
    """Seconds each answered request waited while the worker served others.

    The part of ``[submit_start, engine_start]`` during which the worker
    was busy with other requests' engine calls; the rest of that interval
    is dispatch (pickling, pipe transfer, wake-ups).
    """
    done = answered(records)
    intervals = [(r.engine_start, r.engine_end) for r in done]
    waits = {}
    for record in done:
        others = [iv for iv in intervals if iv != (record.engine_start, record.engine_end)]
        waits[record.index] = busy_overlap(record.submit_start, record.engine_start, others)
    return waits


def latency_summary(records: Sequence[Any]) -> dict[str, Any]:
    """Median and supported tail of due-to-answer latency over offered reads.

    A read that got no answer counts as infinitely late: it misses any
    limit, and the tail's percentile, fixed by the offered count, does
    not move with the number of failures.
    """
    latencies = [r.latency if r.status == "answered" else math.inf for r in reads(records)]
    percentile = tail_percentile(len(latencies))
    return {
        "count": len(latencies),
        "p50_s": np.median(latencies) if latencies else math.nan,
        "tail_percentile": percentile,
        "tail_s": np.percentile(latencies, percentile, method="higher") if percentile else math.nan,
    }


def work_seconds(records: Sequence[Any]) -> float:
    """CPU-bound seconds the answered reads spent in the client and engine.

    Two passes over the same inputs differ here only by host noise and
    by what tracing adds; latency would also amplify either through
    queueing.
    """
    return sum(
        r.client_s + r.submit_cpu_s + (r.engine_end - r.engine_start)
        for r in answered(reads(records))
    )


def end_to_end(
    records: Sequence[Any],
    slo_seconds: float,
    setup_seconds: Sequence[float],
    peak_qps: float,
    rss_kib: int,
) -> dict[str, float]:
    """The end-to-end metrics of an untraced run (see README glossary)."""
    offered = reads(records)
    counts = outcome_counts(offered)
    latency = latency_summary(records)
    return {
        "setup_s": np.median(list(setup_seconds)),
        "query_p50_ms": latency["p50_s"] * 1e3,
        "query_tail_ms": latency["tail_s"] * 1e3,
        "slo_met_frac": slo_met_fraction([r.latency for r in offered], slo_seconds),
        "answered_frac": counts["answered"] / counts["offered"],
        "peak_qps": peak_qps,
        "uplink_bytes_per_query": sum(r.air_bytes for r in offered) / counts["offered"],
        "rss_peak_mb": rss_kib / 1024.0,
    }


def peak_rate(bursts: Sequence[tuple[Sequence[Any], float]]) -> float:
    """Answers per wall second over all the closed-loop bursts together."""
    return sum(len(answered(replays)) for replays, _ in bursts) / sum(s for _, s in bursts)


def accuracy(records: Sequence[Any], kind: str) -> dict[str, float]:
    """``loc_error_p50_m`` (venue workloads) or ``scene_hit_frac`` (camera)."""
    done = answered(reads(records))
    if not done:
        return {}
    if kind == "venue":
        errors = [
            math.dist(r.result[0], (r.truth.x, r.truth.y, r.truth.z)) for r in done
        ]
        return {"loc_error_p50_m": np.median(errors)}
    return {"scene_hit_frac": np.mean([1.0 if r.result[0] == r.truth else 0.0 for r in done])}


def layer_times(record: Any, wait: float) -> dict[str, float]:
    """One answered read's blocking path split into self times (seconds).

    The components add up to the due-to-answer latency except for the
    driver's own bookkeeping between timestamps (``unaccounted``).
    """
    client_spans = record.client_spans
    worker: dict[str, float] = {}
    for name, start, end in record.worker_spans:
        worker[name] = worker.get(name, 0.0) + (end - start)
    sift = client_spans.get("client.sift", 0.0)
    oracle = client_spans.get("client.oracle", 0.0)
    serialize = client_spans.get("client.serialize", 0.0)
    engine = record.engine_end - record.engine_start
    submit_wall = record.submit_end - record.submit_start
    lsh = worker.get("lsh.query", 0.0)
    cluster = worker.get("localization.cluster", 0.0)
    solve = worker.get("localization.solve", 0.0)
    parts = {
        "driver.lag": (record.start - record.due)
        + (record.uplink_wall_s - record.uplink_sim_s)
        + (record.downlink_wall_s - record.downlink_sim_s),
        "client.sift": sift,
        "client.oracle": oracle,
        "client.serialize": serialize,
        "client.self": record.client_s - sift - oracle - serialize,
        "network.submit": record.submit_cpu_s,
        "network.uplink": record.uplink_sim_s,
        "serving.queue_wait": wait,
        "serving.dispatch": submit_wall - engine - wait,
        "lsh.query": lsh,
        "localization.cluster": cluster,
        "localization.solve": solve,
        "server.self": engine - lsh - cluster - solve,
        "network.downlink": record.downlink_sim_s,
    }
    parts["unaccounted"] = record.latency - sum(parts.values())
    return parts


def per_layer(records: Sequence[Any], kind: str) -> dict[str, float]:
    """Per-layer metrics of a traced pass (see README glossary)."""
    offered = reads(records)
    done = answered(offered)
    delivered = [r for r in offered if r.status != "abandoned"]
    waits = queue_waits(records)
    parts = [layer_times(r, waits[r.index]) for r in done]
    engine_reads = [r.engine_end - r.engine_start for r in done]
    writes = answered([r for r in records if r.kind == "write"])
    engine_writes = sum(r.engine_end - r.engine_start for r in writes)
    engine_total = sum(engine_reads) + engine_writes
    served = answered(records)
    phase = max(r.done for r in records if not math.isnan(r.done)) - min(
        r.due for r in records
    )

    def p50_ms(name: str) -> float:
        return np.median([p[name] for p in parts]) * 1e3

    def share(name: str) -> float:
        return sum(p[name] for p in parts) / sum(engine_reads)

    lag = [p["driver.lag"] for p in parts]
    lag_percentile = tail_percentile(len(lag)) or 50
    uplink = [r.uplink_sim_s for r in delivered]
    uplink_percentile = tail_percentile(len(uplink)) or 50
    client_total = sum(r.client_s for r in done)
    # The scene engine matches but never clusters or solves: it reads 0
    # clustered points and 0 converged solves, which is what happened.
    if kind == "venue":
        matched = sum(r.result[2] for r in done)
        clustered = sum(r.result[3] for r in done)
        converged = sum(1 for r in done if r.result[1])
    else:
        matched = sum(r.result[1] for r in done)
        clustered = converged = 0
    e2e_total = sum(r.latency for r in done)
    return {
        "client.sift_share": sum(p["client.sift"] for p in parts) / client_total,
        "client.oracle_ms": p50_ms("client.oracle"),
        "client.serialize_ms": p50_ms("client.serialize"),
        "client.kept_frac": sum(r.kept for r in offered) / sum(r.extracted for r in offered),
        "network.uplink_sim_p50_ms": np.median(uplink) * 1e3,
        "network.uplink_sim_tail_ms": np.percentile(uplink, uplink_percentile) * 1e3,
        "network.attempts_per_query": sum(r.attempts for r in offered) / len(offered),
        "network.wasted_bytes_per_query": sum(r.wasted_bytes for r in offered) / len(offered),
        "network.delivered_frac": len(delivered) / len(offered),
        "network.degraded_frac": sum(1 for r in offered if r.degraded) / len(offered),
        "network.submit_us": np.median([r.submit_cpu_s for r in offered]) * 1e6,
        "serving.queue_wait_mean_ms": np.mean([p["serving.queue_wait"] for p in parts]) * 1e3,
        "serving.queued_frac": np.mean([1.0 if waits[r.index] > 0 else 0.0 for r in served]),
        "serving.dispatch_ms": p50_ms("serving.dispatch"),
        "serving.busy_frac": engine_total / phase,
        "lsh.query_ms": p50_ms("lsh.query"),
        "lsh.matches_per_query": matched / len(done),
        "localization.cluster_share": share("localization.cluster"),
        "localization.solve_share": share("localization.solve"),
        "localization.clustered_frac": clustered / max(matched, 1),
        "localization.converged_per_query": converged / len(done),
        "server.engine_ms": np.median(engine_reads) * 1e3,
        "server.self_ms": p50_ms("server.self"),
        "server.ingest_share": engine_writes / engine_total,
        "driver.lag_tail_ms": np.percentile(lag, lag_percentile) * 1e3,
        "trace.unaccounted_frac": sum(abs(p["unaccounted"]) for p in parts) / e2e_total,
    }


def check(records: Sequence[Any], kind: str, bounds: dict[str, Any]) -> list[str]:
    """Correctness problems in a pass's records; empty when all is well."""
    problems = []
    for group in ("read", "write"):
        subset = [r for r in records if r.kind == group]
        counts = outcome_counts(subset)
        total = counts["answered"] + counts["shed"] + counts["failed"] + counts["abandoned"]
        if total != counts["offered"]:
            problems.append(f"{group}s: offered {counts['offered']} != accounted {total}")
        if counts["failed"]:
            errors = sorted({r.error for r in subset if r.status == "failed"})
            problems.append(f"{counts['failed']} {group}s failed in the engine: {errors}")
    bad_payloads = [r.index for r in reads(records) if not r.payload_ok]
    if bad_payloads:
        problems.append(f"payload size != serialized_size of its rung for requests {bad_payloads}")
    for record in answered([r for r in records if r.kind == "write"]):
        if record.result <= 0:
            problems.append(f"write {record.index} ingested nothing")
    done = answered(reads(records))
    if not done:
        return problems + ["no read was answered"]
    if kind == "venue":
        for record in done:
            low, high = bounds[record.venue]
            position = record.result[0]
            if not all(math.isfinite(v) for v in position):
                problems.append(f"request {record.index}: non-finite pose {position}")
            elif any(
                v < lo - BOUNDS_SLACK_M or v > hi + BOUNDS_SLACK_M
                for v, lo, hi in zip(position, low, high)
            ):
                problems.append(f"request {record.index}: pose {position} outside the venue")
    if any(r.truth is not None for r in done):
        for name, value in accuracy(records, kind).items():
            low, high = LOC_ERROR_RANGE_M if name == "loc_error_p50_m" else SCENE_HIT_RANGE
            if not low <= value <= high:
                problems.append(f"{name} = {value:.3f} outside sanity range [{low}, {high}]")
    return problems
