"""Serving-layer trajectory: dispatch overhead and shard scaling.

Three measurements land in BENCH_serving.json:

* ``frontend_dispatch_overhead`` — a localization query through a
  one-shard inline :class:`ServingFrontend` versus calling the engine
  directly.  The async router, admission accounting, and per-shard
  instruments must stay a small fraction of real oracle work.
* ``shard_scaling`` — measured per-query service times (each query's
  ``localize`` span, gathered by a :class:`TraceCollector`) replayed through the
  discrete-event load simulator at 1/2/4/8 shards.  This host may have
  a single core, so scaling is established in simulated time — the same
  discipline the channel and latency experiments use — rather than
  wall clock.  The acceptance bar: >= 2x queries/sec at 4 shards.
* ``saturation_shedding`` — the same service times offered open-loop at
  2x a single shard's capacity with a bounded queue: how much a
  ``reject``-mode deployment sheds instead of queueing without bound.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core import VisualPrintConfig, VisualPrintServer
from repro.obs import MetricsRegistry, TraceCollector, use_collector
from repro.serving import ServingFrontend, ShardLoadModel, simulate_shard_throughput
from repro.serving.synthetic import synthetic_query
from repro.util.rng import rng_for
from repro.wardrive.environment import random_sift_descriptor

_NUM_VENUES = 4
_QUERIES_PER_VENUE = 30
_DESCRIPTORS_PER_VENUE = 400
_QUERY_KEYPOINTS = 24
_SHARD_COUNTS = (1, 2, 4, 8)


def _build_fleet(seed: int = 2016) -> dict[str, VisualPrintServer]:
    fleet = {}
    for index in range(_NUM_VENUES):
        name = f"venue-{index}"
        rng = rng_for(seed, f"bench/serving/{name}")
        server = VisualPrintServer(
            VisualPrintConfig(descriptor_capacity=8192, fingerprint_size=10),
            bounds=(np.zeros(3), np.array([10.0, 10.0, 3.0])),
        )
        descriptors = np.array(
            [random_sift_descriptor(rng) for _ in range(_DESCRIPTORS_PER_VENUE)]
        )
        server.ingest(
            descriptors, rng.uniform(0, 10, (_DESCRIPTORS_PER_VENUE, 3))
        )
        fleet[name] = server
    return fleet


def _workload(fleet: dict[str, VisualPrintServer], seed: int = 2016) -> list:
    rng = rng_for(seed, "bench/serving/queries")
    items = []
    for index in range(_QUERIES_PER_VENUE * len(fleet)):
        name = f"venue-{index % len(fleet)}"
        items.append((name, synthetic_query(fleet[name], rng, _QUERY_KEYPOINTS)))
    return items


def _service_seconds(fleet: dict[str, VisualPrintServer], items: list) -> list[float]:
    """Serve ``items`` on one inline shard; each query's ``localize`` span seconds."""
    collector = TraceCollector()
    with use_collector(collector), ServingFrontend(
        num_shards=1, registry=MetricsRegistry()
    ) as frontend:
        for venue, server in fleet.items():
            frontend.register_venue(venue, server)
        answers = frontend.map_many(items)
    assert len(answers) == len(items)
    return [s.duration_seconds for s in collector.spans() if s.name == "localize"]


def test_frontend_dispatch_overhead(serving_trajectory, benchmark):
    fleet = _build_fleet()
    items = _workload(fleet)
    name, query = items[0]

    direct_best = float("inf")
    import time

    for _ in range(20):
        start = time.perf_counter()
        fleet[name].localize(query)
        direct_best = min(direct_best, time.perf_counter() - start)

    frontend = ServingFrontend(num_shards=1, registry=MetricsRegistry())
    for venue, server in fleet.items():
        frontend.register_venue(venue, server)
    benchmark.pedantic(
        lambda: frontend.call(name, query), rounds=20, iterations=1
    )
    served_best = benchmark.stats.stats.min
    frontend.close()

    overhead = (served_best - direct_best) / max(direct_best, 1e-9)
    serving_trajectory["frontend_dispatch_overhead"] = {
        "direct_seconds": round(direct_best, 6),
        "served_seconds": round(served_best, 6),
        "overhead_ratio": round(overhead, 3),
    }
    print()
    print(
        f"  frontend dispatch: {served_best * 1e3:.2f} ms vs "
        f"direct {direct_best * 1e3:.2f} ms (+{overhead:.0%})"
    )


def test_shard_scaling(serving_trajectory):
    """>= 2x queries/sec at 4 shards vs 1, on measured service times."""
    fleet = _build_fleet()
    items = _workload(fleet)

    service_seconds = _service_seconds(fleet, items)
    assert len(service_seconds) == len(items)

    depth = len(items)  # closed-loop: queue bound never binds
    rows = {}
    for shards in _SHARD_COUNTS:
        result = simulate_shard_throughput(
            service_seconds, ShardLoadModel(shards, queue_depth=depth)
        )
        assert result.served == len(items) and result.shed == 0
        rows[str(shards)] = {
            "queries_per_second": round(result.queries_per_second, 1),
            "makespan_seconds": round(result.makespan_seconds, 5),
            "utilization": round(result.utilization, 3),
        }

    speedup = (
        rows["4"]["queries_per_second"] / rows["1"]["queries_per_second"]
    )
    assert speedup >= 2.0, f"4-shard speedup {speedup:.2f}x below the 2x bar"
    serving_trajectory["shard_scaling"] = {
        "num_queries": len(items),
        "num_venues": _NUM_VENUES,
        "mean_service_ms": round(float(np.mean(service_seconds)) * 1e3, 3),
        # mean_service_ms is wall clock; every q/s, makespan and
        # utilization below is a discrete-event replay of those times.
        "by_shards_clock": "simulator replay",
        "speedup_4_shards": round(speedup, 2),
        "by_shards": rows,
    }
    print()
    for shards in _SHARD_COUNTS:
        row = rows[str(shards)]
        print(
            f"  {shards} shard(s): {row['queries_per_second']:>8.1f} q/s  "
            f"(makespan {row['makespan_seconds'] * 1e3:.1f} ms, "
            f"util {row['utilization']:.0%})"
        )
    print(f"  4-shard speedup: {speedup:.2f}x (bar: 2.0x)")


def test_saturation_shedding(serving_trajectory):
    fleet = _build_fleet()
    items = _workload(fleet)
    service_seconds = _service_seconds(fleet, items)

    # Offer the stream at 2x one shard's sustainable rate with a short
    # queue: a reject-mode deployment sheds the excess instead of
    # building unbounded backlog.
    interarrival = float(np.mean(service_seconds)) / 2.0
    result = simulate_shard_throughput(
        service_seconds,
        ShardLoadModel(1, queue_depth=8, interarrival_seconds=interarrival),
    )
    assert result.served + result.shed == len(items)
    assert result.shed > 0
    serving_trajectory["saturation_shedding"] = {
        "offered_multiplier": 2.0,
        "queue_depth": 8,
        "served": result.served,
        "shed": result.shed,
        "shed_ratio": round(result.shed / len(items), 3),
    }
    print()
    print(
        f"  2x overload, queue 8: served {result.served}, "
        f"shed {result.shed} ({result.shed / len(items):.0%})"
    )


def test_trajectory_is_json_serializable(serving_trajectory):
    json.dumps(serving_trajectory)
