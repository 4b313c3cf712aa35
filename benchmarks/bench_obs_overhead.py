"""Observability-layer cost guards.

Four assertions the obs subsystem must keep true as it grows:

1. Instrumenting :meth:`UniquenessOracle.counts` costs < 5% on a
   1k x 128 descriptor batch versus the uninstrumented path (a disabled
   registry hands out no-op instruments — the baseline).
2. Incremental :meth:`LshIndex.insert` beats rebuild-per-batch ingest
   (the quadratic wardrive pathology the server used to have), with the
   win visible in the ``server_ingest_seconds`` sketch.
3. Full tracing (a per-query root span kept by a TraceCollector, the
   flight recorder's ``slowest_traces`` pick over it) around
   :meth:`UniquenessOracle.lookup_batch` costs < 5% versus the untraced
   path — the hot-path guard for the tracing layer, recorded as a
   BENCH_obs_trace.json trajectory row.
4. Per-query SLO accounting (a :class:`QuantileSketch` observe plus an
   :class:`SloTracker` record) around the same lookup costs < 5%
   versus the unobserved path — the guard the SLO engine ships under,
   recorded as a second BENCH_obs_trace.json row.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import UniquenessOracle, VisualPrintConfig
from repro.lsh import LshIndex
from repro.obs import (
    MetricsRegistry,
    SloTracker,
    TraceCollector,
    default_objectives,
    slowest_traces,
    trace_span,
    use_collector,
)
from repro.util.rng import rng_for

_OVERHEAD_BUDGET = 1.05  # instrumented may cost at most 5% more


def _best_of(func, repeats: int = 9) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _descriptor_batch(count: int = 1000) -> np.ndarray:
    rng = rng_for(11, "bench/obs-overhead")
    return rng.integers(0, 256, size=(count, 128)).astype(np.float32)


def test_counts_instrumentation_overhead(benchmark):
    """oracle.counts on a 1k batch: instrumented within 5% of baseline."""
    config = VisualPrintConfig(descriptor_capacity=50_000)
    descriptors = _descriptor_batch(1000)

    instrumented = UniquenessOracle(config, registry=MetricsRegistry())
    baseline = UniquenessOracle(config, registry=MetricsRegistry(enabled=False))
    instrumented.insert(descriptors[:500])
    baseline.insert(descriptors[:500])

    # Warm both paths (allocator, caches) before timing.
    instrumented.counts(descriptors)
    baseline.counts(descriptors)

    # Interleave the two sides so clock-frequency drift and scheduler
    # noise hit both equally; best-of keeps the cleanest run of each.
    baseline_seconds = float("inf")
    instrumented_seconds = float("inf")

    def interleaved() -> None:
        nonlocal baseline_seconds, instrumented_seconds
        for _ in range(15):
            start = time.perf_counter()
            baseline.counts(descriptors)
            baseline_seconds = min(baseline_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            instrumented.counts(descriptors)
            instrumented_seconds = min(
                instrumented_seconds, time.perf_counter() - start
            )

    benchmark.pedantic(interleaved, rounds=1, iterations=1)
    # Small absolute epsilon absorbs scheduler noise on sub-ms timings.
    assert instrumented_seconds <= baseline_seconds * _OVERHEAD_BUDGET + 5e-5, (
        f"instrumented counts {instrumented_seconds * 1e3:.3f} ms vs "
        f"baseline {baseline_seconds * 1e3:.3f} ms exceeds "
        f"{(_OVERHEAD_BUDGET - 1) * 100:.0f}% budget"
    )
    samples = instrumented.metrics.sketch("oracle_counts_seconds")
    assert samples.count >= 10


def test_lookup_tracing_overhead(benchmark, obs_trace_trajectory):
    """Traced lookup_batch (collector + flight recorder) within 5% of plain."""
    config = VisualPrintConfig(descriptor_capacity=50_000)
    descriptors = _descriptor_batch(1000)
    oracle = UniquenessOracle(config, registry=MetricsRegistry(enabled=False))
    oracle.insert(descriptors[:500])

    collector = TraceCollector()

    def plain() -> None:
        oracle.lookup_batch(descriptors)

    def traced() -> None:
        # The full per-query tracing stack: a "query" root span around
        # the lookup, kept by the collector — exactly what a
        # --flight-recorder CLI run does per query.  The slowest-K pick
        # runs once, over the collector, after the run (below).
        with use_collector(collector):
            with trace_span("query"):
                oracle.lookup_batch(descriptors)

    # Warm both paths (allocator, caches) before timing.
    plain()
    traced()

    baseline_seconds = float("inf")
    traced_seconds = float("inf")

    def interleaved() -> None:
        nonlocal baseline_seconds, traced_seconds
        # More rounds than the counts guard: the tracing delta is a few
        # microseconds against a ~40 ms lookup, so the best-of needs
        # enough samples to find a quiet slot on a loaded 1-core host.
        for _ in range(25):
            start = time.perf_counter()
            plain()
            baseline_seconds = min(baseline_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            traced()
            traced_seconds = min(traced_seconds, time.perf_counter() - start)

    benchmark.pedantic(interleaved, rounds=1, iterations=1)
    assert traced_seconds <= baseline_seconds * _OVERHEAD_BUDGET + 5e-5, (
        f"traced lookup_batch {traced_seconds * 1e3:.3f} ms vs "
        f"plain {baseline_seconds * 1e3:.3f} ms exceeds "
        f"{(_OVERHEAD_BUDGET - 1) * 100:.0f}% budget"
    )
    # The collector really kept every traced query (1 warm-up + 25).
    assert len(slowest_traces(collector.traces(), 8)) == 8
    assert len(collector.roots) == 26

    obs_trace_trajectory["lookup_batch_tracing"] = {
        "descriptors": descriptors.shape[0],
        "plain_seconds": round(baseline_seconds, 6),
        "traced_seconds": round(traced_seconds, 6),
        "overhead_ratio": round(traced_seconds / max(baseline_seconds, 1e-9), 4),
        "budget_ratio": _OVERHEAD_BUDGET,
    }


def test_sketch_and_slo_overhead(benchmark, obs_trace_trajectory):
    """Per-query sketch observe + SLO record within 5% of the bare lookup."""
    config = VisualPrintConfig(descriptor_capacity=50_000)
    descriptors = _descriptor_batch(1000)
    oracle = UniquenessOracle(config, registry=MetricsRegistry(enabled=False))
    oracle.insert(descriptors[:500])

    registry = MetricsRegistry()
    sketch = registry.sketch("serving_e2e_seconds", shard="bench")
    tracker = SloTracker(default_objectives(), registry=registry)
    clock = 0.0

    def plain() -> None:
        oracle.lookup_batch(descriptors)

    def observed() -> None:
        # Exactly what the serving frontend adds per served query: one
        # e2e timing into the shard sketch and one per-scope SLO record.
        nonlocal clock
        start = time.perf_counter()
        oracle.lookup_batch(descriptors)
        elapsed = time.perf_counter() - start
        sketch.observe(elapsed)
        clock += 1.0
        tracker.record(latency_seconds=elapsed, ok=True, now=clock, venue="bench")

    # Warm both paths (allocator, caches) before timing.
    plain()
    observed()

    baseline_seconds = float("inf")
    observed_seconds = float("inf")

    def interleaved() -> None:
        nonlocal baseline_seconds, observed_seconds
        for _ in range(25):
            start = time.perf_counter()
            plain()
            baseline_seconds = min(baseline_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            observed()
            observed_seconds = min(observed_seconds, time.perf_counter() - start)

    benchmark.pedantic(interleaved, rounds=1, iterations=1)
    assert observed_seconds <= baseline_seconds * _OVERHEAD_BUDGET + 5e-5, (
        f"sketch+SLO lookup_batch {observed_seconds * 1e3:.3f} ms vs "
        f"plain {baseline_seconds * 1e3:.3f} ms exceeds "
        f"{(_OVERHEAD_BUDGET - 1) * 100:.0f}% budget"
    )
    assert sketch.count >= 26  # every observed query landed in the sketch
    assert tracker.report()["alerts_fired"] == 0

    obs_trace_trajectory["lookup_batch_sketch_slo"] = {
        "descriptors": descriptors.shape[0],
        "plain_seconds": round(baseline_seconds, 6),
        "observed_seconds": round(observed_seconds, 6),
        "overhead_ratio": round(observed_seconds / max(baseline_seconds, 1e-9), 4),
        "budget_ratio": _OVERHEAD_BUDGET,
        "sketch_buckets": sketch.num_buckets,
    }


def test_incremental_insert_beats_rebuild(benchmark, metrics_registry):
    """30-batch ingest: LshIndex.insert is far cheaper than rebuild-each-batch."""
    rng = rng_for(12, "bench/ingest")
    batches = [
        rng.integers(0, 256, size=(400, 128)).astype(np.float32) for _ in range(30)
    ]

    def rebuild_ingest() -> LshIndex:
        index = LshIndex(seed=7)
        history: list[np.ndarray] = []
        for batch in batches:
            history.append(batch)
            stacked = np.vstack(history)
            index.build(stacked, np.arange(stacked.shape[0]))
        return index

    def incremental_ingest() -> LshIndex:
        index = LshIndex(seed=7)
        offset = 0
        ingest_seconds = metrics_registry.sketch("server_ingest_seconds")
        for batch in batches:
            start = time.perf_counter()
            index.insert(batch, np.arange(offset, offset + batch.shape[0]))
            ingest_seconds.observe(time.perf_counter() - start)
            offset += batch.shape[0]
        return index

    rebuild_seconds = _best_of(rebuild_ingest, repeats=3)
    incremental_seconds = benchmark.pedantic(
        lambda: _best_of(incremental_ingest, repeats=3), rounds=1, iterations=1
    )
    print(
        f"\ningest 30x400 descriptors: rebuild {rebuild_seconds:.3f}s, "
        f"incremental {incremental_seconds:.3f}s "
        f"({rebuild_seconds / max(incremental_seconds, 1e-9):.1f}x)"
    )
    assert incremental_seconds < rebuild_seconds, (
        "incremental insert should beat rebuilding the index per batch"
    )
    # The win is recorded where operators will look for it.
    sketch = metrics_registry.sketch("server_ingest_seconds")
    assert sketch.count == 90  # 3 repeats x 30 batches
    assert sketch.quantile(0.9) < rebuild_seconds