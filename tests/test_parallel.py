"""Tests for ``repro.parallel`` and the parallel/vectorized hot paths.

Covers: parallel_map ordering and fallback semantics, shared-context
delivery, chunk_setup, metrics-registry merge determinism, shard_seeds,
bit-identical parallel workload builds and oracle ingest, and the
vectorized ``lookup_batch`` against the scalar reference walk in
``tests/oracle_reference.py`` (including a hypothesis property over
random descriptors and the ranked-perturbation schedule against its
scalar form).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import VisualPrintConfig
from repro.core.oracle import UniquenessOracle
from repro.evaluation.datasets import build_workload
from repro.lsh.multiprobe import ranked_perturbations
from repro.obs import MetricsRegistry, resolve_registry, use_registry
from repro.parallel import default_workers, get_shared, parallel_map, shard_seeds
from repro.util.rng import rng_for
from tests.oracle_reference import lookup_batch_reference, perturbation_sets


# ---------------------------------------------------------------------------
# Worker bodies must be module-level so the pool can pickle them.
# ---------------------------------------------------------------------------


def _square(value: int) -> int:
    return value * value


def _square_plus_shared(value: int) -> int:
    return value * value + get_shared()


def _record_and_double(value: int) -> int:
    registry = resolve_registry(None)
    registry.counter("items_total").inc()
    registry.sketch("item_value").observe(value)
    return 2 * value


def _add_context(value: int, context: int) -> int:
    return value + context


def _context_from_shared() -> int:
    return get_shared() * 10


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_order_preserved_serial_and_pooled(self):
        items = list(range(23))
        expected = [v * v for v in items]
        assert parallel_map(_square, items, workers=1) == expected
        assert parallel_map(_square, items, workers=3) == expected
        assert parallel_map(_square, items, workers=3, chunk_size=2) == expected

    def test_workers_capped_to_item_count(self):
        assert parallel_map(_square, [3], workers=64) == [9]

    def test_shared_delivered_to_workers(self):
        items = list(range(8))
        expected = [v * v + 5 for v in items]
        assert parallel_map(_square_plus_shared, items, workers=1, shared=5) == expected
        assert parallel_map(_square_plus_shared, items, workers=2, shared=5) == expected

    def test_shared_restored_after_inprocess_run(self):
        parallel_map(_square_plus_shared, [1], workers=1, shared=7)
        assert get_shared() is None

    def test_chunk_setup_context_passed_to_every_call(self):
        result = parallel_map(
            _add_context,
            [1, 2, 3, 4],
            workers=2,
            shared=3,
            chunk_setup=_context_from_shared,
        )
        assert result == [31, 32, 33, 34]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], workers=1, chunk_size=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestRegistryMerge:
    def _run(self, workers: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        with use_registry(registry):
            parallel_map(_record_and_double, list(range(12)), workers=workers)
        return registry

    def test_counters_and_histograms_merge(self):
        registry = self._run(workers=3)
        assert registry.counter("items_total").value == 12
        sketch = registry.sketch("item_value")
        assert sketch.count == 12
        assert sketch.sum == sum(range(12))

    def test_merge_is_identical_across_worker_counts(self):
        serial = self._run(workers=1).state()
        pooled = self._run(workers=4).state()
        assert serial == pooled

    def test_explicit_registry_param(self):
        registry = MetricsRegistry()
        parallel_map(
            _record_and_double, list(range(5)), workers=2, registry=registry
        )
        assert registry.counter("items_total").value == 5


class TestShardSeeds:
    def test_deterministic(self):
        assert shard_seeds(7, "stage", 16) == shard_seeds(7, "stage", 16)

    def test_distinct_across_items_names_and_seeds(self):
        seeds = shard_seeds(7, "stage", 64)
        assert len(set(seeds)) == 64
        assert shard_seeds(7, "other", 64) != seeds
        assert shard_seeds(8, "stage", 64) != seeds

    def test_prefix_stability(self):
        # Item i's seed must not depend on how many items the stage has.
        assert shard_seeds(7, "stage", 32)[:8] == shard_seeds(7, "stage", 8)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            shard_seeds(7, "stage", -1)


_WORKLOAD_PARAMS = dict(
    seed=13,
    num_scenes=3,
    num_distractors=4,
    views_per_scene=2,
    image_size=96,
    cache_dir=None,
)


def _workload_arrays(workload) -> list[np.ndarray]:
    arrays_out: list[np.ndarray] = [
        np.array(workload.database_labels),
        np.array(workload.query_labels),
    ]
    for keypoints in workload.database_keypoints + workload.query_keypoints:
        arrays_out.extend(
            [keypoints.positions, keypoints.scales, keypoints.descriptors]
        )
    return arrays_out


class TestParallelPipelines:
    def test_build_workload_parallel_bit_identical(self):
        serial = build_workload(**_WORKLOAD_PARAMS, workers=1)
        pooled = build_workload(**_WORKLOAD_PARAMS, workers=4)
        for a, b in zip(_workload_arrays(serial), _workload_arrays(pooled)):
            assert np.array_equal(a, b)

    def test_build_workload_parallel_populates_shared_cache(self, tmp_path):
        pooled = build_workload(
            **{**_WORKLOAD_PARAMS, "cache_dir": tmp_path}, workers=2
        )
        # Second call must hit the cache entry the parallel build wrote.
        cached = build_workload(
            **{**_WORKLOAD_PARAMS, "cache_dir": tmp_path}, workers=1
        )
        assert len(list(tmp_path.glob("workload_*.npz"))) == 1
        for a, b in zip(_workload_arrays(pooled), _workload_arrays(cached)):
            assert np.allclose(a, b)

    def test_oracle_parallel_insert_matches_serial(self):
        config = VisualPrintConfig()
        descriptors = (
            rng_for(5, "parallel-insert").normal(0, 30, size=(6000, 128))
        ).astype(np.float32)
        serial = UniquenessOracle(config)
        serial.insert(descriptors, batch_size=1500, workers=1)
        pooled = UniquenessOracle(config)
        pooled.insert(descriptors, batch_size=1500, workers=3)
        assert np.array_equal(serial.counting.counters, pooled.counting.counters)
        assert serial.verification.packed_bytes() == pooled.verification.packed_bytes()
        assert serial.inserted_count == pooled.inserted_count == 6000


# ---------------------------------------------------------------------------
# Vectorized lookup_batch vs the scalar reference walk.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_oracle() -> UniquenessOracle:
    oracle = UniquenessOracle(VisualPrintConfig())
    database = rng_for(21, "lookup-db").normal(0, 30, size=(3000, 128))
    oracle.insert(database.astype(np.float32))
    return oracle


@pytest.fixture(scope="module")
def lookup_queries(trained_oracle) -> np.ndarray:
    rng = rng_for(22, "lookup-queries")
    database = rng_for(21, "lookup-db").normal(0, 30, size=(3000, 128))
    near = database[:60] + rng.normal(0, 5, size=(60, 128))
    far = rng.normal(0, 30, size=(60, 128))
    return np.concatenate([near, far]).astype(np.float32)


class TestVectorizedLookup:
    def test_matches_scalar_reference(self, trained_oracle, lookup_queries):
        vectorized = trained_oracle.lookup_batch(lookup_queries)
        scalar, _ = lookup_batch_reference(trained_oracle, lookup_queries)
        assert vectorized == scalar

    def test_matches_scalar_metrics(self, lookup_queries):
        def trained() -> tuple[UniquenessOracle, MetricsRegistry]:
            registry = MetricsRegistry()
            oracle = UniquenessOracle(VisualPrintConfig(), registry=registry)
            database = rng_for(21, "lookup-db").normal(0, 30, size=(3000, 128))
            oracle.insert(database.astype(np.float32))
            return oracle, registry

        def counters(registry: MetricsRegistry) -> dict:
            return {
                inst["name"]: inst["state"]["value"]
                for inst in registry.state()["instruments"]
                if inst["kind"] == "counter"
            }

        oracle, registry = trained()
        oracle.lookup_batch(lookup_queries)
        reference_oracle, reference_registry = trained()
        before = counters(reference_registry)
        _, increments = lookup_batch_reference(reference_oracle, lookup_queries)
        # The reference reads the oracle and returns its increments.
        assert counters(reference_registry) == before
        expected = dict(before)
        for name, value in increments.items():
            expected[name] += value
        assert counters(registry) == expected

    def test_single_row_lookup_wrapper(self, trained_oracle, lookup_queries):
        row = lookup_queries[0]
        assert trained_oracle.lookup(row) == trained_oracle.lookup_batch(
            row[np.newaxis, :]
        )[0]

    @given(
        arrays(
            dtype=np.float32,
            shape=st.tuples(st.integers(1, 8), st.just(128)),
            elements=st.floats(-200, 200, width=32),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_vectorized_equals_scalar(self, trained_oracle, descriptors):
        assert trained_oracle.lookup_batch(descriptors) == lookup_batch_reference(
            trained_oracle, descriptors
        )[0]

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.just(7)),
            elements=st.floats(0, 1, exclude_max=True),
        ),
        st.integers(0, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_ranked_perturbations_match_scalar_schedule(self, residuals, max_probes):
        projections, deltas = ranked_perturbations(residuals, max_probes)
        for row in range(residuals.shape[0]):
            expected = perturbation_sets(residuals[row], max_probes)
            actual = list(zip(projections[row].tolist(), deltas[row].tolist()))
            assert actual == expected
