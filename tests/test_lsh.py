"""Unit + property tests for E2LSH projections, buckets, multiprobe, index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.lsh import (
    E2LSHParams,
    LshIndex,
    QuantizedBuckets,
    StableProjections,
    perturbation_sets,
)
from repro.lsh.multiprobe import ranked_perturbations
from tests.lsh_reference import (
    candidate_rows_reference,
    inline_probe_schedule,
    query_batch_reference,
)


class TestE2LSHParams:
    def test_paper_defaults(self):
        params = E2LSHParams()
        assert (params.num_tables, params.num_projections) == (10, 7)
        assert params.quantization_width == 500.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            E2LSHParams(num_tables=0)


class TestStableProjections:
    def test_deterministic_from_seed(self, descriptors_1k):
        a = StableProjections(E2LSHParams(), seed=5).quantize(descriptors_1k[:10])
        b = StableProjections(E2LSHParams(), seed=5).quantize(descriptors_1k[:10])
        assert np.array_equal(a, b)

    def test_shapes(self, descriptors_1k):
        projections = StableProjections(E2LSHParams(num_tables=4, num_projections=3))
        buckets = projections.quantize(descriptors_1k[:20])
        assert buckets.shape == (20, 4, 3)

    def test_wrong_dimension_rejected(self):
        projections = StableProjections(E2LSHParams())
        with pytest.raises(ValueError):
            projections.project(np.zeros((3, 64)))

    def test_nearby_descriptors_share_buckets(self, descriptors_1k, rng):
        """The locality property: small perturbations rarely change buckets."""
        projections = StableProjections(E2LSHParams())
        base = descriptors_1k[:100]
        nearby = np.clip(base + rng.normal(0, 2, base.shape), 0, 255)
        buckets_a = projections.quantize(base)
        buckets_b = projections.quantize(nearby)
        same_bucket = (buckets_a == buckets_b).all(axis=2)  # per (n, L)
        assert same_bucket.mean() > 0.5

    def test_distant_descriptors_rarely_collide(self, descriptors_1k):
        projections = StableProjections(E2LSHParams())
        buckets = projections.quantize(descriptors_1k[:200])
        flat = buckets.reshape(200, -1)
        distinct = {tuple(row) for row in flat}
        assert len(distinct) > 190

    def test_residuals_in_unit_interval(self, descriptors_1k):
        projections = StableProjections(E2LSHParams())
        buckets, residuals = projections.quantize_with_residuals(descriptors_1k[:30])
        assert (residuals >= 0).all() and (residuals < 1).all()
        reconstructed = np.floor(
            projections.project(descriptors_1k[:30])
            / projections.params.quantization_width
        )
        assert np.array_equal(buckets, reconstructed.astype(np.int64))


class TestQuantizedBuckets:
    def test_encoding_injective_on_sign(self):
        buckets = QuantizedBuckets(np.array([[[-1, 0, 1]], [[1, 0, -1]]]))
        a = buckets.table_vectors(0)
        assert not np.array_equal(a[0], a[1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QuantizedBuckets(np.full((1, 1, 1), 1 << 21))

    def test_table_keys_collide_for_equal_vectors(self):
        data = np.zeros((2, 2, 3), dtype=np.int64)
        buckets = QuantizedBuckets(data)
        keys = buckets.table_keys(0)
        assert keys[0] == keys[1]

    def test_perturbed_changes_one_coordinate(self):
        data = np.zeros((1, 2, 3), dtype=np.int64)
        buckets = QuantizedBuckets(data)
        original = buckets.table_vectors(1)[0]
        perturbed = buckets.perturbed(1, 2, +1)[0]
        assert perturbed[2] == original[2] + 1
        assert np.array_equal(perturbed[:2], original[:2])


class TestMultiprobe:
    def test_orders_by_boundary_distance(self):
        residuals = np.array([0.05, 0.5, 0.95])
        probes = perturbation_sets(residuals, max_probes=2)
        # Closest boundaries: dim 0 toward -1 (0.05), dim 2 toward +1 (0.05).
        assert set(probes) == {(0, -1), (2, +1)}

    def test_max_probes_respected(self):
        probes = perturbation_sets(np.array([0.1, 0.2]), max_probes=3)
        assert len(probes) == 3

    def test_zero_probes(self):
        assert perturbation_sets(np.array([0.5]), 0) == []

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=20)
    def test_probe_count_bounded(self, m):
        residuals = np.linspace(0.1, 0.9, m)
        assert len(perturbation_sets(residuals, 2 * m + 5)) == 2 * m


class TestLshIndex:
    @pytest.fixture(scope="class")
    def index(self, descriptors_1k):
        idx = LshIndex(E2LSHParams(), seed=1)
        idx.build(descriptors_1k, np.arange(1000))
        return idx

    def test_exact_self_query(self, index, descriptors_1k):
        matches = index.query(descriptors_1k[42], num_neighbors=1)
        assert matches and matches[0].item_id == 42
        assert matches[0].distance == pytest.approx(0.0, abs=1e-5)

    def test_noisy_query_recovers_neighbor(self, index, descriptors_1k, rng):
        hits = 0
        for row in range(50):
            noisy = np.clip(descriptors_1k[row] + rng.normal(0, 2, 128), 0, 255)
            matches = index.query(noisy, num_neighbors=1)
            hits += bool(matches) and matches[0].item_id == row
        assert hits >= 45  # multiprobe keeps recall high

    def test_query_batch_matches_single(self, index, descriptors_1k):
        batch = index.query_batch(descriptors_1k[:5], num_neighbors=2)
        for row, single in enumerate(descriptors_1k[:5]):
            assert [m.item_id for m in index.query(single, 2)] == [
                m.item_id for m in batch[row]
            ]

    def test_memory_exceeds_descriptor_bytes(self, index, descriptors_1k):
        # L-fold bucket replication: the Fig. 15 LSH overhead.
        assert index.memory_bytes() > descriptors_1k.astype(np.float32).nbytes

    def test_empty_index_raises(self, descriptors_1k):
        with pytest.raises(RuntimeError):
            LshIndex().query(descriptors_1k[0])

    def test_mismatched_ids_rejected(self, descriptors_1k):
        with pytest.raises(ValueError):
            LshIndex().build(descriptors_1k, np.arange(5))

    def test_bucket_cap_enforced(self, rng):
        # 500 identical descriptors must not make buckets of size 500.
        duplicated = np.tile(rng.integers(0, 255, 128).astype(np.float32), (500, 1))
        idx = LshIndex(E2LSHParams(num_tables=2), max_bucket_size=32)
        idx.build(duplicated, np.arange(500))
        for table in idx._tables:
            assert all(len(rows) <= 32 for rows in table.values())

    def test_rejected_insert_leaves_index_untouched(self, descriptors_1k):
        untouched = LshIndex(E2LSHParams(), seed=1)
        untouched.insert(descriptors_1k[:500], np.arange(500))
        index = LshIndex(E2LSHParams(), seed=1)
        index.insert(descriptors_1k[:500], np.arange(500))
        with pytest.raises(ValueError, match="2\\^20"):
            index.insert(np.full((1, 128), 1e12, np.float32), np.array([500]))
        assert index.size == untouched.size == 500
        assert index.memory_bytes() == untouched.memory_bytes()
        queries = descriptors_1k[::50]
        assert index.query_batch(queries, 3) == untouched.query_batch(queries, 3)

    def test_payload_ids_returned(self, descriptors_1k):
        idx = LshIndex(E2LSHParams(num_tables=4), seed=2)
        ids = np.arange(1000) * 7  # arbitrary payload ids
        idx.build(descriptors_1k, ids)
        matches = idx.query(descriptors_1k[10])
        assert matches[0].item_id == 70


class TestSharedProbeSchedule:
    """The index probes with the oracle's schedule, not a private copy."""

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_inline_schedule_for_untied_residuals(self, n, m, probes, seed):
        residuals = np.random.default_rng(seed).random((n, m))
        boundary = np.concatenate([residuals, 1.0 - residuals], axis=1)
        # Untied: no two boundary distances of one row coincide.
        assume(all(np.unique(row).size == row.size for row in boundary))
        shared = ranked_perturbations(residuals, probes)
        inline = inline_probe_schedule(residuals, probes)
        assert np.array_equal(shared[0], inline[0])
        assert np.array_equal(shared[1], inline[1])


def _exact_ranking(index: LshIndex, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference candidates and their exact float64 distances, by (distance, row)."""
    rows = candidate_rows_reference(index, query[None])[0]
    deltas = index._store[rows].astype(np.float64) - query.astype(np.float64)
    distances = np.sqrt((deltas**2).sum(axis=1))
    order = np.lexsort((rows, distances))
    return rows[order], distances[order]


def _assert_parity(index: LshIndex, queries: np.ndarray, k: int) -> None:
    """Fast path vs the test-only reference, row by row.

    Distances are bit-identical; ``item_id``s agree except where the
    reference's unstable argsort broke an exact-distance tie; and the
    fast path returns exactly the first k candidates by (distance, row).
    """
    queries = np.asarray(queries, dtype=np.float32)
    fast = index.query_batch(queries, num_neighbors=k)
    reference = query_batch_reference(index, queries, num_neighbors=k)
    row_of = {int(item): row for row, item in enumerate(index._ids_store[: index.size])}
    for query, got, want in zip(queries, fast, reference):
        rows, distances = _exact_ranking(index, query)
        assert [m.distance for m in got] == [m.distance for m in want]
        assert [m.distance for m in got] == distances[:k].tolist()
        for g, w in zip(got, want):
            if g.item_id != w.item_id:
                assert np.count_nonzero(distances == g.distance) > 1
        assert [row_of[m.item_id] for m in got] == rows[:k].tolist()


@st.composite
def _tables(draw):
    """Random small tables: integer- or float-valued, with duplicate rows."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    size = draw(st.integers(min_value=1, max_value=300))
    if draw(st.booleans()):
        table = rng.integers(0, 256, (size, 128)).astype(np.float32)
    else:
        table = rng.normal(120.0, 40.0, (size, 128)).astype(np.float32)
    duplicates = draw(st.integers(min_value=0, max_value=size))
    if duplicates:
        table[rng.integers(0, size, duplicates)] = table[rng.integers(0, size, duplicates)]
    queries = np.concatenate(
        [
            table[rng.integers(0, size, 6)],
            table[rng.integers(0, size, 6)] + rng.normal(0.0, 3.0, (6, 128)),
            rng.integers(0, 256, (4, 128)),
        ]
    ).astype(np.float32)
    return table, queries, seed


class TestQueryParity:
    @given(
        _tables(),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, data, k, num_tables):
        table, queries, seed = data
        # Wide cells give many candidates per query, so the filter has
        # work to do and exact ties among duplicate rows are common.
        params = E2LSHParams(num_tables=num_tables, num_projections=2, quantization_width=2500.0)
        index = LshIndex(params, seed=seed % 1000)
        index.build(table, np.arange(table.shape[0]) * 7 + 3)
        _assert_parity(index, queries, k)

    @pytest.mark.parametrize("zero", [False, True])
    def test_duplicate_rows_resolve_to_lowest_row(self, rng, zero):
        # All-zero rows and query make every filter bound exactly 0.
        row = np.zeros(128, np.float32) if zero else rng.integers(0, 256, 128).astype(np.float32)
        table = np.tile(row, (6, 1))
        index = LshIndex(E2LSHParams(num_tables=2))
        index.build(table, np.arange(6) * 10)
        matches = index.query(row, num_neighbors=3)
        assert [m.item_id for m in matches] == [0, 10, 20]
        assert all(m.distance == 0.0 for m in matches)

    def test_query_without_candidates(self, descriptors_1k):
        index = LshIndex(E2LSHParams(num_tables=2), seed=4)
        index.build(descriptors_1k[:50], np.arange(50))
        far = np.full((1, 128), -5000.0, dtype=np.float32)
        assert candidate_rows_reference(index, far)[0].size == 0
        assert index.query_batch(far, num_neighbors=2) == [[]]
        assert index.query(far[0]) == []

    def test_k_larger_than_candidates(self, rng):
        table = rng.integers(0, 256, (5, 128)).astype(np.float32)
        wide = E2LSHParams(num_tables=2, quantization_width=1e6)  # one bucket
        index = LshIndex(wide)
        index.build(table, np.arange(5))
        matches = index.query(table[2], num_neighbors=50)
        assert len(matches) == 5
        assert matches[0].item_id == 2
        _assert_parity(index, table, 50)

    def test_overflowing_descriptors_fall_through_to_exact(self, rng):
        # Around 1e20 the float32 dot products overflow (|d|·|q| ~ 1e42),
        # so every filter bound is non-finite and the exact path ranks.
        table = (rng.random((40, 128)) * 1e20 + 1e20).astype(np.float32)
        with np.errstate(over="ignore"):
            assert not np.isfinite(table[:2] @ table[0]).all()
        wide = E2LSHParams(num_tables=2, quantization_width=1e24)
        index = LshIndex(wide)
        index.build(table, np.arange(40))
        queries = table[:5] * np.float32(1.0 + 1e-3)
        _assert_parity(index, queries, 3)
        assert index.query(table[7], num_neighbors=1)[0].item_id == 7

    def test_partial_overflow_keeps_the_row_for_exact_refine(self):
        # Row 0's float32 dot with the query overflows to +inf, so its
        # filter estimate reads -inf although it is the farther row; the
        # bound must treat it as unknown, not as nearest.
        query = np.zeros(128, np.float32)
        query[0] = 1e20
        far = np.full(128, 5e19, np.float32)
        far[0] = 1e20
        near = np.zeros(128, np.float32)
        near[1] = 1e19
        index = LshIndex(E2LSHParams(num_tables=2, quantization_width=1e24))
        index.build(np.stack([far, near]), np.array([10, 20]))
        assert index.query(query, num_neighbors=1)[0].item_id == 20
        _assert_parity(index, query[None], 1)

    def test_batched_inserts_equal_build(self, descriptors_1k):
        # 1,200 rows in batches of 130 outgrow the 1,024-row first capacity.
        table = np.vstack([descriptors_1k, descriptors_1k[:200] + 1.0])
        built = LshIndex(seed=6)
        built.build(table, np.arange(1200))
        grown = LshIndex(seed=6)
        for start in range(0, 1200, 130):
            chunk = table[start : start + 130]
            grown.insert(chunk, np.arange(start, start + chunk.shape[0]))
        assert np.array_equal(grown._norms_store[:1200], built._norms_store[:1200])
        queries = table[::37]
        assert grown.query_batch(queries, 3) == built.query_batch(queries, 3)

    def test_memory_bytes_counts_norms(self, descriptors_1k):
        index = LshIndex(seed=6)
        index.build(descriptors_1k[:300], np.arange(300))
        tables = sum(
            len(table) * 16 + sum(rows.nbytes for rows in table.values())
            for table in index._tables
        )
        # float32 descriptor + int64 id + float64 squared norm per row.
        assert index.memory_bytes() == tables + 300 * (128 * 4 + 8 + 8)
