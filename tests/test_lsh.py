"""Unit + property tests for E2LSH projections, buckets, multiprobe, index."""

from __future__ import annotations

import tracemalloc

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
from repro.lsh.buckets import bucket_keys
from repro.lsh.index import _kth_smallest
from repro.lsh.multiprobe import ranked_perturbations
from tests.lsh_reference import (
    candidate_rows_reference,
    inline_probe_schedule,
    project_reference,
    query_batch_reference,
    tables_reference,
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

    def test_buckets_match_einsum_reference(self, descriptors_1k):
        projections = StableProjections(E2LSHParams(), seed=3)
        projected = projections.project(descriptors_1k)
        reference = project_reference(projections, descriptors_1k)
        assert np.abs(projected - reference).max() < 1e-9
        width = projections.params.quantization_width
        assert np.array_equal(
            projections.quantize(descriptors_1k),
            np.floor(reference / width).astype(np.int64),
        )

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_projection_independent_of_batch(self, size, seed, integral):
        rng = np.random.default_rng(seed)
        batch = rng.normal(120.0, 40.0, (size, 128)).astype(np.float32)
        if integral:
            batch = np.rint(batch)
        projections = StableProjections(E2LSHParams(), seed=seed % 97)
        whole = projections.project(batch)
        for row in {0, size // 2, size - 1}:
            assert np.array_equal(whole[row], projections.project(batch[row : row + 1])[0])

    def test_large_batch_rows_equal_single_rows(self, rng):
        # Large enough for a multi-threaded BLAS to split the product.
        batch = rng.integers(0, 256, (5000, 128)).astype(np.float32)
        projections = StableProjections(E2LSHParams(), seed=1)
        whole = projections.project(batch)
        for row in range(0, 5000, 611):
            assert np.array_equal(whole[row], projections.project(batch[row])[0])


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

    def test_keys_with_per_vector_tables(self):
        vectors = np.random.default_rng(0).integers(0, 2**21, (12, 7)).astype(np.uint32)
        tables = np.arange(12) % 3
        mixed = bucket_keys(vectors, tables)
        for table in range(3):
            alone = bucket_keys(vectors[tables == table], table)
            assert np.array_equal(mixed[tables == table], alone)

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
            # One bucket holding the first 32 rows.
            assert table.keys.size == 1
            assert table.offsets.tolist() == [0, 32]
            assert table.rows.tolist() == list(range(32))

    def test_rejected_insert_leaves_index_untouched(self, descriptors_1k):
        untouched = LshIndex(E2LSHParams(), seed=1)
        untouched.insert(descriptors_1k[:500], np.arange(500))
        index = LshIndex(E2LSHParams(), seed=1)
        index.insert(descriptors_1k[:500], np.arange(500))
        with pytest.raises(ValueError, match="2\\^20"):
            index.insert(np.full((1, 128), 1e12, np.float32), np.array([500]))
        assert index.size == untouched.size == 500
        assert index.memory_bytes() == untouched.memory_bytes()
        for got, want in zip(index._tables, untouched._tables):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        queries = descriptors_1k[::50]
        assert index.query_batch(queries, 3) == untouched.query_batch(queries, 3)

    # Casting a non-finite projection to int64 warns before the range
    # check rejects it.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_rejected_untouched(self, descriptors_1k, value):
        index = LshIndex(E2LSHParams(), seed=1)
        index.insert(descriptors_1k[:500], np.arange(500))
        memory = index.memory_bytes()
        queries = descriptors_1k[::50]
        before = index.query_batch(queries, 3)
        with pytest.raises(ValueError):
            index.insert(np.full((1, 128), value, np.float32), np.array([500]))
        assert index.size == 500
        assert index.memory_bytes() == memory
        assert index.query_batch(queries, 3) == before

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


def _exact_ranking(
    index: LshIndex, query: np.ndarray, tables: list[dict[int, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Reference candidates and their exact float64 distances, by (distance, row)."""
    rows = candidate_rows_reference(index, query[None], tables)[0]
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
    tables = tables_reference(index)
    for query, got, want in zip(queries, fast, reference):
        rows, distances = _exact_ranking(index, query, tables)
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
        assert index.query_batch(np.empty((0, 128), np.float32), num_neighbors=2) == []

    def test_kth_bound_never_below_the_kth_value(self):
        values = np.array([-0.0, -0.0, 5.0, 6.0, np.nan, 1.0, -3.0, 2.0, 1e300, 7.5])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 3])
        kth = _kth_smallest(groups, values, 5, 3)
        # Group 0's third smallest is 5.0 (the -0.0 rows sort first), bounded
        # by the next float32 up; group 1 (NaN largest) has 2.0, bounded by
        # |-3.0|'s successor; groups with <= 3 values (or none) keep all.
        assert kth[0] == np.nextafter(np.float32(5.0), np.float32(np.inf))
        assert 2.0 <= kth[1] <= np.nextafter(np.float32(3.0), np.float32(np.inf))
        assert np.isinf(kth[2:]).all()
        inexact = _kth_smallest(np.zeros(2, np.int64), np.array([0.1, 0.2]), 1, 1)
        assert 0.1 <= inexact[0] <= 0.1 * (1 + 2**-22)

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
        buckets = sum(table.keys.size for table in index._tables)
        # uint64 key + int64 offset per bucket (plus one closing offset
        # per table), int32 row per bucket entry; float32 descriptor,
        # int64 id and float64 squared norm per stored row.
        tables = buckets * 16 + index.params.num_tables * (8 + 300 * 4)
        assert index.memory_bytes() == tables + 300 * (128 * 4 + 8 + 8)


def _table_dict(table) -> dict[int, list[int]]:
    """A CSR table as ``{key: rows}``."""
    bounds = table.offsets.tolist()
    return {
        key: table.rows[start:end].tolist()
        for key, start, end in zip(table.keys.tolist(), bounds[:-1], bounds[1:])
    }


class TestCsrTables:
    def test_layout_matches_reference_tables(self, descriptors_1k):
        table = np.vstack([descriptors_1k, descriptors_1k[:300]])  # full buckets
        index = LshIndex(E2LSHParams(), seed=2, max_bucket_size=2)
        index.build(table, np.arange(1300))
        for got, want in zip(index._tables, tables_reference(index)):
            assert np.all(np.diff(got.keys.astype(np.float64)) > 0)
            assert got.offsets[0] == 0 and got.offsets[-1] == got.rows.size
            assert got.keys.dtype == np.uint64 and got.rows.dtype == np.int32
            assert _table_dict(got) == {key: rows.tolist() for key, rows in want.items()}

    @given(
        st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_insert_split_equals_one_build(self, splits, cap, seed):
        rng = np.random.default_rng(seed)
        # Few distinct rows in wide cells: buckets overflow the cap, and
        # 1,100+ rows outgrow the 1,024-row first capacity.
        distinct = rng.integers(0, 256, (40, 128)).astype(np.float32)
        table = distinct[rng.integers(0, 40, 1100 + sum(splits))]
        params = E2LSHParams(num_tables=3, num_projections=2, quantization_width=1500.0)
        built = LshIndex(params, seed=seed % 1000, max_bucket_size=cap)
        built.build(table, np.arange(table.shape[0]))
        grown = LshIndex(params, seed=seed % 1000, max_bucket_size=cap)
        bounds = np.cumsum([0, *splits, 1100]).tolist()
        for start, end in zip(bounds[:-1], bounds[1:]):
            grown.insert(table[start:end], np.arange(start, end))
        assert grown.size == built.size == table.shape[0]
        for got, want in zip(grown._tables, built._tables):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert np.diff(got.offsets).max() <= cap

    def test_memory_bytes_tracks_allocations(self, rng):
        table = rng.integers(0, 256, (12_500, 128)).astype(np.float32)
        ids = np.arange(12_500)
        index = LshIndex(seed=3)
        tracemalloc.start()
        try:
            index.build(table, ids)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(index.memory_bytes() - held) <= 0.05 * held
