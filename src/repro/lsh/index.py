"""Multi-table LSH index for Euclidean nearest-neighbor lookup.

This is the server-side "large-scale image-based content retrieval table"
of the paper.  The index is the one holder of its descriptor rows, and a
row's number (its insertion order) is its payload id: in VisualPrint,
the row of the keypoint-to-3D-position table.  A query
collects candidates from every table's bucket plus its multiprobe
neighbours (the oracle's schedule, :mod:`repro.lsh.multiprobe`), then
re-ranks them by exact Euclidean distance — so hash-key collisions never
produce wrong matches, only extra work.

Every table is three flat arrays in CSR form: sorted unique 64-bit
bucket keys, offsets, and the stored rows of each bucket in insertion
order.  Inserts merge a sorted batch in; queries resolve all probe keys
with ``searchsorted`` and work on flat ``(query, row)`` pairs, so no
Python runs per bucket or per candidate.

The rows are kept as uint8 while every stored entry is one of
0, 1, ..., 255 (SIFT descriptors off the wire are), and as float32
otherwise; the first batch that is not byte-valued widens the store
once, and it never narrows back.  Either way the stored value is the
exact row.

The re-rank is filter-and-refine.  A float32 dot product per pair, one
mat-vec over each query's candidate rows, estimates each candidate's
squared distance, ``‖d‖² − 2·d·q + ‖q‖²``,
from a stored float64 ``‖d‖²`` per row, within a proven rounding bound;
only pairs that can still be among their query's k nearest (about k
per query) get the exact float64 distance.  Distances are bit-identical
to ranking every candidate exactly, and exact ties go to the lowest
stored row.  A batch query answers with three aligned flat arrays,
``(query_rows, rows, distances)``.

The index deliberately stores descriptors once but bucket references L
times; :meth:`LshIndex.memory_bytes` reports that replication, which is
what makes conventional LSH "an extremely large memory footprint, much
larger than the input data" in Fig. 15.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.lsh.buckets import QuantizedBuckets, bucket_keys
from repro.lsh.multiprobe import ranked_perturbations
from repro.lsh.projections import E2LSHParams, StableProjections
from repro.util.validation import check_positive

__all__ = ["LshIndex"]

# Unit roundoff of float32: Higham's gamma_D = D·u / (1 − D·u) bounds the
# error of a length-D float32 dot product relative to Σ|d_i·q_i|.
_F32_UNIT = 2.0**-24
# Relative margin for float64 rounding in the norms, the filter
# arithmetic and the exact refine (each about 1e-14 relative).
_F64_SLACK = 1e-9
# Bit pattern of float32 255.0.  Non-negative float32 values order like
# their bit patterns, and every negative value (-0.0 too) and every NaN
# has a larger pattern than 255.0.
_BYTE_MAX_BITS = np.float32(255.0).view(np.uint32)


class _Table(NamedTuple):
    """One LSH table in CSR form."""

    keys: np.ndarray  # (B,) uint64 bucket keys, sorted, unique
    offsets: np.ndarray  # (B + 1,) int64: bucket b is rows[offsets[b]:offsets[b + 1]]
    rows: np.ndarray  # (R,) int32 stored rows, by bucket, then insertion order


def _empty_table() -> _Table:
    return _Table(
        np.empty(0, np.uint64), np.zeros(1, np.int64), np.empty(0, np.int32)
    )


def _merge(table: _Table, keys: np.ndarray, first_row: int, cap: int) -> _Table:
    """``table`` with rows ``first_row + i`` added under ``keys[i]``.

    One stable sort groups the batch by key in insertion order; ranks
    within each group cap every bucket at ``cap`` rows, counting the
    rows it already holds, so the first-inserted rows stay.  Batch keys
    are placed among the stored ones by ``searchsorted`` and everything
    lands in new arrays in one pass: stored entries are copied, never
    re-sorted.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts_group = np.empty(keys.size, dtype=bool)
    starts_group[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts_group[1:])
    group = np.cumsum(starts_group) - 1
    batch_keys = sorted_keys[starts_group]
    rank = np.arange(keys.size) - np.flatnonzero(starts_group)[group]

    stored = table.keys.size
    stored_counts = np.diff(table.offsets)
    pos = np.searchsorted(table.keys, batch_keys)
    known = pos < stored
    known[known] = table.keys[pos[known]] == batch_keys[known]
    held = np.zeros(batch_keys.size, dtype=np.int64)
    held[known] = stored_counts[pos[known]]
    keep = rank < (cap - held)[group]

    # Merged bucket slots: a stored key moves up by the new keys placed
    # before it; the q-th new key lands at its insertion point plus q.
    fresh = ~known
    num_fresh = np.count_nonzero(fresh)
    shift = np.cumsum(np.bincount(pos[fresh], minlength=stored + 1))
    stored_slot = np.arange(stored) + shift[:-1]
    batch_slot = np.empty(batch_keys.size, dtype=np.int64)
    batch_slot[known] = pos[known] + shift[pos[known]]
    batch_slot[fresh] = pos[fresh] + np.arange(num_fresh)

    merged_keys = np.empty(stored + num_fresh, dtype=np.uint64)
    merged_keys[stored_slot] = table.keys
    merged_keys[batch_slot[fresh]] = batch_keys[fresh]
    counts = np.zeros(merged_keys.size, dtype=np.int64)
    counts[stored_slot] = stored_counts
    counts[batch_slot] += np.bincount(group[keep], minlength=batch_keys.size)
    offsets = np.zeros(merged_keys.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    kept_group = group[keep]
    destination = offsets[batch_slot[kept_group]] + held[kept_group] + rank[keep]
    rows = np.empty(int(offsets[-1]), dtype=np.int32)
    added = np.zeros(rows.size, dtype=bool)
    added[destination] = True
    rows[destination] = order[keep] + first_row
    rows[~added] = table.rows
    return _Table(merged_keys, offsets, rows)


def _byte_valued(rows: np.ndarray) -> bool:
    """Whether every entry of float32 ``rows`` is one of 0.0, 1.0, ..., 255.0.

    Those are the values uint8 holds exactly; -0.0 is not among them, so
    a byte-valued row cast back to float32 has the bytes it came in with.
    """
    if rows.view(np.uint32).max() > _BYTE_MAX_BITS:
        return False
    return bool(np.array_equal(rows.astype(np.uint8), rows))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over the pairs, without a loop."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(int(counts.sum()))


def _kth_smallest(
    groups: np.ndarray, values: np.ndarray, num_groups: int, k: int
) -> np.ndarray:
    """Upper bound on each group's k-th smallest value, ``inf`` if it has <= k.

    ``groups`` is sorted.  Each ``|value|`` (NaN as ``inf``) is cast to
    float32 and its bit pattern, which orders like a non-negative float,
    packs under the group number into one int64, so one sort ranks every
    group at once.  Adding one to the pattern steps to the next float32
    up, so rounding never takes the bound below the value; an ``inf``
    steps to a NaN, which, as a bound, keeps everything.
    """
    magnitude = np.nan_to_num(np.abs(values), nan=np.inf, posinf=np.inf)
    with np.errstate(over="ignore"):  # beyond float32 range is inf
        bits = magnitude.astype(np.float32).view(np.uint32)
    packed = (groups << 32) | bits
    packed += 1
    packed.sort()
    first = np.searchsorted(groups, np.arange(num_groups + 1))
    full = np.flatnonzero(np.diff(first) > k)
    kth = np.full(num_groups, np.inf)
    picked = (packed[first[full] + k - 1] & 0xFFFFFFFF).astype(np.uint32)
    kth[full] = picked.view(np.float32)
    return kth


class LshIndex:
    """E2LSH index over 128-D descriptors; a row's number is its payload id."""

    def __init__(
        self,
        params: E2LSHParams | None = None,
        seed: int = 0,
        max_probes_per_table: int = 2,
        max_bucket_size: int = 512,
    ) -> None:
        if max_probes_per_table < 0:
            raise ValueError("max_probes_per_table must be non-negative")
        if max_bucket_size < 1:
            raise ValueError("max_bucket_size must be >= 1")
        self.params = params or E2LSHParams()
        self.projections = StableProjections(self.params, seed=seed)
        self.max_probes_per_table = int(max_probes_per_table)
        # Overfull buckets hold near-duplicate content (e.g. a wallpaper
        # pattern repeated across a building); capping them bounds query
        # cost, as production E2LSH deployments do.  Dropped entries are
        # precisely the ones the ratio test would reject anyway.
        self.max_bucket_size = int(max_bucket_size)
        self._tables = [_empty_table() for _ in range(self.params.num_tables)]
        # Amortized-growth row storage: descriptors live in a
        # capacity-doubling array so :meth:`insert` appends in O(batch)
        # instead of re-copying (and re-hashing) all history per batch.
        # The rows are uint8 while every one is byte-valued, else
        # float32.  Each row's squared norm ‖d‖² (float64) feeds the
        # query filter.
        self._store: np.ndarray | None = None
        self._norms_store: np.ndarray | None = None
        self._size = 0

    @property
    def size(self) -> int:
        """Number of indexed descriptors."""
        return self._size

    @property
    def descriptors(self) -> np.ndarray:
        """The stored rows, ``(size, D)``, as a read-only view of the row store.

        Its dtype is the store's: uint8 while every row is byte-valued,
        float32 otherwise (and for an empty index).
        """
        if self._store is None:
            return np.empty((0, self.params.dimension), dtype=np.float32)
        rows = self._store[: self._size]
        rows.flags.writeable = False
        return rows

    def build(self, descriptors: np.ndarray) -> None:
        """(Re)build the index over ``descriptors``; row ``i`` gets payload id ``i``."""
        self._tables = [_empty_table() for _ in range(self.params.num_tables)]
        self._store = None
        self._norms_store = None
        self._size = 0
        self.insert(descriptors)

    def _grow_storage(self, extra_rows: int, dtype: type) -> None:
        """Room for ``extra_rows`` more rows in a ``dtype`` row store.

        A full store doubles; a uint8 store asked for float32 rows is
        widened, in the same copy when it also has to grow.  Callers ask
        a float32 store only for float32, so it never narrows.
        """
        needed = self._size + extra_rows
        dimension = self.params.dimension
        if self._store is None:
            capacity = max(needed, 1024)
            self._store = np.empty((capacity, dimension), dtype=dtype)
            self._norms_store = np.empty(capacity, dtype=np.float64)
            return
        capacity = self._store.shape[0]
        grow = needed > capacity
        if grow:
            capacity = max(needed, 2 * capacity)
        if grow or dtype != self._store.dtype:
            grown = np.empty((capacity, dimension), dtype=dtype)
            grown[: self._size] = self._store[: self._size]
            self._store = grown
        if grow:
            grown_norms = np.empty(capacity, dtype=np.float64)
            grown_norms[: self._size] = self._norms_store[: self._size]
            self._norms_store = grown_norms

    def insert(self, descriptors: np.ndarray) -> None:
        """Append descriptors as the next rows — only the new batch is hashed.

        Row numbers continue from :attr:`size`.  This is the
        "incorporated continuously, in constant time and memory" ingest
        path of the paper: the batch costs O(batch · L) hashing plus a
        sort of the batch per table, and its merge copies each table's
        arrays once (O(stored), no re-sort, no re-hash).
        Bucket capping keeps first-inserted rows, so any split into
        batches gives the tables of one :meth:`build` over all rows.
        A rejected batch leaves the index as it was: the range check
        runs before the row store changes dtype or capacity, and the
        batch's rows land in spare capacity past ``size``.
        """
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        if descriptors.shape[0]:
            self._append(descriptors, self.projections.check_range(descriptors))

    def _append(self, descriptors: np.ndarray, norms: np.ndarray) -> None:
        """Store a float32 batch that passed ``projections.check_range``.

        ``norms`` is the check's return value.  Besides :meth:`insert`,
        :meth:`repro.core.VisualPrintServer.ingest` calls this: it runs
        the check itself before the oracle counts the batch.
        """
        num_new = descriptors.shape[0]
        if num_new == 0:
            return
        dtype = np.float32
        if self._store is None or self._store.dtype == np.uint8:
            dtype = np.uint8 if _byte_valued(descriptors) else np.float32
        start_row = self._size
        self._grow_storage(num_new, dtype)
        self._store[start_row : start_row + num_new] = descriptors
        self._norms_store[start_row : start_row + num_new] = norms
        quantized = QuantizedBuckets(self.projections.quantize(descriptors))
        for index, table in enumerate(self._tables):
            keys = quantized.table_keys(index)
            self._tables[index] = _merge(table, keys, start_row, self.max_bucket_size)
        self._size += num_new

    def query_batch(
        self, descriptors: np.ndarray, num_neighbors: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Approximate nearest neighbors of many descriptors, as flat arrays.

        Returns aligned ``(query_rows, rows, distances)``: int64 query
        row, int64 stored row (the payload id) and float64 exact
        distance per match, ordered by query, then distance, ties
        broken toward the lowest stored row.  A query has at most
        ``num_neighbors`` matches; it has fewer (or none) when the
        probed buckets hold fewer candidates — the defining failure mode
        E2LSH trades for speed.
        """
        check_positive("num_neighbors", num_neighbors)
        if self._size == 0:
            raise RuntimeError("index is empty; call build() first")
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        queries, rows = self._candidates(descriptors)
        # float32 overflow (descriptors near 1e20) is expected in the
        # filter: it yields non-finite bounds, which keep the pair.
        with np.errstate(over="ignore", invalid="ignore"):
            queries, rows = self._shortlist(descriptors, queries, rows, num_neighbors)
            return self._refine(descriptors, queries, rows, num_neighbors)

    def _candidates(self, descriptors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ``(query, row)`` candidate pairs, sorted by query, then row.

        One Murmur pass keys the ``L * n * (P + 1)`` probe vectors (each
        query's bucket in each table plus its ``P`` multiprobe
        perturbations), each under its table's seeds; per table, one
        ``searchsorted`` finds their buckets.  The pairs of all tables
        are packed as ``query << 32 | row`` and deduplicated by one sort
        and an adjacent compare.
        """
        buckets, residuals = self.projections.quantize_with_residuals(descriptors)
        quantized = QuantizedBuckets(buckets)
        n, num_tables, num_projections = buckets.shape
        projections, deltas = (
            schedule.reshape(n, num_tables, schedule.shape[1])
            for schedule in ranked_perturbations(
                residuals.reshape(-1, num_projections), self.max_probes_per_table
            )
        )
        probes = np.stack(
            [
                quantized.probe_vectors(index, projections[:, index], deltas[:, index])
                for index in range(num_tables)
            ]
        )  # (L, n, P + 1, M)
        probes_per_query = probes.shape[2]
        tables = np.repeat(np.arange(num_tables), n * probes_per_query)
        keys = bucket_keys(probes.reshape(-1, num_projections), tables)
        keys = keys.reshape(num_tables, -1)
        packed = []
        for table, table_keys in zip(self._tables, keys):
            slot = np.searchsorted(table.keys, table_keys)
            slot = np.minimum(slot, table.keys.size - 1)
            hit = np.flatnonzero(table.keys[slot] == table_keys)
            starts = table.offsets[slot[hit]]
            counts = table.offsets[slot[hit] + 1] - starts
            queries = np.repeat(hit // probes_per_query, counts)
            packed.append((queries << 32) | table.rows[_ranges(starts, counts)])
        pairs = np.concatenate(packed)
        pairs.sort()
        distinct = np.empty(pairs.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(pairs[1:], pairs[:-1], out=distinct[1:])
        pairs = pairs[distinct]
        return pairs >> 32, pairs & 0xFFFFFFFF

    def _shortlist(
        self,
        descriptors: np.ndarray,
        queries: np.ndarray,
        rows: np.ndarray,
        num_neighbors: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pairs whose row can still be among its query's ``num_neighbors`` nearest.

        ``‖d‖² − 2·fl32(d·q) + ‖q‖²`` estimates each squared distance
        within ``slack``: Higham's bound ``γ_D·‖d‖·‖q‖`` on a float32 dot
        product (any summation order), doubled, plus a relative margin
        for float64 rounding.  The pairs are sorted by query, so each
        query's dot products are one float32 mat-vec over its own
        contiguous slice of candidate rows (uint8 rows cast exactly); the
        loop runs once per query row with candidates, a few hundred at
        most per fingerprint.  A row whose lower bound exceeds its
        query's k-th smallest upper bound is strictly farther than k
        other rows in exact arithmetic, so dropping it cannot change the
        answer.  NaN bounds compare false and keep the row for the exact
        refine; a query with at most k candidates keeps them all.
        """
        dimension = descriptors.shape[1]
        gamma = dimension * _F32_UNIT / (1.0 - dimension * _F32_UNIT)
        query_norms = np.einsum("ij,ij->i", descriptors, descriptors, dtype=np.float64)
        norms = self._norms_store[rows]
        query_norm = query_norms[queries]
        dots = np.empty(rows.size)
        bounds = np.searchsorted(queries, np.arange(descriptors.shape[0] + 1))
        for query in np.flatnonzero(np.diff(bounds)):
            pairs = slice(bounds[query], bounds[query + 1])
            candidates = np.take(self._store, rows[pairs], axis=0)
            dots[pairs] = candidates.astype(np.float32, copy=False) @ descriptors[query]
        approx = norms - 2.0 * dots + query_norm
        approx[~np.isfinite(approx)] = np.nan
        slack = 2.0 * gamma * np.sqrt(norms * query_norm) + _F64_SLACK * (
            norms + query_norm
        )
        kth = _kth_smallest(queries, approx + slack, descriptors.shape[0], num_neighbors)
        keep = ~(approx - slack > kth[queries])
        return queries[keep], rows[keep]

    def _refine(
        self,
        descriptors: np.ndarray,
        queries: np.ndarray,
        rows: np.ndarray,
        num_neighbors: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact float64 distances; each query's first k by (distance, row)."""
        deltas = self._store[rows].astype(np.float64) - descriptors[queries].astype(
            np.float64
        )
        distances = np.sqrt((deltas**2).sum(axis=1))
        order = np.lexsort((rows, distances, queries))
        queries, rows, distances = queries[order], rows[order], distances[order]
        first = np.searchsorted(queries, np.arange(descriptors.shape[0]))
        keep = np.arange(queries.size) - first[queries] < num_neighbors
        return queries[keep], rows[keep], distances[keep]

    def memory_bytes(self) -> int:
        """In-memory footprint: rows (descriptor, norm) + L-fold bucket tables."""
        total = sum(array.nbytes for table in self._tables for array in table)
        if self._store is not None:
            for column in (self._store, self._norms_store):
                total += column[: self._size].nbytes
        return total
