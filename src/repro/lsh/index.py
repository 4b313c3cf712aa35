"""Multi-table LSH index for Euclidean nearest-neighbor lookup.

This is the server-side "large-scale image-based content retrieval table"
of the paper: each indexed descriptor carries an opaque payload id (in
VisualPrint, a row into the keypoint-to-3D-position table).  A query
collects candidates from every table's bucket plus its multiprobe
neighbours (the oracle's schedule, :mod:`repro.lsh.multiprobe`), then
re-ranks them by exact Euclidean distance — so hash-key collisions never
produce wrong matches, only extra work.

The re-rank is filter-and-refine.  A float32 matrix-vector product
estimates every candidate's squared distance, ``‖d‖² − 2·d·q + ‖q‖²``,
from a stored float64 ``‖d‖²`` per row, within a proven rounding bound;
only rows that can still be among the k nearest (about k per query)
get the exact float64 distance.  Distances are bit-identical to ranking
every candidate exactly, and exact ties go to the lowest stored row.

The index deliberately stores descriptors once but bucket references L
times; :meth:`LshIndex.memory_bytes` reports that replication, which is
what makes conventional LSH "an extremely large memory footprint, much
larger than the input data" in Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lsh.buckets import QuantizedBuckets, bucket_keys
from repro.lsh.multiprobe import ranked_perturbations
from repro.lsh.projections import E2LSHParams, StableProjections
from repro.util.validation import check_positive

__all__ = ["LshIndex", "LshMatch"]

# Unit roundoff of float32: Higham's gamma_D = D·u / (1 − D·u) bounds the
# error of a length-D float32 dot product relative to Σ|d_i·q_i|.
_F32_UNIT = 2.0**-24
# Relative margin for float64 rounding in the norms, the filter
# arithmetic and the exact refine (each about 1e-14 relative).
_F64_SLACK = 1e-9


@dataclass(frozen=True)
class LshMatch:
    """One nearest-neighbor candidate returned by the index."""

    item_id: int
    distance: float


class LshIndex:
    """E2LSH index over 128-D descriptors with integer payload ids."""

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
        self._tables: list[dict[int, np.ndarray]] = [
            {} for _ in range(self.params.num_tables)
        ]
        # Amortized-growth row storage: descriptors/ids live in
        # capacity-doubling arrays so :meth:`insert` appends in O(batch)
        # instead of re-copying (and re-hashing) all history per batch.
        # Each row's squared norm ‖d‖² (float64) feeds the query filter.
        self._store: np.ndarray | None = None
        self._ids_store: np.ndarray | None = None
        self._norms_store: np.ndarray | None = None
        self._size = 0

    @property
    def size(self) -> int:
        """Number of indexed descriptors."""
        return self._size

    def build(self, descriptors: np.ndarray, item_ids: np.ndarray) -> None:
        """(Re)build the index over ``descriptors`` with per-row payload ids."""
        self._tables = [{} for _ in range(self.params.num_tables)]
        self._store = None
        self._ids_store = None
        self._norms_store = None
        self._size = 0
        self.insert(descriptors, item_ids)

    def _grow_storage(self, extra_rows: int, dimension: int) -> None:
        needed = self._size + extra_rows
        if self._store is None:
            capacity = max(needed, 1024)
            self._store = np.empty((capacity, dimension), dtype=np.float32)
            self._ids_store = np.empty(capacity, dtype=np.int64)
            self._norms_store = np.empty(capacity, dtype=np.float64)
            return
        if self._store.shape[1] != dimension:
            raise ValueError(
                f"descriptor dimension {dimension} does not match "
                f"indexed dimension {self._store.shape[1]}"
            )
        if needed <= self._store.shape[0]:
            return
        capacity = max(needed, 2 * self._store.shape[0])
        grown = np.empty((capacity, self._store.shape[1]), dtype=np.float32)
        grown[: self._size] = self._store[: self._size]
        self._store = grown
        grown_ids = np.empty(capacity, dtype=np.int64)
        grown_ids[: self._size] = self._ids_store[: self._size]
        self._ids_store = grown_ids
        grown_norms = np.empty(capacity, dtype=np.float64)
        grown_norms[: self._size] = self._norms_store[: self._size]
        self._norms_store = grown_norms

    def insert(self, descriptors: np.ndarray, item_ids: np.ndarray) -> None:
        """Append descriptors incrementally — only the new batch is hashed.

        This is the "incorporated continuously, in constant time and
        memory" ingest path of the paper: per batch the cost is
        O(batch · L) hashing plus amortized-O(batch) row storage, versus
        the quadratic cost of rebuilding over all history each time.
        Bucket capping keeps first-inserted rows, matching what a
        one-shot :meth:`build` over the concatenated data produces.
        A rejected batch leaves the index as it was: its rows land in
        spare capacity past ``size`` and count as stored only once the
        batch's buckets pass the range check.
        """
        descriptors = np.asarray(descriptors, dtype=np.float32)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        if item_ids.shape != (descriptors.shape[0],):
            raise ValueError(
                "item_ids must have one entry per descriptor, got "
                f"{item_ids.shape} for {descriptors.shape[0]} descriptors"
            )
        num_new = descriptors.shape[0]
        if num_new == 0:
            return
        start_row = self._size
        self._grow_storage(num_new, descriptors.shape[1])
        self._store[start_row : start_row + num_new] = descriptors
        self._ids_store[start_row : start_row + num_new] = item_ids
        # einsum casts through its small buffers, not a float64 copy.
        self._norms_store[start_row : start_row + num_new] = np.einsum(
            "ij,ij->i", descriptors, descriptors, dtype=np.float64
        )
        quantized = QuantizedBuckets(self.projections.quantize(descriptors))
        self._size += num_new

        cap = self.max_bucket_size
        for table in range(self.params.num_tables):
            keys = quantized.table_keys(table)
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
            groups = np.split(order, boundaries)
            starts = np.concatenate(([0], boundaries))
            table_map = self._tables[table]
            for start, group in zip(starts, groups):
                key = int(sorted_keys[start])
                rows = (group + start_row).astype(np.int32)
                existing = table_map.get(key)
                if existing is None:
                    table_map[key] = rows[:cap]
                elif existing.size < cap:
                    table_map[key] = np.concatenate(
                        [existing, rows[: cap - existing.size]]
                    )

    def query(self, descriptor: np.ndarray, num_neighbors: int = 1) -> list[LshMatch]:
        """Approximate nearest neighbors of one descriptor (see :meth:`query_batch`)."""
        descriptor = np.asarray(descriptor, dtype=np.float32).reshape(1, -1)
        return self.query_batch(descriptor, num_neighbors)[0]

    def query_batch(
        self, descriptors: np.ndarray, num_neighbors: int = 1
    ) -> list[list[LshMatch]]:
        """Query many descriptors; one (possibly empty) match list per row.

        Each list holds up to ``num_neighbors`` matches ordered by exact
        distance, ties broken toward the lowest stored row; it is shorter
        (or empty) when the probed buckets hold fewer candidates — the
        defining failure mode E2LSH trades for speed.
        """
        check_positive("num_neighbors", num_neighbors)
        if self._size == 0:
            raise RuntimeError("index is empty; call build() first")
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        results: list[list[LshMatch]] = []
        # float32 overflow (descriptors near 1e20) is expected in the
        # filter: it yields non-finite bounds, which keep the row.
        with np.errstate(over="ignore", invalid="ignore"):
            for query, rows in zip(descriptors, self._candidates(descriptors)):
                rows = self._shortlist(query, rows, num_neighbors)
                results.append(self._refine(query, rows, num_neighbors))
        return results

    def _candidates(self, descriptors: np.ndarray) -> list[np.ndarray]:
        """Distinct candidate rows per query, in no particular order.

        Every table hashes all ``n * (P + 1)`` probe vectors (each
        query's bucket plus its ``P`` multiprobe perturbations) in one
        Murmur pair; only the dictionary lookups run per probe.
        """
        buckets, residuals = self.projections.quantize_with_residuals(descriptors)
        quantized = QuantizedBuckets(buckets)
        hits: list[list[np.ndarray]] = [[] for _ in range(quantized.num_items)]
        for table, table_map in enumerate(self._tables):
            projections, deltas = ranked_perturbations(
                residuals[:, table, :], self.max_probes_per_table
            )
            probes = quantized.probe_vectors(table, projections, deltas)
            keys = bucket_keys(probes.reshape(-1, probes.shape[2]), table).tolist()
            probes_per_query = probes.shape[1]
            get = table_map.get
            for slot, key in enumerate(keys):
                rows = get(key)
                if rows is not None:
                    hits[slot // probes_per_query].append(rows)
        # Dedupe in O(candidates): after the scatter each row's stamp
        # names exactly one of its positions, so that position survives.
        stamp = np.empty(self._size, dtype=np.int64)
        candidates: list[np.ndarray] = []
        for query_hits in hits:
            if not query_hits:
                candidates.append(np.empty(0, dtype=np.int32))
                continue
            rows = np.concatenate(query_hits)
            positions = np.arange(rows.size)
            stamp[rows] = positions
            candidates.append(rows[stamp[rows] == positions])
        return candidates

    def _shortlist(
        self, query: np.ndarray, rows: np.ndarray, num_neighbors: int
    ) -> np.ndarray:
        """Rows that can still be among the ``num_neighbors`` nearest.

        ``‖d‖² − 2·fl32(d·q) + ‖q‖²`` estimates each squared distance
        within ``slack``: Higham's bound ``γ_D·‖d‖·‖q‖`` on a float32 dot
        product (any summation order), doubled, plus a relative margin
        for float64 rounding.  A row whose lower bound exceeds the k-th
        smallest upper bound is strictly farther than k other rows in
        exact arithmetic, so dropping it cannot change the answer.  NaN
        bounds compare false and keep the row for the exact refine.
        """
        if rows.size <= num_neighbors:
            return rows
        dimension = query.shape[0]
        gamma = dimension * _F32_UNIT / (1.0 - dimension * _F32_UNIT)
        norms = self._norms_store[rows]
        query64 = query.astype(np.float64)
        query_norm = float(query64 @ query64)
        dots = (self._store[rows] @ query).astype(np.float64)
        approx = norms - 2.0 * dots + query_norm
        approx[~np.isfinite(approx)] = np.nan
        slack = 2.0 * gamma * np.sqrt(norms * query_norm) + _F64_SLACK * (
            norms + query_norm
        )
        kth = np.partition(approx + slack, num_neighbors - 1)[num_neighbors - 1]
        return rows[~(approx - slack > kth)]

    def _refine(
        self, query: np.ndarray, rows: np.ndarray, num_neighbors: int
    ) -> list[LshMatch]:
        """Exact float64 distances, ordered by (distance, row)."""
        deltas = self._store[rows].astype(np.float64) - query.astype(np.float64)
        distances = np.sqrt((deltas**2).sum(axis=1))
        order = np.lexsort((rows, distances))[:num_neighbors]
        return [
            LshMatch(item_id=item_id, distance=distance)
            for item_id, distance in zip(
                self._ids_store[rows[order]].tolist(), distances[order].tolist()
            )
        ]

    def memory_bytes(self) -> int:
        """In-memory footprint: rows (descriptor, id, norm) + L-fold bucket references."""
        total = 0
        if self._store is not None:
            for column in (self._store, self._ids_store, self._norms_store):
                total += column[: self._size].nbytes
        for table_map in self._tables:
            # dict overhead approximated by key + pointer per entry.
            total += len(table_map) * 16
            total += sum(rows.nbytes for rows in table_map.values())
        return total

    def disk_bytes(self) -> int:
        """Serialized (uncompressed) footprint for Fig. 15's disk column."""
        return self.memory_bytes()
