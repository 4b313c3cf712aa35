"""Test-only oracle: the original ``LshIndex.query_batch`` query path.

The library index filters candidates with a float32 distance bound and
re-ranks only a shortlist in float64.  This module keeps the straight
version it replaced — every candidate converted to float64 and sorted —
so the parity suite in ``tests/test_lsh.py`` can check that the fast
path returns bit-identical distances.  It reads the index's tables and
row storage directly and never mutates them.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.murmur3 import murmur3_32_vectors
from repro.lsh import LshIndex, LshMatch

__all__ = ["candidate_rows_reference", "inline_probe_schedule", "query_batch_reference"]


def inline_probe_schedule(
    residuals: np.ndarray, max_probes: int
) -> tuple[np.ndarray, np.ndarray]:
    """The index's original probe ranking over ``(n, M)`` residuals.

    Boundary distances are laid out as all ``delta = -1`` candidates,
    then all ``delta = +1`` candidates, and ranked with numpy's default
    (unstable) argsort.  Returns ``(projections, deltas)``, both
    ``(n, P)``, in the layout of
    :func:`repro.lsh.multiprobe.ranked_perturbations`.
    """
    num_projections = residuals.shape[1]
    boundary = np.concatenate([residuals, 1.0 - residuals], axis=1)
    ranked = np.argsort(boundary, axis=1)[:, :max_probes]
    projections = ranked % num_projections
    deltas = np.where(ranked < num_projections, -1, 1).astype(np.int64)
    return projections, deltas


def candidate_rows_reference(index: LshIndex, descriptors: np.ndarray) -> list[np.ndarray]:
    """Sorted unique candidate rows per query, as the original index found them."""
    buckets, residuals = index.projections.quantize_with_residuals(descriptors)
    num_queries = buckets.shape[0]
    per_query: list[list[np.ndarray]] = [[] for _ in range(num_queries)]
    bias = np.int64(1 << 20)

    for table in range(index.params.num_tables):
        table_buckets = buckets[:, table, :]
        probe_vectors = [table_buckets]
        if index.max_probes_per_table > 0:
            projections, deltas = inline_probe_schedule(
                residuals[:, table, :], index.max_probes_per_table
            )
            for probe_rank in range(projections.shape[1]):
                perturbed = table_buckets.copy()
                perturbed[np.arange(num_queries), projections[:, probe_rank]] += deltas[
                    :, probe_rank
                ]
                probe_vectors.append(perturbed)
        table_map = index._tables[table]
        for probe in probe_vectors:
            unsigned = (probe + bias).astype(np.uint32)
            low = murmur3_32_vectors(unsigned, seed=2 * table).astype(np.uint64)
            high = murmur3_32_vectors(unsigned, seed=2 * table + 1).astype(np.uint64)
            keys = (high << np.uint64(32)) | low
            for query_index, key in enumerate(keys):
                rows = table_map.get(int(key))
                if rows is not None:
                    per_query[query_index].append(rows)
    return [
        np.unique(np.concatenate(rows)) if rows else np.empty(0, dtype=np.int32)
        for rows in per_query
    ]


def query_batch_reference(
    index: LshIndex, descriptors: np.ndarray, num_neighbors: int = 1
) -> list[list[LshMatch]]:
    """Every candidate's exact float64 distance, sorted with ``argsort``."""
    descriptors = np.asarray(descriptors, dtype=np.float32)
    stored = index._store[: index.size]
    item_ids = index._ids_store[: index.size]
    results: list[list[LshMatch]] = []
    for query, rows in zip(descriptors, candidate_rows_reference(index, descriptors)):
        if rows.size == 0:
            results.append([])
            continue
        deltas = stored[rows].astype(np.float64) - query.astype(np.float64)
        distances = np.sqrt((deltas**2).sum(axis=1))
        order = np.argsort(distances)[:num_neighbors]
        results.append(
            [
                LshMatch(item_id=int(item_ids[rows[i]]), distance=float(distances[i]))
                for i in order
            ]
        )
    return results
