"""Test-only oracles: the original LSH projection, tables and query path.

The library projects with one padded GEMM, keeps each table as flat CSR
arrays and answers a fingerprint with whole-array passes over
``(query, row)`` pairs, filtering candidates with a float32 distance
bound before an exact float64 refine.  This module keeps the straight
versions they replaced — an ``einsum`` projection, one ``dict`` of
bucket arrays per table filled bucket by bucket, and a per-query probe
loop that converts every candidate to float64 and sorts it — so the
parity suite in ``tests/test_lsh.py`` can check the fast paths against
them.  It reads the index's projections and row storage directly and
never mutates them.

The index answers a batch with flat ``(query_rows, rows, distances)``
arrays; :func:`per_query` rebuilds them into the per-query lists of
:class:`Match` that the reference returns, so the two compare with ``==``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.hashing.murmur3 import murmur3_32_vectors
from repro.lsh import LshIndex, QuantizedBuckets, StableProjections

__all__ = [
    "Match",
    "candidate_rows_reference",
    "inline_probe_schedule",
    "per_query",
    "project_reference",
    "query_batch_reference",
    "tables_reference",
]


class Match(NamedTuple):
    """One neighbour: the stored row (the payload id) and its distance."""

    row: int
    distance: float


def per_query(
    result: tuple[np.ndarray, np.ndarray, np.ndarray], num_queries: int
) -> list[list[Match]]:
    """``query_batch``'s flat arrays as one (possibly empty) list per query."""
    lists: list[list[Match]] = [[] for _ in range(num_queries)]
    for query, row, distance in zip(*(array.tolist() for array in result)):
        lists[query].append(Match(row, distance))
    return lists


def project_reference(projections: StableProjections, descriptors: np.ndarray) -> np.ndarray:
    """The original ``(L, M, D) x (n, D) -> (n, L, M)`` einsum projection."""
    params = projections.params
    hyperplanes = projections._hyperplanes.reshape(
        params.num_tables, params.num_projections, params.dimension
    )
    descriptors = np.asarray(descriptors, dtype=np.float64)
    projected = np.einsum("lmd,nd->nlm", hyperplanes, descriptors)
    return projected + projections._offsets[np.newaxis, :, :]


def tables_reference(index: LshIndex) -> list[dict[int, np.ndarray]]:
    """The index's stored rows bucketed the original way: a dict per table.

    Rows are inserted in stored order and each bucket keeps its first
    ``max_bucket_size`` rows, one bucket at a time.
    """
    stored = index.descriptors
    quantized = QuantizedBuckets(index.projections.quantize(stored))
    tables: list[dict[int, np.ndarray]] = []
    for table in range(index.params.num_tables):
        table_map: dict[int, list[int]] = {}
        for row, key in enumerate(quantized.table_keys(table).tolist()):
            rows = table_map.setdefault(key, [])
            if len(rows) < index.max_bucket_size:
                rows.append(row)
        tables.append(
            {key: np.array(rows, dtype=np.int32) for key, rows in table_map.items()}
        )
    return tables


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


def candidate_rows_reference(
    index: LshIndex,
    descriptors: np.ndarray,
    tables: list[dict[int, np.ndarray]] | None = None,
) -> list[np.ndarray]:
    """Sorted unique candidate rows per query, as the original index found them."""
    if tables is None:
        tables = tables_reference(index)
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
        table_map = tables[table]
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
) -> list[list[Match]]:
    """Every candidate's exact float64 distance, sorted with ``argsort``."""
    descriptors = np.asarray(descriptors, dtype=np.float32)
    stored = index.descriptors
    results: list[list[Match]] = []
    for query, rows in zip(descriptors, candidate_rows_reference(index, descriptors)):
        if rows.size == 0:
            results.append([])
            continue
        deltas = stored[rows].astype(np.float64) - query.astype(np.float64)
        distances = np.sqrt((deltas**2).sum(axis=1))
        order = np.argsort(distances)[:num_neighbors]
        results.append([Match(int(rows[i]), float(distances[i])) for i in order])
    return results
