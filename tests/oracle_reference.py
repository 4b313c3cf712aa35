"""Test-only references: the original oracle hashing and lookup walk.

The library's :class:`~repro.core.oracle.UniquenessOracle` hashes every
seed of a table in one multiseed Murmur pass and resolves a whole
descriptor batch's multiprobe lookups with one ranked argsort, one hash
pass and one counter gather per table.  This module keeps the straight
versions they replaced — one Murmur pass per seed, a scalar
perturbation schedule per bucket vector and a per-row probe walk that
stops at the first accepting probe — so ``tests/test_parallel.py``,
``tests/test_hashing.py`` and the ``bench_sift`` / ``bench_parallel``
trajectories can check and time the fast paths against them.  The
functions read the oracle's projections, hash families and filters and
never mutate them: the counter increments a lookup would record are
returned, not applied.
"""

from __future__ import annotations

import numpy as np

from repro.core.oracle import OracleLookup, UniquenessOracle
from repro.hashing.families import Murmur3Family
from repro.hashing.murmur3 import murmur3_32_vectors
from repro.lsh import QuantizedBuckets
from repro.lsh.buckets import BUCKET_LIMIT

__all__ = [
    "indices_reference",
    "lookup_batch_reference",
    "perturbation_sets",
    "perturbed",
]


def indices_reference(family: Murmur3Family, vectors: np.ndarray) -> np.ndarray:
    """``family.indices`` with one Murmur pass per seed."""
    vectors = np.ascontiguousarray(vectors, dtype=np.uint32)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    columns = [
        murmur3_32_vectors(vectors, seed=family.base_seed + k)
        for k in range(family.num_hashes)
    ]
    hashes = np.stack(columns, axis=1).astype(np.uint64)
    return (hashes % np.uint64(family.table_size)).astype(np.int64)


def perturbed(
    buckets: QuantizedBuckets, table: int, projection: int, delta: int
) -> np.ndarray:
    """``(n, M)`` uint32 vectors of one table with one coordinate moved one cell.

    The single-probe form of ``QuantizedBuckets.probe_vectors``, encoded
    the same way as ``QuantizedBuckets.table_vectors``.
    """
    vectors = buckets.buckets[:, table, :].copy()
    vectors[:, projection] += delta
    return (vectors + BUCKET_LIMIT).astype(np.uint32)


def perturbation_sets(
    residuals: np.ndarray, max_probes: int
) -> list[tuple[int, int]]:
    """Rank single-coordinate perturbations for one bucket vector.

    ``residuals`` is the ``(M,)`` within-cell position of each projection
    in ``[0, 1)``.  Returns up to ``max_probes`` ``(projection, delta)``
    pairs ordered by how close the query sits to that boundary: residual
    near 0 -> probe ``delta = -1`` first, near 1 -> ``delta = +1``.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.ndim != 1:
        raise ValueError(f"residuals must be 1-D, got shape {residuals.shape}")
    if max_probes < 0:
        raise ValueError(f"max_probes must be non-negative, got {max_probes}")

    candidates: list[tuple[float, int, int]] = []
    for projection, residual in enumerate(residuals):
        # Distance to the lower boundary is the residual itself; to the
        # upper boundary, one minus it.  Smaller distance = likelier miss.
        candidates.append((float(residual), projection, -1))
        candidates.append((float(1.0 - residual), projection, +1))
    candidates.sort(key=lambda item: item[0])
    return [(projection, delta) for _, projection, delta in candidates[:max_probes]]


def lookup_batch_reference(
    oracle: UniquenessOracle, descriptors: np.ndarray
) -> tuple[list[OracleLookup], dict[str, int]]:
    """Per-row probe walk of ``oracle.lookup_batch``.

    Returns the lookups and the counter increments ``lookup_batch``
    records for the same batch, keyed by counter name.
    """
    descriptors = np.asarray(descriptors, dtype=np.float32)
    if descriptors.ndim != 2:
        raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
    num = descriptors.shape[0]
    if num == 0:
        return [], {}
    buckets, residuals = oracle.projections.quantize_with_residuals(descriptors)
    counts = oracle._counts_from_quantized(QuantizedBuckets(buckets))
    counters = oracle.counting.counters
    config = oracle.config
    quorum = (config.lsh.num_tables + 1) // 2
    multiprobe_accepts = 0
    verification_vetoes = 0
    results: list[OracleLookup] = []
    for row in range(num):
        row_quantized = QuantizedBuckets(buckets[row : row + 1])
        accepting_tables = 0
        used_multiprobe = False
        for table, family in enumerate(oracle._families):
            probes: list[tuple[np.ndarray, bool]] = [
                (row_quantized.table_vectors(table)[0], False)
            ]
            for projection, delta in perturbation_sets(
                residuals[row, table, :], config.max_probes_per_table
            ):
                probes.append(
                    (perturbed(row_quantized, table, projection, delta)[0], True)
                )
            for vector, is_probe in probes:
                indices = family.indices(vector[np.newaxis, :])
                probed = counters[indices[0]]
                nonzero = int((probed > 0).sum())
                full_match = nonzero == config.bloom_hashes
                partial_match = nonzero == config.bloom_hashes - 1
                if not (full_match or partial_match):
                    continue
                if not bool(oracle.verification.verify(indices)[0]):
                    verification_vetoes += 1
                    continue
                accepting_tables += 1
                if is_probe:
                    used_multiprobe = True
                    multiprobe_accepts += 1
                break  # original bucket first; stop at the first accept
        results.append(
            OracleLookup(
                count=int(counts[row]),
                present=accepting_tables >= quorum,
                used_multiprobe=used_multiprobe,
            )
        )
    increments = {
        "oracle_lookups_total": num,
        "oracle_multiprobe_accepts_total": multiprobe_accepts,
        "oracle_verification_vetoes_total": verification_vetoes,
    }
    return results, increments
