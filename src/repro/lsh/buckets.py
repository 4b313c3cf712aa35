"""Canonical encoding of quantized LSH bucket vectors for hashing.

Quantized buckets are small signed integers (``floor(projection / W)``).
Bloom-filter hashing and bucket-key derivation both need a fixed-width
unsigned representation; this module centralizes that conversion so the
oracle, the server index, and the tests all agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.murmur3 import murmur3_32_vectors_multiseed

__all__ = ["BUCKET_LIMIT", "QuantizedBuckets", "bucket_keys"]

#: Bucket indices must lie strictly inside ``±BUCKET_LIMIT`` to encode.
BUCKET_LIMIT = 1 << 20
_BUCKET_BIAS = np.int64(BUCKET_LIMIT)


def bucket_keys(
    vectors: np.ndarray, table: int | np.ndarray, seed_base: int = 0
) -> np.ndarray:
    """64-bit bucket keys of ``(n, M)`` uint32 vectors for one LSH table.

    One Murmur-3 pair (seeds ``seed_base + 2 * table`` and ``+ 1``) gives
    the low and high words.  ``table`` may be an ``(n,)`` array naming
    each vector's table, to key several tables' vectors in one pass.
    The keys of :class:`repro.lsh.LshIndex`'s bucket tables, both when
    inserting rows and when probing for them.  Key collisions are
    possible but harmless: index candidates are always re-verified with
    exact Euclidean distances.
    """
    table = np.asarray(table, dtype=np.int64)
    seeds = np.stack([seed_base + 2 * table, seed_base + 2 * table + 1])
    low, high = murmur3_32_vectors_multiseed(vectors, seeds).astype(np.uint64)
    return (high << np.uint64(32)) | low


class QuantizedBuckets:
    """Wraps a ``(n, L, M)`` int64 bucket tensor with encoding helpers."""

    def __init__(self, buckets: np.ndarray) -> None:
        buckets = np.asarray(buckets, dtype=np.int64)
        if buckets.ndim != 3:
            raise ValueError(f"buckets must be (n, L, M), got shape {buckets.shape}")
        # Signed bounds, not np.abs: a non-finite projection casts to
        # INT64_MIN, whose absolute value wraps back to INT64_MIN.
        if buckets.size and (
            buckets.max() >= _BUCKET_BIAS or buckets.min() <= -_BUCKET_BIAS
        ):
            raise ValueError(
                "bucket indices exceed the +/-2^20 encoding range; "
                "quantization width W is implausibly small"
            )
        self.buckets = buckets

    @property
    def num_items(self) -> int:
        return self.buckets.shape[0]

    @property
    def num_tables(self) -> int:
        return self.buckets.shape[1]

    @property
    def num_projections(self) -> int:
        return self.buckets.shape[2]

    def table_vectors(self, table: int) -> np.ndarray:
        """Unsigned ``(n, M)`` uint32 vectors for one LSH table.

        A constant bias shifts the signed bucket indices into unsigned
        range so the mapping is injective (no wraparound aliasing).
        """
        return (self.buckets[:, table, :] + _BUCKET_BIAS).astype(np.uint32)

    def table_keys(self, table: int, seed_base: int = 0) -> np.ndarray:
        """64-bit bucket keys for one table (see :func:`bucket_keys`)."""
        return bucket_keys(self.table_vectors(table), table, seed_base)

    def perturbed(self, table: int, projection: int, delta: int) -> np.ndarray:
        """One-cell perturbation of a single coordinate (multiprobe)."""
        vectors = self.buckets[:, table, :].copy()
        vectors[:, projection] += delta
        return (vectors + _BUCKET_BIAS).astype(np.uint32)

    def probe_vectors(
        self, table: int, projections: np.ndarray, deltas: np.ndarray
    ) -> np.ndarray:
        """All multiprobe vectors for one table in a single tensor.

        ``projections`` and ``deltas`` are ``(n, P)`` per-item perturbation
        schedules (see :func:`repro.lsh.multiprobe.ranked_perturbations`).
        Returns ``(n, P + 1, M)`` uint32 vectors: slot 0 is each item's
        original bucket vector, slot ``j + 1`` its ``j``-th perturbation.
        """
        base = self.buckets[:, table, :]
        n, _ = base.shape
        num_probes = projections.shape[1]
        probes = np.repeat(base[:, np.newaxis, :], num_probes + 1, axis=1)
        if num_probes:
            rows = np.arange(n)[:, np.newaxis]
            slots = np.arange(1, num_probes + 1)[np.newaxis, :]
            probes[rows, slots, projections] += deltas
        return (probes + _BUCKET_BIAS).astype(np.uint32)
