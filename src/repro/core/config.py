"""System-wide configuration.

The LSH/Bloom operating point follows the paper's empirical tuning:
``L = 10, M = 7, W = 500, K = 8``, 10-bit counters (saturation 1023, the
largest value 10 bits represent — "beyond [that], we treat a keypoint as
not unique enough for consideration"), and Bloom capacity "up to 2.5M
unique feature vectors with less than 1% false positives".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.lsh.projections import E2LSHParams
from repro.util.validation import check_positive

__all__ = ["ServerConfig", "VisualPrintConfig"]


def _counters_for_capacity(capacity: int, hashes_per_insert: int) -> int:
    """Counting-filter size at the paper's operating density.

    Each descriptor insertion bumps ``hashes_per_insert`` counters (K per
    LSH table).  The paper runs its filters *dense* — at 2.5M descriptors
    it reports 162 MB of in-RAM filter state, i.e. roughly 0.4 counters
    per insertion-hash — trading some counter collision (tolerated via
    saturation plus the verification filter) for a download small enough
    to ship to phones.  We adopt the same density, rounded to a power of
    two.
    """
    raw = 0.4 * capacity * hashes_per_insert
    return 1 << max(10, math.ceil(math.log2(raw)))


@dataclass(frozen=True)
class VisualPrintConfig:
    """All tunables of the VisualPrint pipeline in one place."""

    # E2LSH (paper: L=10, M=7, W=500 over 128-D integer SIFT).
    lsh: E2LSHParams = field(default_factory=E2LSHParams)
    # Counting Bloom filter.
    bloom_hashes: int = 8  # K
    bits_per_counter: int = 10  # saturation at 1023
    descriptor_capacity: int = 500_000  # descriptors the oracle is sized for
    # Verification filter sizing relative to the primary.
    verification_bits_factor: float = 1.0
    # Multiprobe lookups per table (beyond the original bucket).
    max_probes_per_table: int = 2
    # Client fingerprinting.
    fingerprint_size: int = 200  # the paper evaluates 200 and 500
    # Server retrieval.
    match_ratio: float = 0.8
    nearest_neighbors_per_keypoint: int = 3  # |K| * n candidate 3D points
    # Localization.
    cluster_radius: float = 3.0
    min_cluster_size: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("bloom_hashes", self.bloom_hashes)
        check_positive("fingerprint_size", self.fingerprint_size)
        check_positive("descriptor_capacity", self.descriptor_capacity)
        if not 0 < self.match_ratio <= 1:
            raise ValueError(f"match_ratio must be in (0, 1], got {self.match_ratio}")

    @property
    def hashes_per_insert(self) -> int:
        """Counter bumps per descriptor insertion: K per LSH table."""
        return self.bloom_hashes * self.lsh.num_tables

    @property
    def num_counters(self) -> int:
        """Primary counting-filter size derived from the capacity."""
        return _counters_for_capacity(self.descriptor_capacity, self.hashes_per_insert)

    @property
    def verification_bits(self) -> int:
        """Verification filter size (1 bit per position)."""
        return max(1024, int(self.num_counters * self.verification_bits_factor))

    @property
    def saturation(self) -> int:
        return (1 << self.bits_per_counter) - 1

    def paper_scale(self) -> "VisualPrintConfig":
        """The same config at the paper's 2.5M-descriptor operating point."""
        from dataclasses import replace

        return replace(self, descriptor_capacity=2_500_000)


@dataclass(frozen=True)
class ServerConfig:
    """The serving topology :func:`repro.loadgen.run_loadtest` replays.

    Shard count, per-shard queue bound, consistent-hash virtual nodes,
    shards per venue (successor-list replication on the ring; >1 lets
    one hot venue spread over several shard queues) and the ring seed.
    """

    num_shards: int = 4
    queue_depth: int = 64
    hash_replicas: int = 64
    replication_factor: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_shards", self.num_shards)
        check_positive("queue_depth", self.queue_depth)
        check_positive("hash_replicas", self.hash_replicas)
        check_positive("replication_factor", self.replication_factor)
