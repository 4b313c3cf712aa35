"""LSH-backed approximate matching with Lowe's ratio test.

The paper's "LSH" regime applies "the reference E2LSH locality-sensitive
hashing implementation for nearest-neighbor search" over *all* query
keypoints.  Same ratio-test filter as BruteForce; only the NN back-end
differs, so accuracy gaps isolate the approximation error.
"""

from __future__ import annotations

import numpy as np

from repro.lsh import E2LSHParams, LshIndex

__all__ = ["LshMatcher"]


class LshMatcher:
    """E2LSH 2-NN matcher over a fixed descriptor database."""

    def __init__(
        self,
        descriptors: np.ndarray,
        params: E2LSHParams | None = None,
        seed: int = 0,
        max_probes_per_table: int = 2,
    ) -> None:
        descriptors = np.asarray(descriptors, dtype=np.float32)
        self.index = LshIndex(
            params=params, seed=seed, max_probes_per_table=max_probes_per_table
        )
        self.index.build(descriptors)

    @property
    def size(self) -> int:
        return self.index.size

    def memory_bytes(self) -> int:
        """Index footprint (Fig. 15's LSH bar: replicated bucket tables)."""
        return self.index.memory_bytes()

    def match(
        self, queries: np.ndarray, ratio: float = 0.8
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ratio-tested matches: ``(query_rows, database_rows)``.

        Queries whose buckets are empty (an LSH miss) simply produce no
        match — the characteristic false-negative mode of the scheme.
        """
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        queries = np.asarray(queries, dtype=np.float32)
        query_rows, rows, distances = self.index.query_batch(queries, num_neighbors=2)
        # Each query's first match, accepted if it is the only one or
        # clearly closer than the second.
        first = np.flatnonzero(np.diff(query_rows, prepend=-1))
        alone = np.diff(first, append=query_rows.size) == 1
        second = distances[np.minimum(first + 1, distances.size - 1)]
        keep = first[alone | (distances[first] < ratio * second)]
        return query_rows[keep], rows[keep]
