"""Multiprobe perturbation schedules (Lv et al., VLDB 2007).

False negatives in E2LSH come from quantization boundaries: two nearby
descriptors can land in adjacent cells.  "Fortunately, the error can be
at most a single quantization bucket", so probing the +/-1 neighbor of
each projection coordinate — preferring the side the query's residual
says is closest — recovers most of those misses.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ranked_perturbations"]


def ranked_perturbations(
    residuals: np.ndarray, max_probes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rank single-coordinate perturbations for ``(n, M)`` bucket vectors.

    ``residuals[i]`` is row ``i``'s within-cell position of each
    projection in ``[0, 1)``.  Returns ``(projections, deltas)``, both
    ``(n, P)`` with ``P = min(max_probes, 2M)``: row ``i`` holds its
    ``(projection, delta)`` pairs ordered by how close the query sits to
    that boundary — residual near 0 -> probe ``delta = -1`` first, near
    1 -> ``delta = +1``.  The candidate layout interleaves ``(p, -1)``
    then ``(p, +1)`` per projection and the sort is stable, matching the
    scalar schedule in ``tests/oracle_reference.py`` exactly.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.ndim != 2:
        raise ValueError(f"residuals must be 2-D, got shape {residuals.shape}")
    if max_probes < 0:
        raise ValueError(f"max_probes must be non-negative, got {max_probes}")
    n, m = residuals.shape
    num_probes = min(max_probes, 2 * m)
    if num_probes == 0:
        return (
            np.empty((n, 0), dtype=np.int64),
            np.empty((n, 0), dtype=np.int64),
        )
    distances = np.empty((n, 2 * m), dtype=np.float64)
    distances[:, 0::2] = residuals  # (p, -1) candidates
    distances[:, 1::2] = 1.0 - residuals  # (p, +1) candidates
    order = np.argsort(distances, axis=1, kind="stable")[:, :num_probes]
    projections = order >> 1
    deltas = np.where(order & 1 == 0, -1, +1).astype(np.int64)
    return projections.astype(np.int64), deltas
