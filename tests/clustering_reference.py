"""Test-only oracle: DBSCAN as a seed-order breadth-first search.

The library labels clusters with one k-d-tree pair query and whole-array
min-label propagation.  This module keeps the straight version it
replaced — one ``query_ball_point`` neighbourhood per point and a
breadth-first expansion from each unvisited core point in index order —
so ``tests/test_localization.py`` can check that the labels are equal,
numbering included.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["dbscan_labels_reference"]

NOISE = -1


def dbscan_labels_reference(
    points: np.ndarray, eps: float, min_samples: int = 4
) -> np.ndarray:
    """Classic DBSCAN over 3D points; returns a label per point (-1 noise)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got {points.shape}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels

    tree = cKDTree(points)
    neighborhoods = tree.query_ball_point(points, eps)
    is_core = np.array([len(nb) >= min_samples for nb in neighborhoods])

    cluster = 0
    visited = np.zeros(n, dtype=bool)
    for seed in range(n):
        if visited[seed] or not is_core[seed]:
            continue
        # Breadth-first expansion from this core point.
        queue = [seed]
        visited[seed] = True
        labels[seed] = cluster
        while queue:
            current = queue.pop()
            for neighbor in neighborhoods[current]:
                if labels[neighbor] == NOISE:
                    labels[neighbor] = cluster
                if not visited[neighbor]:
                    visited[neighbor] = True
                    if is_core[neighbor]:
                        queue.append(neighbor)
        cluster += 1
    return labels
