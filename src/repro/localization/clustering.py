"""Spatial clustering of retrieved 3D points (DBSCAN, from scratch).

Wrong LSH matches scatter across the venue; correct matches concentrate
around the true scene.  Density clustering keeps "only those 3D points
in the largest cluster P, discarding others".

The labels are those of classic DBSCAN expanded breadth-first from each
unvisited core point in index order, numbering included, but no Python
runs per point: one k-d-tree pair query finds every pair within ``eps``,
and the clusters are the components of the core–core pairs.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["dbscan_labels", "largest_cluster"]

NOISE = -1


def dbscan_labels(
    points: np.ndarray, eps: float, min_samples: int = 4
) -> np.ndarray:
    """Classic DBSCAN over 3D points; returns a label per point (-1 noise).

    A point is core when its ``eps``-ball (itself included) holds at
    least ``min_samples`` points.  Clusters are the connected components
    of the core points, numbered by their lowest core index — the order
    in which a seed-order search reaches them.  A non-core point within
    ``eps`` of core points joins the lowest-numbered of their clusters;
    the rest are noise.
    """
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

    pairs = cKDTree(points).query_pairs(eps, output_type="ndarray")
    first, second = pairs[:, 0], pairs[:, 1]
    is_core = 1 + np.bincount(pairs.ravel(), minlength=n) >= min_samples

    # Min-label propagation with pointer jumping over the core-core
    # pairs: hook each endpoint's root under the other's root when that
    # is lower, then point every node at its grandparent, until nothing
    # moves.  ``root[v] <= v`` always holds, so each component ends at
    # its lowest index.
    core_pair = is_core[first] & is_core[second]
    a, b = first[core_pair], second[core_pair]
    root = np.arange(n)
    while a.size:
        previous = root.copy()
        np.minimum.at(root, root[a], root[b])
        np.minimum.at(root, root[b], root[a])
        root = root[root]
        if not (root != previous).any():
            break
    is_root = is_core & (root == np.arange(n))
    labels[is_core] = (np.cumsum(is_root) - 1)[root[is_core]]

    # Border points: the lowest cluster among their core neighbours.
    source = np.concatenate([first, second])
    target = np.concatenate([second, first])
    reach = is_core[source] & ~is_core[target]
    nearest = np.full(n, n, dtype=np.int64)
    np.minimum.at(nearest, target[reach], labels[source[reach]])
    border = nearest < n
    labels[border] = nearest[border]
    return labels


def largest_cluster(
    points: np.ndarray, eps: float, min_samples: int = 4
) -> np.ndarray:
    """Indices of the most populous DBSCAN cluster (empty if only noise).

    Ties go to the lowest-numbered cluster.
    """
    labels = dbscan_labels(points, eps=eps, min_samples=min_samples)
    valid = labels[labels != NOISE]
    if valid.size == 0:
        return np.empty(0, dtype=np.int64)
    values, counts = np.unique(valid, return_counts=True)
    winner = values[np.argmax(counts)]
    return np.flatnonzero(labels == winner)
