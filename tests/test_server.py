"""Unit tests for the VisualPrint cloud server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Fingerprint, VisualPrintConfig, VisualPrintServer
from repro.features.keypoint import KeypointSet
from repro.wardrive.environment import random_sift_descriptor


@pytest.fixture(scope="module")
def populated_server(rng):
    """A server with two landmark clusters at known 3D positions."""
    config = VisualPrintConfig(descriptor_capacity=10_000, fingerprint_size=20)
    bounds = (np.zeros(3), np.array([30.0, 20.0, 3.0]))
    server = VisualPrintServer(config, bounds=bounds)
    descriptors = np.array([random_sift_descriptor(rng) for _ in range(300)])
    positions = np.zeros((300, 3))
    positions[:150] = np.array([5.0, 10.0, 1.5]) + rng.normal(0, 0.5, (150, 3))
    positions[150:] = np.array([25.0, 10.0, 1.5]) + rng.normal(0, 0.5, (150, 3))
    server.ingest(descriptors, positions)
    return server, descriptors, positions


def _fingerprint(descriptors, pixels=None):
    n = descriptors.shape[0]
    if pixels is None:
        rng = np.random.default_rng(1)
        pixels = rng.uniform(50, 590, size=(n, 2)).astype(np.float32)
    keypoints = KeypointSet(
        positions=np.asarray(pixels, dtype=np.float32),
        scales=np.ones(n, np.float32),
        orientations=np.zeros(n, np.float32),
        responses=np.ones(n, np.float32),
        descriptors=descriptors.astype(np.float32),
    )
    return Fingerprint(
        keypoints=keypoints, uniqueness_counts=np.zeros(n, dtype=np.int64)
    )


class TestIngest:
    def test_num_mappings(self, populated_server):
        server, descriptors, _ = populated_server
        assert server.num_mappings == descriptors.shape[0]

    def test_alignment_enforced(self):
        server = VisualPrintServer(VisualPrintConfig(descriptor_capacity=1024))
        with pytest.raises(ValueError):
            server.ingest(np.zeros((5, 128)), np.zeros((4, 3)))

    def test_rejected_batch_leaves_server_untouched(self, rng):
        server = VisualPrintServer(VisualPrintConfig(descriptor_capacity=1024))
        descriptors = np.array([random_sift_descriptor(rng) for _ in range(120)])
        server.ingest(descriptors, rng.uniform(0, 10, (120, 3)))
        outlier = np.full((1, 128), 1e12)
        with pytest.raises(ValueError, match="2\\^20"):
            server.ingest(np.vstack([descriptors[:3], outlier]), np.zeros((4, 3)))
        assert server.num_mappings == server.positions.shape[0] == 120
        assert server.lookup.size == server.oracle.inserted_count == 120
        with pytest.raises(ValueError):
            server.ingest(descriptors[:2], np.zeros((2, 2)))
        assert server.num_mappings == server.lookup.size == 120

    # Casting a non-finite projection to int64 warns before the range
    # check rejects it.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_rejected_untouched(self, rng, value):
        server = VisualPrintServer(VisualPrintConfig(descriptor_capacity=1024))
        descriptors = np.array([random_sift_descriptor(rng) for _ in range(120)])
        server.ingest(descriptors, rng.uniform(0, 10, (120, 3)))
        counters = server.oracle.counting.counters.copy()
        with pytest.raises(ValueError):
            server.ingest(np.full((1, 128), value), np.zeros((1, 3)))
        assert server.num_mappings == server.positions.shape[0] == 120
        assert server.lookup.size == server.oracle.inserted_count == 120
        assert np.array_equal(server.oracle.counting.counters, counters)

    def test_oracle_curated_during_ingest(self, populated_server):
        server, descriptors, _ = populated_server
        assert server.oracle.inserted_count == descriptors.shape[0]
        counts = server.oracle.counts(descriptors[:20])
        assert (counts >= 1).mean() > 0.8

    def test_bounds_explicit(self, populated_server):
        server, _, _ = populated_server
        low, high = server.bounds()
        assert np.array_equal(low, np.zeros(3))
        assert high[0] == 30.0

    def test_bounds_inferred_when_absent(self, rng):
        server = VisualPrintServer(VisualPrintConfig(descriptor_capacity=1024))
        descriptors = np.array([random_sift_descriptor(rng) for _ in range(10)])
        positions = rng.uniform(0, 5, (10, 3))
        server.ingest(descriptors, positions)
        low, high = server.bounds()
        assert (low <= positions.min(axis=0)).all()
        assert (high >= positions.max(axis=0)).all()


class TestLocalize:
    def test_clustering_rejects_minority(self, populated_server, rng):
        """Querying with cluster-A descriptors plus a few from cluster B:
        the retrieved minority cluster must be discarded."""
        server, descriptors, positions = populated_server
        query = np.vstack([descriptors[:30], descriptors[150:155]])
        answer = server.localize(_fingerprint(query))
        assert answer.matched_points > 0
        # the solver position should land near cluster A, far from B
        assert abs(answer.pose.x - 25.0) > 5.0

    def test_empty_fingerprint_center_fallback(self, populated_server):
        server, _, _ = populated_server
        empty = Fingerprint(
            keypoints=KeypointSet.empty(),
            uniqueness_counts=np.empty(0, dtype=np.int64),
        )
        answer = server.localize(empty)
        assert answer.matched_points == 0
        assert answer.pose.x == pytest.approx(15.0)

    def test_unmatchable_descriptors(self, populated_server, rng):
        server, _, _ = populated_server
        junk = np.array([random_sift_descriptor(rng) + 100 for _ in range(10)])
        junk = np.clip(junk, 0, 255)
        answer = server.localize(_fingerprint(junk))
        low, high = server.bounds()
        assert (answer.pose.position >= low - 1).all()
        assert (answer.pose.position <= high + 1).all()


class TestFootprints:
    def test_lookup_memory_positive(self, populated_server):
        server, _, _ = populated_server
        assert server.lookup_memory_bytes() > 0

    def test_oracle_download_positive(self, populated_server):
        server, _, _ = populated_server
        assert server.oracle_download_bytes() > 0
