"""Tests for server persistence and the end-to-end latency experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Fingerprint, VisualPrintConfig, VisualPrintServer
from repro.core.persistence import ServerStateStore
from repro.evaluation.experiments import latency_e2e
from repro.features.keypoint import KeypointSet
from repro.wardrive.environment import random_sift_descriptor


def _roundtrip(server: VisualPrintServer, root) -> VisualPrintServer:
    ServerStateStore(root).save(server)
    restored, _ = ServerStateStore(root).load()
    return restored


class TestServerPersistence:
    @pytest.fixture
    def server(self, rng):
        config = VisualPrintConfig(descriptor_capacity=5_000, fingerprint_size=10)
        bounds = (np.zeros(3), np.array([10.0, 10.0, 3.0]))
        server = VisualPrintServer(config, bounds=bounds)
        descriptors = np.array([random_sift_descriptor(rng) for _ in range(150)])
        positions = rng.uniform(0, 10, (150, 3))
        server.ingest(descriptors, positions)
        return server, descriptors

    def test_roundtrip_oracle_counts(self, server, tmp_path, rng):
        original, descriptors = server
        restored = _roundtrip(original, tmp_path / "server")
        probe = np.vstack(
            [descriptors[:20], [random_sift_descriptor(rng) for _ in range(20)]]
        )
        assert np.array_equal(
            restored.oracle.counts(probe), original.oracle.counts(probe)
        )

    def test_roundtrip_localization(self, server, tmp_path, rng):
        original, descriptors = server
        restored = _roundtrip(original, tmp_path / "server")
        pixels = rng.uniform(50, 590, size=(15, 2)).astype(np.float32)
        fingerprint = Fingerprint(
            keypoints=KeypointSet(
                positions=pixels,
                scales=np.ones(15, np.float32),
                orientations=np.zeros(15, np.float32),
                responses=np.ones(15, np.float32),
                descriptors=descriptors[:15].astype(np.float32),
            ),
            uniqueness_counts=np.zeros(15, dtype=np.int64),
        )
        a = original.localize(fingerprint)
        b = restored.localize(fingerprint)
        assert a.matched_points == b.matched_points
        assert a.pose.position_error(b.pose) < 1e-6

    def test_roundtrip_bounds_and_counts(self, server, tmp_path):
        original, _ = server
        restored = _roundtrip(original, tmp_path / "server")
        assert restored.num_mappings == original.num_mappings
        low_a, high_a = original.bounds()
        low_b, high_b = restored.bounds()
        assert np.array_equal(low_a, low_b)
        assert np.array_equal(high_a, high_b)

    def test_empty_server_roundtrip(self, tmp_path):
        config = VisualPrintConfig(descriptor_capacity=2_000)
        server = VisualPrintServer(config)
        restored = _roundtrip(server, tmp_path / "empty")
        assert restored.num_mappings == 0


class TestLatencyE2E:
    def test_shape_cellular_vs_wifi(self):
        result = latency_e2e.run(num_frames=4, image_size=160)
        latencies = result["latencies"]
        # frame upload suffers far more than VisualPrint when moving from
        # wifi to 3g (the payload gap dominates serialization).
        frame_penalty = np.median(latencies["3g"]["frame_upload"]) - np.median(
            latencies["wifi"]["frame_upload"]
        )
        vp_penalty = np.median(latencies["3g"]["visualprint"]) - np.median(
            latencies["wifi"]["visualprint"]
        )
        assert frame_penalty > vp_penalty

    def test_payload_accounting(self):
        result = latency_e2e.run(num_frames=3, image_size=160)
        assert result["mean_fingerprint_bytes"] < result["mean_frame_bytes"]
        assert result["mean_compute_seconds"] > 0
