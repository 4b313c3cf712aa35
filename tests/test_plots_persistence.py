"""Tests for ASCII plotting, server persistence, and the e2e latency driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Fingerprint, VisualPrintConfig, VisualPrintServer
from repro.core.persistence import ServerStateStore
from repro.evaluation.experiments import latency_e2e
from repro.evaluation.plots import ascii_boxplot, ascii_cdf, ascii_series
from repro.features.keypoint import KeypointSet
from repro.wardrive.environment import random_sift_descriptor


class TestAsciiPlots:
    def test_cdf_contains_markers_and_legend(self, rng):
        series = {"alpha": rng.normal(0, 1, 100), "beta": rng.normal(2, 1, 100)}
        rendered = ascii_cdf(series, label="meters")
        assert "a=alpha" in rendered and "b=beta" in rendered
        assert "meters" in rendered
        assert "a" in rendered.splitlines()[3]

    def test_cdf_monotone_marker_columns(self, rng):
        rendered = ascii_cdf({"x": rng.normal(0, 1, 200)}, width=40, height=8)
        # each column's marker row index must not increase left-to-right
        rows = [line.split("|", 1)[1] for line in rendered.splitlines()[:8]]
        first_marker_row = []
        for column in range(40):
            for row_index, row in enumerate(rows):
                if row[column] == "a":
                    first_marker_row.append(row_index)
                    break
        assert all(a >= b for a, b in zip(first_marker_row, first_marker_row[1:]))

    def test_boxplot_median_marker(self, rng):
        rendered = ascii_boxplot({"s": rng.uniform(0, 10, 50)})
        assert "#" in rendered
        assert "med=" in rendered

    def test_series_log_scale(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        rendered = ascii_series(
            xs, {"fps": np.array([1.0, 10.0, 100.0, 1000.0])}, log_y=True
        )
        assert "log y" in rendered

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ascii_cdf({})
        with pytest.raises(ValueError):
            ascii_boxplot({})

    def test_constant_series_handled(self):
        rendered = ascii_cdf({"c": np.full(10, 3.0)})
        assert "a=c" in rendered  # marker 'a' labels the series named 'c'


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
