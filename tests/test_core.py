"""Unit tests for the VisualPrint core: config, oracle, client, fingerprint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Fingerprint,
    UniquenessOracle,
    VisualPrintClient,
    VisualPrintConfig,
)
from repro.features.keypoint import KeypointSet
from repro.wardrive.environment import random_sift_descriptor


@pytest.fixture(scope="module")
def config():
    return VisualPrintConfig(descriptor_capacity=20_000, fingerprint_size=20)


@pytest.fixture(scope="module")
def trained_oracle(config, descriptors_1k):
    oracle = UniquenessOracle(config)
    # First 100 descriptors inserted 30x ("common"); rest once ("unique").
    common = descriptors_1k[:100]
    unique = descriptors_1k[100:400]
    for _ in range(30):
        oracle.insert(common)
    oracle.insert(unique)
    return oracle


def _keypoints_from(descriptors):
    n = descriptors.shape[0]
    return KeypointSet(
        positions=np.zeros((n, 2), np.float32),
        scales=np.ones(n, np.float32),
        orientations=np.zeros(n, np.float32),
        responses=np.ones(n, np.float32),
        descriptors=descriptors.astype(np.float32),
    )


class TestConfig:
    def test_paper_operating_point(self):
        config = VisualPrintConfig()
        assert config.lsh.num_tables == 10
        assert config.lsh.num_projections == 7
        assert config.lsh.quantization_width == 500.0
        assert config.bloom_hashes == 8
        assert config.saturation == 1023

    def test_counters_scale_with_capacity(self):
        small = VisualPrintConfig(descriptor_capacity=10_000)
        large = VisualPrintConfig(descriptor_capacity=1_000_000)
        assert large.num_counters > small.num_counters

    def test_paper_scale(self):
        assert VisualPrintConfig().paper_scale().descriptor_capacity == 2_500_000

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            VisualPrintConfig(match_ratio=0.0)


class TestOracle:
    def test_common_counts_exceed_unique(self, trained_oracle, descriptors_1k):
        common_counts = trained_oracle.counts(descriptors_1k[:100])
        unique_counts = trained_oracle.counts(descriptors_1k[100:400])
        assert np.median(common_counts) > np.median(unique_counts)
        assert (common_counts >= 20).mean() > 0.8

    def test_unseen_counts_low(self, trained_oracle, rng):
        unseen = np.array([random_sift_descriptor(rng) for _ in range(100)])
        counts = trained_oracle.counts(unseen)
        assert np.median(counts) <= 1

    def test_ranking_prefers_rare_present(self, trained_oracle, descriptors_1k, rng):
        unseen = np.array([random_sift_descriptor(rng) for _ in range(20)])
        mixed = np.vstack(
            [descriptors_1k[:20], descriptors_1k[150:170], unseen]
        )  # 20 common, 20 unique, 20 unseen
        order = trained_oracle.rank_by_uniqueness(mixed)
        top20 = set(order[:20].tolist())
        # the unique block (indices 20..39) should dominate the top ranks
        assert len(top20 & set(range(20, 40))) >= 12

    def test_noise_never_inflates_counts(self, trained_oracle, descriptors_1k, rng):
        """The min estimate degrades toward zero under noise — it never
        makes content look MORE common (which would evict genuinely
        unique keypoints from the fingerprint)."""
        base = descriptors_1k[:50]
        noisy = np.clip(base + rng.normal(0, 1.5, base.shape), 0, 255)
        base_counts = trained_oracle.counts(base)
        noisy_counts = trained_oracle.counts(noisy)
        common = base_counts > 10
        assert (noisy_counts[common] <= base_counts[common] + 2).all()

    def test_lookup_present_and_count(self, trained_oracle, descriptors_1k):
        result = trained_oracle.lookup(descriptors_1k[0])
        assert result.present
        assert result.count >= 10

    def test_lookup_absent(self, trained_oracle, rng):
        result = trained_oracle.lookup(random_sift_descriptor(rng))
        assert not result.present

    def test_insert_count(self, config, descriptors_1k):
        oracle = UniquenessOracle(config)
        oracle.insert(descriptors_1k[:64])
        assert oracle.inserted_count == 64

    # Casting a non-finite projection to int64 warns before the range
    # check rejects it.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_rejected_untouched(self, config, descriptors_1k, value):
        oracle = UniquenessOracle(config)
        oracle.insert(descriptors_1k[:64])
        counters = oracle.counting.counters.copy()
        bits = oracle.verification.packed_bytes()
        with pytest.raises(ValueError):
            oracle.insert(np.full((1, 128), value, np.float32))
        assert oracle.inserted_count == 64
        assert np.array_equal(oracle.counting.counters, counters)
        assert oracle.verification.packed_bytes() == bits

    def test_bad_late_batch_rejects_whole_insert(self, config, descriptors_1k):
        oracle = UniquenessOracle(config)
        counters = oracle.counting.counters.copy()
        bits = oracle.verification.packed_bytes()
        rows = descriptors_1k[:300].copy()
        rows[250] = 1e12
        with pytest.raises(ValueError):
            oracle.insert(rows, batch_size=100)
        assert oracle.inserted_count == 0
        assert np.array_equal(oracle.counting.counters, counters)
        assert oracle.verification.packed_bytes() == bits

    def test_snapshot_roundtrip_counts(self, trained_oracle):
        from repro.bloom import deserialize_counting

        snapshot = trained_oracle.snapshot()
        restored = deserialize_counting(snapshot)
        assert np.array_equal(restored.counters, trained_oracle.counting.counters)

    def test_download_smaller_than_storage(self, trained_oracle):
        assert trained_oracle.download_bytes() < trained_oracle.storage_bytes()


class TestFingerprint:
    def test_wire_roundtrip(self, descriptors_1k):
        keypoints = _keypoints_from(descriptors_1k[:30])
        fingerprint = Fingerprint(
            keypoints=keypoints,
            uniqueness_counts=np.ones(30, dtype=np.int64),
            frame_index=4,
        )
        restored = Fingerprint.from_bytes(fingerprint.to_bytes(), frame_index=4)
        assert len(restored) == 30
        assert np.array_equal(
            restored.keypoints.descriptors, np.rint(keypoints.descriptors)
        )

    def test_upload_bytes_formula(self, descriptors_1k):
        keypoints = _keypoints_from(descriptors_1k[:10])
        fingerprint = Fingerprint(
            keypoints=keypoints, uniqueness_counts=np.zeros(10, dtype=np.int64)
        )
        assert fingerprint.upload_bytes == 8 + 10 * 144

    def test_count_alignment_enforced(self, descriptors_1k):
        with pytest.raises(ValueError):
            Fingerprint(
                keypoints=_keypoints_from(descriptors_1k[:5]),
                uniqueness_counts=np.zeros(3, dtype=np.int64),
            )


class TestClient:
    def test_fingerprint_size_respected(self, trained_oracle, config, descriptors_1k):
        client = VisualPrintClient(trained_oracle, config)
        keypoints = _keypoints_from(descriptors_1k[:200])
        fingerprint = client.fingerprint_keypoints(keypoints)
        assert len(fingerprint) == config.fingerprint_size

    def test_selects_unique_over_common(self, trained_oracle, config, descriptors_1k):
        client = VisualPrintClient(trained_oracle, config)
        # 100 common + 100 unique descriptors in one frame
        keypoints = _keypoints_from(
            np.vstack([descriptors_1k[:100], descriptors_1k[200:300]])
        )
        fingerprint = client.fingerprint_keypoints(keypoints)
        # kept counts should be far below the common descriptors' counts
        assert np.median(fingerprint.uniqueness_counts) <= 3

    def test_empty_frame(self, trained_oracle, config):
        client = VisualPrintClient(trained_oracle, config)
        fingerprint = client.fingerprint_keypoints(KeypointSet.empty())
        assert len(fingerprint) == 0
        assert client.metrics.counter("client_frames_total").value == 1

    def test_stats_accumulate(self, trained_oracle, config, descriptors_1k):
        client = VisualPrintClient(trained_oracle, config)
        keypoints = _keypoints_from(descriptors_1k[:50])
        client.fingerprint_keypoints(keypoints)
        client.fingerprint_keypoints(keypoints)
        assert client.metrics.counter("client_frames_total").value == 2
        assert client.metrics.counter("client_keypoints_extracted_total").value == 100
        assert client.metrics.counter("client_upload_bytes_total").value > 0
        assert client.latency_quantiles("oracle")[0.5] >= 0

    def test_unknown_stage(self, trained_oracle, config):
        client = VisualPrintClient(trained_oracle, config)
        with pytest.raises(ValueError):
            client.latency_quantiles("gpu")
