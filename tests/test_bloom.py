"""Unit + property tests for Bloom filters (classic, counting, verification)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import (
    BloomFilter,
    CountingBloomFilter,
    VerificationBloomFilter,
    deserialize_counting,
    optimal_num_bits,
    optimal_num_hashes,
    serialize_counting,
    serialize_verification,
)


def _vectors(rng, n, low=0, high=1000):
    return rng.integers(low, high, size=(n, 7)).astype(np.uint32)


class TestSizing:
    def test_optimal_bits_monotone_in_capacity(self):
        assert optimal_num_bits(2000, 0.01) > optimal_num_bits(1000, 0.01)

    def test_optimal_bits_monotone_in_fp(self):
        assert optimal_num_bits(1000, 0.001) > optimal_num_bits(1000, 0.01)

    def test_paper_scale(self):
        # 2.5M elements at 1%: ~24 Mbit ~ 3 MB of plain bits.
        bits = optimal_num_bits(2_500_000, 0.01)
        assert 20e6 < bits < 30e6

    def test_optimal_hashes(self):
        bits = optimal_num_bits(1000, 0.01)
        assert optimal_num_hashes(bits, 1000) in range(5, 10)

    def test_degenerate_fp_raises(self):
        with pytest.raises(ValueError):
            optimal_num_bits(100, 0.0)


class TestBloomFilter:
    def test_no_false_negatives(self, rng):
        bloom = BloomFilter.with_capacity(500)
        items = _vectors(rng, 200)
        bloom.add(items)
        assert bloom.contains(items).all()

    def test_unseen_mostly_absent(self, rng):
        bloom = BloomFilter.with_capacity(500, false_positive_rate=0.01)
        bloom.add(_vectors(rng, 200, 0, 1000))
        unseen = _vectors(rng, 500, 10_000, 20_000)
        assert bloom.contains(unseen).mean() < 0.05

    def test_fill_fraction_grows(self, rng):
        bloom = BloomFilter.with_capacity(1000)
        before = bloom.fill_fraction
        bloom.add(_vectors(rng, 300))
        assert bloom.fill_fraction > before

    def test_estimated_fp_rate_bounded(self, rng):
        bloom = BloomFilter.with_capacity(1000, false_positive_rate=0.01)
        bloom.add(_vectors(rng, 1000))
        assert bloom.estimated_false_positive_rate() < 0.05

    def test_inserted_count(self, rng):
        bloom = BloomFilter.with_capacity(100)
        bloom.add(_vectors(rng, 7))
        assert bloom.inserted_count == 7

    def test_mismatched_family_rejected(self, rng):
        from repro.hashing import Murmur3Family

        family = Murmur3Family(num_hashes=3, table_size=64)
        with pytest.raises(ValueError):
            BloomFilter(num_bits=128, num_hashes=3, hash_family=family)


class TestCountingBloomFilter:
    def test_count_accumulates(self, rng):
        cbf = CountingBloomFilter(1 << 12, 4)
        item = _vectors(rng, 1)
        for expected in range(1, 6):
            cbf.add(item)
            assert cbf.count(item)[0] == expected

    def test_count_never_underestimates(self, rng):
        cbf = CountingBloomFilter(1 << 14, 6)
        items = _vectors(rng, 100)
        cbf.add(items)
        cbf.add(items[:50])
        counts = cbf.count(items)
        assert (counts[:50] >= 2).all()
        assert (counts[50:] >= 1).all()

    def test_duplicates_within_batch(self, rng):
        cbf = CountingBloomFilter(1 << 12, 4)
        item = _vectors(rng, 1)
        batch = np.repeat(item, 5, axis=0)
        cbf.add(batch)
        assert cbf.count(item)[0] == 5

    def test_saturation(self, rng):
        cbf = CountingBloomFilter(1 << 10, 2, bits_per_counter=3)  # saturates at 7
        item = _vectors(rng, 1)
        for _ in range(20):
            cbf.add(item)
        assert cbf.count(item)[0] == 7
        assert cbf.is_saturated(item)[0]

    def test_contains(self, rng):
        cbf = CountingBloomFilter(1 << 12, 4)
        items = _vectors(rng, 10)
        cbf.add(items)
        assert cbf.contains(items).all()

    def test_storage_accounting(self):
        cbf = CountingBloomFilter(num_counters=1024, num_hashes=4, bits_per_counter=10)
        assert cbf.storage_bits() == 10240
        assert cbf.storage_bytes() == 1280

    def test_packed_roundtrip(self, rng):
        cbf = CountingBloomFilter(1 << 10, 4, bits_per_counter=10)
        cbf.add(_vectors(rng, 200))
        packed = cbf.packed_bytes()
        restored = CountingBloomFilter.from_packed_bytes(
            packed, num_counters=1 << 10, num_hashes=4, bits_per_counter=10
        )
        assert np.array_equal(restored.counters, cbf.counters)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=10, deadline=None)
    def test_packed_size_matches_bits(self, bits):
        cbf = CountingBloomFilter(256, 2, bits_per_counter=bits)
        assert len(cbf.packed_bytes()) == (256 * bits + 7) // 8

    def test_bits_per_counter_bounds(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(64, 2, bits_per_counter=17)


class TestVerificationBloomFilter:
    def test_verifies_inserted_tuples(self, rng):
        verification = VerificationBloomFilter(1 << 14)
        indices = rng.integers(0, 4096, size=(50, 8))
        verification.add(indices)
        assert verification.verify(indices).all()

    def test_rejects_unseen_tuples(self, rng):
        verification = VerificationBloomFilter(1 << 14)
        verification.add(rng.integers(0, 4096, size=(50, 8)))
        unseen = rng.integers(5000, 9000, size=(200, 8))
        assert verification.verify(unseen).mean() < 0.05

    def test_order_canonicalization(self, rng):
        verification = VerificationBloomFilter(1 << 12)
        indices = rng.integers(0, 1024, size=(1, 8))
        verification.add(indices)
        shuffled = indices[:, ::-1].copy()
        assert verification.verify(shuffled)[0]

    def test_packed_roundtrip(self, rng):
        verification = VerificationBloomFilter(1 << 10)
        verification.add(rng.integers(0, 256, size=(30, 4)))
        payload = verification.packed_bytes()
        other = VerificationBloomFilter(1 << 10)
        other.load_packed_bytes(payload)
        probe = rng.integers(0, 256, size=(30, 4))
        assert np.array_equal(verification.verify(probe), other.verify(probe))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            VerificationBloomFilter(64).add(np.zeros(4))


class TestSnapshotSerialization:
    def test_roundtrip(self, rng):
        cbf = CountingBloomFilter(1 << 12, 4)
        cbf.add(_vectors(rng, 500))
        snapshot = serialize_counting(cbf)
        restored = deserialize_counting(snapshot)
        assert np.array_equal(restored.counters, cbf.counters)
        assert restored.num_hashes == cbf.num_hashes

    def test_compression_ratio_reported(self, rng):
        cbf = CountingBloomFilter(1 << 14, 4)
        snapshot = serialize_counting(cbf)  # empty: highly compressible
        assert snapshot.compression_ratio > 10

    def test_compressibility_drops_with_saturation(self, rng):
        empty = serialize_counting(CountingBloomFilter(1 << 14, 4))
        full = CountingBloomFilter(1 << 14, 4)
        full.add(_vectors(rng, 5000, 0, 10**6))
        saturated = serialize_counting(full)
        # "compressibility reduces as the Bloom filter becomes more saturated"
        assert saturated.compressed_bytes > empty.compressed_bytes

    def test_bad_magic_rejected(self):
        import gzip

        with pytest.raises(ValueError):
            deserialize_counting(gzip.compress(b"XXXXgarbage"))


class TestReproduciblePayloads:
    def test_gzip_payloads_ignore_the_wall_clock(self, rng, monkeypatch):
        """GZIP header bytes 4-7 hold MTIME: every payload pins it to 0."""
        import time

        from repro.core import diff_counting_filters
        from repro.features import KeypointSet, serialize_keypoints

        old = CountingBloomFilter(1 << 12, 4)
        new = CountingBloomFilter(1 << 12, 4)
        new.add(_vectors(rng, 300))
        verification = VerificationBloomFilter(1 << 12)
        verification.add(rng.integers(0, 1024, size=(30, 4)))
        count = 20
        keypoints = KeypointSet(
            positions=rng.uniform(0, 100, (count, 2)).astype(np.float32),
            scales=np.ones(count, np.float32),
            orientations=np.zeros(count, np.float32),
            responses=np.ones(count, np.float32),
            descriptors=rng.integers(0, 256, (count, 128)).astype(np.float32),
        )

        def payloads() -> list[bytes]:
            return [
                serialize_counting(new).payload,
                serialize_verification(verification).payload,
                diff_counting_filters(old, new).payload,
                serialize_keypoints(keypoints, compress=True),
            ]

        monkeypatch.setattr(time, "time", lambda: 1_000_000_000.0)
        first = payloads()
        monkeypatch.setattr(time, "time", lambda: 1_700_000_000.0)
        assert payloads() == first
        assert all(payload[4:8] == bytes(4) for payload in first)
