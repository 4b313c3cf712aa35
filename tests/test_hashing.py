"""Unit + property tests for MurmurHash3 and the hash families."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    MultiplyShiftFamily,
    Murmur3Family,
    murmur3_32,
    murmur3_32_vectors,
)
from tests.oracle_reference import indices_reference


class TestMurmur3Scalar:
    # Reference vectors from the canonical C++ implementation.
    KNOWN = [
        (b"", 0, 0),
        (b"", 1, 0x514E28B7),
        (b"hello", 0, 0x248BFA47),
        (b"hello, world", 0, 0x149BBB7F),
        (b"The quick brown fox jumps over the lazy dog", 0, 0x2E4FF723),
    ]

    @pytest.mark.parametrize("data,seed,expected", KNOWN)
    def test_reference_vectors(self, data, seed, expected):
        assert murmur3_32(data, seed) == expected

    def test_deterministic(self):
        assert murmur3_32(b"abc") == murmur3_32(b"abc")

    def test_seed_changes_output(self):
        assert murmur3_32(b"abc", 0) != murmur3_32(b"abc", 1)

    def test_tail_handling(self):
        # 1-, 2-, 3-byte tails all take distinct code paths.
        values = {murmur3_32(b"a"), murmur3_32(b"ab"), murmur3_32(b"abc")}
        assert len(values) == 3

    @given(st.binary(max_size=64))
    @settings(max_examples=50)
    def test_output_is_32bit(self, data):
        assert 0 <= murmur3_32(data) < 2**32


class TestMurmur3Vectorized:
    def test_matches_scalar(self, rng):
        rows = rng.integers(0, 2**32, size=(64, 5), dtype=np.uint32)
        hashes = murmur3_32_vectors(rows, seed=9)
        for i in range(rows.shape[0]):
            assert hashes[i] == murmur3_32(rows[i].tobytes(), seed=9)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            murmur3_32_vectors(np.zeros(4, dtype=np.uint32))

    def test_distinct_rows_rarely_collide(self, rng):
        rows = rng.integers(0, 2**32, size=(5000, 3), dtype=np.uint32)
        hashes = murmur3_32_vectors(rows)
        # Birthday bound: expect < ~5 collisions among 5000 32-bit hashes.
        assert len(np.unique(hashes)) > 4990

    def test_empty_input(self):
        out = murmur3_32_vectors(np.zeros((0, 4), dtype=np.uint32))
        assert out.shape == (0,)


class TestHashFamilies:
    @pytest.mark.parametrize("family_cls", [Murmur3Family, MultiplyShiftFamily])
    def test_indices_shape_and_range(self, family_cls, rng):
        family = family_cls(num_hashes=4, table_size=1000)
        vectors = rng.integers(0, 100, size=(20, 7)).astype(np.uint32)
        indices = family.indices(vectors)
        assert indices.shape == (20, 4)
        assert indices.min() >= 0
        assert indices.max() < 1000

    def test_murmur_family_deterministic(self, rng):
        vectors = rng.integers(0, 100, size=(5, 7)).astype(np.uint32)
        a = Murmur3Family(4, 1000).indices(vectors)
        b = Murmur3Family(4, 1000).indices(vectors)
        assert np.array_equal(a, b)

    def test_murmur_family_seed_matters(self, rng):
        vectors = rng.integers(0, 100, size=(5, 7)).astype(np.uint32)
        a = Murmur3Family(4, 1000, base_seed=0).indices(vectors)
        b = Murmur3Family(4, 1000, base_seed=99).indices(vectors)
        assert not np.array_equal(a, b)

    def test_hashes_are_spread(self, rng):
        family = Murmur3Family(num_hashes=8, table_size=1 << 16)
        vectors = rng.integers(0, 2**20, size=(2000, 7)).astype(np.uint32)
        indices = family.indices(vectors).ravel()
        # Chi-square-ish sanity: occupancy within a factor of the mean.
        counts = np.bincount(indices % 64, minlength=64)
        assert counts.max() < 3 * counts.mean()

    @given(
        rows=st.integers(1, 12),
        words=st.integers(1, 9),
        base_seed=st.integers(0, 5000),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_murmur_family_matches_per_seed_reference(
        self, rows, words, base_seed, seed
    ):
        family = Murmur3Family(4, 1 << 20, base_seed=base_seed)
        vectors = np.random.default_rng(seed).integers(
            0, 2**32, size=(rows, words), dtype=np.uint32
        )
        np.testing.assert_array_equal(
            family.indices(vectors), indices_reference(family, vectors)
        )

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            Murmur3Family(0, 100)
        with pytest.raises(ValueError):
            Murmur3Family(4, 0)

    def test_multiply_shift_word_limit(self, rng):
        family = MultiplyShiftFamily(2, 100)
        too_wide = rng.integers(0, 10, size=(2, 65)).astype(np.uint64)
        with pytest.raises(ValueError):
            family.indices(too_wide)
