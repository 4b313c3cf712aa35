"""Unit tests for repro.util."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    check_in_range,
    check_positive,
    check_probability,
    check_shape,
    derive_seed,
    format_bytes,
    gzip_size,
    ndarray_nbytes,
    rng_for,
    spawn_children,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_for(7, "x").random(5)
        b = rng_for(7, "x").random(5)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        a = rng_for(7, "x").random(5)
        b = rng_for(7, "y").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_derive_seed_stable(self):
        assert derive_seed(7, "lsh") == derive_seed(7, "lsh")

    def test_spawn_children_count(self):
        children = spawn_children(3, "c", 4)
        assert len(children) == 4

    def test_spawn_children_independent(self):
        a, b = spawn_children(3, "c", 2)
        assert a.random() != b.random()

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_children(1, "c", -1)

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_in_64bit_range(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestSizes:
    def test_format_bytes_small(self):
        assert format_bytes(512) == "512 B"

    def test_format_bytes_kib(self):
        assert format_bytes(51.2 * 1024) == "51.2 KiB"

    def test_format_bytes_mib(self):
        assert format_bytes(10.5 * 1024 * 1024) == "10.5 MiB"

    def test_format_bytes_negative_raises(self):
        with pytest.raises(ValueError):
            format_bytes(-1)

    def test_gzip_size_compresses_redundancy(self):
        assert gzip_size(b"a" * 10_000) < 100

    def test_ndarray_nbytes_sums(self):
        a = np.zeros(10, dtype=np.float64)
        b = np.zeros(5, dtype=np.uint8)
        assert ndarray_nbytes(a, b) == 85


class TestValidation:
    def test_check_positive_accepts(self):
        check_positive("x", 1.0)

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_probability_bounds(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_in_range(self):
        check_in_range("v", 5, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("v", 11, 0, 10)

    def test_check_shape_exact(self):
        check_shape("a", np.zeros((3, 2)), (3, 2))

    def test_check_shape_wildcard(self):
        check_shape("a", np.zeros((7, 2)), (None, 2))

    def test_check_shape_rejects_ndim(self):
        with pytest.raises(ValueError):
            check_shape("a", np.zeros(3), (3, 1))

    def test_check_shape_rejects_extent(self):
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((3, 2)), (3, 5))
