"""Edge-case and failure-injection tests across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import H264Codec, JpegCodec, PngCodec
from repro.core import Fingerprint, UniquenessOracle, VisualPrintConfig
from repro.evaluation.datasets import build_workload
from repro.features import SiftExtractor, SiftParams
from repro.features.keypoint import KeypointSet
from repro.imaging import to_uint8
from repro.lsh import E2LSHParams, LshIndex
from repro.localization import AngularLocalizer, LocalizationProblem
from repro.geometry import CameraIntrinsics


class TestTinyInputs:
    def test_sift_on_minimum_size_image(self):
        image = np.random.default_rng(0).random((16, 16)).astype(np.float32)
        keypoints = SiftExtractor().extract(image)
        assert isinstance(keypoints, KeypointSet)  # no crash; may be empty

    def test_png_on_single_row(self):
        image = np.arange(32, dtype=np.uint8).reshape(1, 32)
        codec = PngCodec()
        assert np.array_equal(codec.decode(codec.encode(image)), image)

    def test_jpeg_on_tiny_image(self):
        image = np.full((4, 4), 128, dtype=np.uint8)
        codec = JpegCodec(quality=90)
        decoded = codec.decode(codec.encode(image))
        assert decoded.shape == (4, 4)
        assert np.abs(decoded.astype(int) - 128).max() < 10

    def test_h264_single_frame(self):
        frame = np.zeros((32, 32), dtype=np.uint8)
        encoded = H264Codec().encode_sequence([frame])
        assert len(encoded) == 1
        assert encoded[0].frame_type == "I"

    def test_h264_empty_sequence(self):
        codec = H264Codec()
        assert codec.encode_sequence([]) == []
        assert codec.mean_bytes_per_frame([]) == 0.0

    def test_lsh_single_descriptor(self):
        index = LshIndex(E2LSHParams(num_tables=2))
        descriptor = np.full((1, 128), 100.0, dtype=np.float32)
        index.build(descriptor)
        ids = np.array([7])  # the caller's payload id for stored row 0
        _, rows, _ = index.query_batch(descriptor)
        assert ids[rows].tolist() == [7]


class TestDegenerateGeometry:
    def test_solver_with_collinear_points(self):
        """All 3D points on one line: the solve stays bounded."""
        intrinsics = CameraIntrinsics()
        pixels = np.column_stack(
            [np.linspace(100, 500, 8), np.full(8, intrinsics.height / 2)]
        )
        world = np.column_stack(
            [np.full(8, 10.0), np.linspace(-3, 3, 8), np.full(8, 1.5)]
        )
        problem = LocalizationProblem(
            pixels=pixels,
            world_points=world,
            intrinsics=intrinsics,
            bounds_low=np.zeros(3),
            bounds_high=np.array([20.0, 20.0, 3.0]),
        )
        solution = AngularLocalizer(seed=0, de_max_iterations=10).solve(problem)
        assert (solution.pose.position >= 0).all()
        assert (solution.pose.position <= [20, 20, 3]).all()

    def test_solver_with_duplicate_points(self):
        intrinsics = CameraIntrinsics()
        pixels = np.tile([[320.0, 240.0]], (5, 1))
        world = np.tile([[5.0, 5.0, 1.5]], (5, 1))
        problem = LocalizationProblem(
            pixels=pixels,
            world_points=world,
            intrinsics=intrinsics,
            bounds_low=np.zeros(3),
            bounds_high=np.ones(3) * 10,
        )
        solution = AngularLocalizer(seed=0, de_max_iterations=5).solve(problem)
        assert np.isfinite(solution.pose.position).all()


class TestOracleEdges:
    def test_empty_insert(self):
        oracle = UniquenessOracle(VisualPrintConfig(descriptor_capacity=2_000))
        oracle.insert(np.empty((0, 128), dtype=np.float32))
        assert oracle.inserted_count == 0

    def test_counts_on_empty_batch(self):
        oracle = UniquenessOracle(VisualPrintConfig(descriptor_capacity=2_000))
        counts = oracle.counts(np.empty((0, 128), dtype=np.float32))
        assert counts.shape == (0,)

    def test_saturated_descriptor_ranked_last(self, rng):
        from repro.wardrive.environment import random_sift_descriptor

        config = VisualPrintConfig(
            descriptor_capacity=2_000, bits_per_counter=4
        )  # saturates at 15
        oracle = UniquenessOracle(config)
        hot = random_sift_descriptor(rng)[np.newaxis, :]
        rare = random_sift_descriptor(rng)[np.newaxis, :]
        for _ in range(50):
            oracle.insert(hot)
        oracle.insert(rare)
        order = oracle.rank_by_uniqueness(np.vstack([hot, rare]))
        assert order[0] == 1  # rare first

    def test_fingerprint_from_bytes_empty(self):
        empty = Fingerprint(
            keypoints=KeypointSet.empty(),
            uniqueness_counts=np.empty(0, dtype=np.int64),
        )
        restored = Fingerprint.from_bytes(empty.to_bytes())
        assert len(restored) == 0


class TestWorkloadEdges:
    def test_single_scene_workload(self, tmp_path):
        workload = build_workload(
            seed=5,
            num_scenes=1,
            num_distractors=0,
            views_per_scene=1,
            image_size=128,
            cache_dir=tmp_path,
        )
        assert workload.num_database_images == 1
        assert workload.num_queries == 1
        # cached reload is identical
        again = build_workload(
            seed=5,
            num_scenes=1,
            num_distractors=0,
            views_per_scene=1,
            image_size=128,
            cache_dir=tmp_path,
        )
        assert np.array_equal(
            again.database_keypoints[0].descriptors,
            workload.database_keypoints[0].descriptors,
        )

    def test_cache_key_sensitive_to_params(self, tmp_path):
        a = build_workload(
            seed=5, num_scenes=1, num_distractors=0, views_per_scene=1,
            image_size=128, cache_dir=tmp_path,
        )
        b = build_workload(
            seed=6, num_scenes=1, num_distractors=0, views_per_scene=1,
            image_size=128, cache_dir=tmp_path,
        )
        assert not np.array_equal(
            a.database_keypoints[0].descriptors,
            b.database_keypoints[0].descriptors,
        )


class TestCodecAdversarial:
    def test_png_all_zero(self):
        image = np.zeros((64, 64), dtype=np.uint8)
        codec = PngCodec()
        payload = codec.encode(image)
        assert len(payload) < 200  # filters + deflate crush constants
        assert np.array_equal(codec.decode(payload), image)

    def test_png_alternating_extremes(self):
        image = np.indices((32, 32)).sum(axis=0).astype(np.uint8) % 2 * 255
        codec = PngCodec()
        assert np.array_equal(codec.decode(codec.encode(image)), image)

    def test_jpeg_extreme_values_clip_safely(self):
        image = np.zeros((16, 16), dtype=np.uint8)
        image[:8] = 255
        codec = JpegCodec(quality=50)
        decoded = codec.decode(codec.encode(image))
        assert decoded.min() >= 0 and decoded.max() <= 255
