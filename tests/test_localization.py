"""Unit tests for clustering, the angular solver, and error metrics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import CameraIntrinsics, PinholeCamera, Pose
from repro.localization import (
    AngularLocalizer,
    LocalizationProblem,
    dbscan_labels,
    error_by_axis,
    largest_cluster,
    localization_errors,
)
from repro.localization.solver import angular_residuals, soft_l1_cost


class TestDbscan:
    def test_two_clusters_found(self, rng):
        a = rng.normal(0, 0.2, (30, 3))
        b = rng.normal(10, 0.2, (20, 3))
        labels = dbscan_labels(np.vstack([a, b]), eps=1.0, min_samples=4)
        assert len(set(labels[labels >= 0])) == 2
        assert len(set(labels[:30])) == 1

    def test_noise_labeled_minus_one(self, rng):
        cluster = rng.normal(0, 0.1, (20, 3))
        outlier = np.array([[50.0, 50.0, 50.0]])
        labels = dbscan_labels(np.vstack([cluster, outlier]), eps=1.0, min_samples=4)
        assert labels[-1] == -1

    def test_largest_cluster_picks_biggest(self, rng):
        big = rng.normal(0, 0.2, (40, 3))
        small = rng.normal(10, 0.2, (10, 3))
        kept = largest_cluster(np.vstack([big, small]), eps=1.0, min_samples=4)
        assert set(kept.tolist()) <= set(range(40))
        assert kept.size >= 35

    def test_all_noise_empty(self, rng):
        scattered = rng.uniform(0, 100, (10, 3))
        assert largest_cluster(scattered, eps=0.1, min_samples=4).size == 0

    def test_empty_input(self):
        assert dbscan_labels(np.empty((0, 3)), eps=1.0).size == 0

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            dbscan_labels(np.zeros((3, 3)), eps=0.0)


def _make_problem(true_pose, num_points, rng, pixel_noise=0.5):
    """Project known landmarks through a camera and build the problem."""
    intrinsics = CameraIntrinsics()
    camera = PinholeCamera(intrinsics, true_pose)
    camera_points = np.column_stack(
        [
            rng.uniform(3, 9, num_points),
            rng.uniform(-2, 2, num_points),
            rng.uniform(-1, 1, num_points),
        ]
    )
    world = camera.pose.to_world(camera_points)
    pixels, visible = camera.project(world)
    pixels = pixels[visible] + rng.normal(0, pixel_noise, (visible.sum(), 2))
    return LocalizationProblem(
        pixels=pixels,
        world_points=world[visible],
        intrinsics=intrinsics,
        bounds_low=np.array([0.0, 0.0, 0.0]),
        bounds_high=np.array([20.0, 20.0, 3.0]),
    )


class TestAngularLocalizer:
    def test_recovers_camera_position(self, rng):
        true_pose = Pose(x=8.0, y=6.0, z=1.5, yaw=0.7)
        problem = _make_problem(true_pose, 25, rng)
        solution = AngularLocalizer(seed=1).solve(problem)
        assert solution.pose.position_error(true_pose) < 1.0

    def test_recovers_orientation(self, rng):
        true_pose = Pose(x=8.0, y=6.0, z=1.5, yaw=0.7)
        problem = _make_problem(true_pose, 25, rng, pixel_noise=0.1)
        solution = AngularLocalizer(seed=1).solve(problem)
        assert abs(solution.pose.yaw - true_pose.yaw) < 0.15

    def test_degrades_gracefully_with_noise(self, rng):
        true_pose = Pose(x=10.0, y=10.0, z=1.5, yaw=-0.4)
        quiet = AngularLocalizer(seed=2).solve(
            _make_problem(true_pose, 25, rng, pixel_noise=0.1)
        )
        noisy = AngularLocalizer(seed=2).solve(
            _make_problem(true_pose, 25, rng, pixel_noise=4.0)
        )
        assert quiet.residual <= noisy.residual + 0.05

    def test_too_few_points_falls_back(self):
        problem = LocalizationProblem(
            pixels=np.zeros((2, 2)),
            world_points=np.zeros((2, 3)),
            intrinsics=CameraIntrinsics(),
            bounds_low=np.zeros(3),
            bounds_high=np.ones(3) * 10,
        )
        solution = AngularLocalizer().solve(problem)
        assert not solution.converged
        assert solution.pose.x == pytest.approx(5.0)

    def test_pair_budget(self, rng):
        problem = _make_problem(Pose(x=5, y=5, z=1.5), 30, rng)
        solution = AngularLocalizer(max_pairs=40, seed=0).solve(problem)
        assert solution.num_pairs <= 40

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            LocalizationProblem(
                pixels=np.zeros((3, 2)),
                world_points=np.zeros((4, 3)),
                intrinsics=CameraIntrinsics(),
                bounds_low=np.zeros(3),
                bounds_high=np.ones(3),
            )


def _pose_suite(pixel_noise: float, count: int = 40):
    """Seeded (true pose, problem) pairs spread over a 20 x 20 x 3 m box."""
    rng = np.random.default_rng(2016)
    suite = []
    for _ in range(count):
        pose = Pose(
            x=rng.uniform(4, 16),
            y=rng.uniform(4, 16),
            z=rng.uniform(1.0, 2.0),
            yaw=rng.uniform(-np.pi, np.pi),
        )
        suite.append((pose, _make_problem(pose, 25, rng, pixel_noise=pixel_noise)))
    return suite


def _scalar_soft_l1(position, points_i, points_j, perceived) -> float:
    """Reference objective: one pair at a time, norms via np.linalg.norm."""
    total = 0.0
    for point_i, point_j, seen in zip(points_i, points_j, perceived):
        to_i, to_j = point_i - position, point_j - position
        safe = max(np.linalg.norm(to_i) * np.linalg.norm(to_j), 1e-9)
        angle = np.arccos(np.clip(np.dot(to_i, to_j) / safe, -1.0, 1.0))
        total += 2.0 * (np.sqrt(1.0 + (angle - seen) ** 2) - 1.0)
    return total


class TestAngularObjective:
    @given(
        seed=st.integers(0, 2**32 - 1),
        population=st.integers(1, 64),
        num_pairs=st.integers(1, 80),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_rows_match_scalar_objective(self, seed, population, num_pairs):
        rng = np.random.default_rng(seed)
        positions = rng.uniform([0, 0, 0], [20, 20, 3], (population, 3))
        points_i = rng.uniform(-5, 25, (num_pairs, 3))
        points_j = rng.uniform(-5, 25, (num_pairs, 3))
        perceived = rng.uniform(0, np.pi, num_pairs)
        residuals = angular_residuals(positions, points_i, points_j, perceived)
        batched = soft_l1_cost(residuals)
        assert batched.shape == (population,)
        for row, position in zip(batched, positions):
            expected = _scalar_soft_l1(position, points_i, points_j, perceived)
            np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_single_position_equals_batch_row(self):
        rng = np.random.default_rng(7)
        positions = rng.uniform(0, 10, (60, 3))
        points_i, points_j = rng.uniform(0, 10, (2, 80, 3))
        perceived = rng.uniform(0, np.pi, 80)
        batch = angular_residuals(positions, points_i, points_j, perceived)
        for index in (0, 17, 59):
            single = angular_residuals(
                positions[index][None], points_i, points_j, perceived
            )
            assert single.shape == (1, 80)
            np.testing.assert_array_equal(single[0], batch[index])


class TestAngularLocalizerContract:
    @pytest.mark.parametrize("count", range(3, 61))
    def test_select_pairs_matches_double_loop(self, count):
        localizer = AngularLocalizer(max_pairs=80)
        reference = np.array(
            [(i, j) for i in range(count) for j in range(i + 1, count)],
            dtype=np.int64,
        )
        reference_rng = np.random.default_rng(count)
        if reference.shape[0] > localizer.max_pairs:
            chosen = reference_rng.choice(
                reference.shape[0], size=localizer.max_pairs, replace=False
            )
            reference = reference[np.sort(chosen)]
        pairs = localizer._select_pairs(count, np.random.default_rng(count))
        assert pairs.dtype == np.int64
        np.testing.assert_array_equal(pairs, reference)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_solution_inside_bounds(self, seed):
        for _, problem in _pose_suite(4.0, count=6):
            pose = AngularLocalizer(seed=seed).solve(problem).pose
            position = np.array([pose.x, pose.y, pose.z])
            assert np.all(position >= problem.bounds_low)
            assert np.all(position <= problem.bounds_high)

    def test_bit_identical_across_processes_and_hash_seeds(self):
        script = (
            "import sys; sys.path.insert(0, 'tests')\n"
            "from test_localization import _pose_suite\n"
            "from repro.localization import AngularLocalizer\n"
            "for _, problem in _pose_suite(4.0, count=3):\n"
            "    pose = AngularLocalizer(seed=5).solve(problem).pose\n"
            "    print(*(v.hex() for v in (pose.x, pose.y, pose.z, pose.yaw)))\n"
        )
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(root / "src"), env.get("PYTHONPATH")])
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 3


class TestLocalizationAccuracy:
    """Seeded synthetic problems; bounds sit just above the scipy
    differential-evolution solver's figures on the same suite (median /
    max position error 0.006 / 0.013 m at 0.5 px noise and 0.049 / 0.110 m
    at 4 px, yaw error max 0.016 rad at 4 px)."""

    @pytest.mark.parametrize(
        "pixel_noise, median_limit, max_limit",
        [(0.5, 0.01, 0.02), (4.0, 0.06, 0.15)],
    )
    def test_position_error(self, pixel_noise, median_limit, max_limit):
        localizer = AngularLocalizer()
        errors, yaw_errors = [], []
        for true_pose, problem in _pose_suite(pixel_noise):
            pose = localizer.solve(problem).pose
            errors.append(pose.position_error(true_pose))
            wrapped = (pose.yaw - true_pose.yaw + np.pi) % (2 * np.pi) - np.pi
            yaw_errors.append(abs(wrapped))
        assert np.median(errors) <= median_limit
        assert np.max(errors) <= max_limit
        assert np.max(yaw_errors) <= 0.03


class TestMetrics:
    def test_localization_errors(self):
        estimated = [Pose(x=1.0), Pose(y=2.0)]
        truth = [Pose(), Pose()]
        errors = localization_errors(estimated, truth)
        assert errors.tolist() == [1.0, 2.0]

    def test_error_by_axis(self):
        estimated = [Pose(x=1.0, z=0.5)]
        truth = [Pose()]
        axes = error_by_axis(estimated, truth)
        assert axes["x"][0] == 1.0
        assert axes["y"][0] == 0.0
        assert axes["z"][0] == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            localization_errors([Pose()], [])
