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
from repro.localization import solver
from repro.localization.solver import angular_residuals, soft_l1_cost
from tests.clustering_reference import dbscan_labels_reference
from tests.solver_reference import (
    angular_residuals_reference,
    differential_evolution_reference,
    soft_l1_cost_reference,
)


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


def _largest_from_labels(labels: np.ndarray) -> np.ndarray:
    """The most populous label's indices, ties to the lowest label."""
    valid = labels[labels >= 0]
    if valid.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(labels == np.argmax(np.bincount(valid)))


def _assert_matches_bfs(points: np.ndarray, eps: float, min_samples: int) -> None:
    expected = dbscan_labels_reference(points, eps, min_samples)
    labels = dbscan_labels(points, eps, min_samples)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, expected)
    np.testing.assert_array_equal(
        largest_cluster(points, eps, min_samples), _largest_from_labels(expected)
    )


#: Lattice clouds: coordinates are multiples of ``step``, so many pairs
#: sit at exactly ``eps`` (or one rounding away from it) and repeated
#: cells are duplicate points.
_lattice_clouds = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
        max_size=60,
    ),
    st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]),
    st.sampled_from([1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0]),
)


class TestDbscanMatchesBfs:
    """Labels equal the seed-order breadth-first DBSCAN, numbering included."""

    @given(cloud=_lattice_clouds, min_samples=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_lattice_ties_and_duplicates(self, cloud, min_samples):
        cells, step, reach = cloud
        points = np.array(cells, dtype=np.float64).reshape(-1, 3) * step
        _assert_matches_bfs(points, step * reach, min_samples)

    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 120),
        eps=st.floats(0.2, 3.0),
        min_samples=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_clouds(self, seed, count, eps, min_samples):
        rng = np.random.default_rng(seed)
        centres = rng.uniform(0, 15, (3, 3))
        points = centres[rng.integers(0, 3, count)] + rng.normal(0, 0.8, (count, 3))
        # Duplicate a few points.
        source, target = rng.integers(0, max(count, 1), (2, count // 10))
        points[target] = points[source]
        _assert_matches_bfs(points, eps, min_samples)

    @pytest.mark.parametrize("min_samples", range(1, 9))
    def test_empty_single_and_all_noise(self, min_samples):
        _assert_matches_bfs(np.empty((0, 3)), 1.0, min_samples)
        _assert_matches_bfs(np.array([[1.0, 2.0, 3.0]]), 1.0, min_samples)
        scattered = np.arange(30, dtype=np.float64)[:, None] * [10.0, 0.0, 0.0]
        _assert_matches_bfs(scattered, 1.0, min_samples)

    @pytest.mark.parametrize("order", range(6))
    def test_border_point_takes_the_lowest_cluster(self, order):
        # Two dense clusters on the x axis and one non-core point that is
        # within eps of a core point of each.
        left = [[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]]
        right = [[1.7, 0, 0], [1.8, 0, 0], [1.9, 0, 0], [2.0, 0, 0]]
        points = np.array(left + right + [[1.0, 0, 0]])
        points = points[np.random.default_rng(order).permutation(9)]
        _assert_matches_bfs(points, 0.75, 4)
        labels = dbscan_labels(points, 0.75, 4)
        border = int(np.flatnonzero(points[:, 0] == 1.0)[0])
        assert labels[border] == 0
        assert sorted(set(labels.tolist())) == [0, 1]

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    @pytest.mark.parametrize("min_samples", [1, 2, 3, 4])
    def test_200_point_chain(self, order, min_samples):
        # Neighbours exactly eps apart: one cluster for min_samples <= 3.
        points = np.arange(200, dtype=np.float64)[:, None] * [0.5, 0.0, 0.0]
        if order == "reversed":
            points = points[::-1].copy()
        elif order == "shuffled":
            points = points[np.random.default_rng(200).permutation(200)]
        _assert_matches_bfs(points, 0.5, min_samples)
        clusters = set(dbscan_labels(points, 0.5, min_samples).tolist())
        assert clusters == ({0} if min_samples <= 3 else {-1})


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


class TestSolverMatchesReference:
    """The in-place DE generation gives the reference's poses bit for bit."""

    @staticmethod
    def _outcomes(problems, localizer):
        outcomes = []
        for problem in problems:
            solution = localizer.solve(problem)
            pose = solution.pose
            outcomes.append(
                (
                    pose.x, pose.y, pose.z, pose.yaw, pose.pitch, pose.roll,
                    solution.residual, solution.converged, solution.num_pairs,
                )
            )
        return outcomes

    @pytest.mark.parametrize("pixel_noise", [0.5, 4.0])
    @pytest.mark.parametrize(
        "options",
        [{}, {"seed": 3}, {"max_pairs": 40, "de_population": 8, "de_max_iterations": 200}],
    )
    def test_solve_identical(self, monkeypatch, pixel_noise, options):
        problems = [problem for _, problem in _pose_suite(pixel_noise, count=6)]
        localizer = AngularLocalizer(**options)
        library = self._outcomes(problems, localizer)
        monkeypatch.setattr(solver, "angular_residuals", angular_residuals_reference)
        monkeypatch.setattr(solver, "soft_l1_cost", soft_l1_cost_reference)
        monkeypatch.setattr(
            solver, "_differential_evolution", differential_evolution_reference
        )
        reference = self._outcomes(problems, localizer)
        # Compared as hex so that a residual of nan or inf compares too.
        assert [
            [value.hex() if isinstance(value, float) else value for value in row]
            for row in library
        ] == [
            [value.hex() if isinstance(value, float) else value for value in row]
            for row in reference
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_differential_evolution_identical(self, seed):
        """Same best point and stop generation, converged or not."""
        rng = np.random.default_rng(seed)
        centre = rng.uniform(0, 1, 3)
        low, high = np.zeros(3), np.array([2.0, 3.0, 0.5])

        def cost(points: np.ndarray) -> np.ndarray:
            return np.add.reduce((points - centre) ** 2, axis=-1) + 1.0

        stops = []
        for generations in (3, 40, 400):
            runs = []
            for function in (solver._differential_evolution, differential_evolution_reference):
                rng = np.random.default_rng(seed)
                best, converged = function(cost, low, high, 20, generations, rng)
                # The next draw shows how many draws the run took.
                runs.append(([value.hex() for value in best], converged, rng.random()))
            assert runs[0] == runs[1]
            stops.append(runs[0][1])
        assert stops[0] is False and stops[-1] is True

    @given(seed=st.integers(0, 2**32 - 1), population=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_objective_identical(self, seed, population):
        rng = np.random.default_rng(seed)
        positions = rng.uniform([0, 0, 0], [20, 20, 3], (population, 3))
        # Some points on top of a position: the 1e-9 floor and the clip.
        points_i, points_j = rng.uniform(-5, 25, (2, 80, 3))
        points_i[:3] = positions[0]
        perceived = rng.uniform(0, np.pi, 80)
        residuals = angular_residuals(positions, points_i, points_j, perceived)
        expected = angular_residuals_reference(positions, points_i, points_j, perceived)
        np.testing.assert_array_equal(residuals, expected)
        np.testing.assert_array_equal(
            soft_l1_cost(residuals), soft_l1_cost_reference(expected)
        )


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
