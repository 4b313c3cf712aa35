"""Angular-constraint camera localization (the paper's Fig. 12 program).

The observation model: for any two matched keypoints *i, j*, the angle
at the camera between their viewing rays is fixed by their pixel
coordinates and the camera FoV alone (no pose needed) — Fig. 11's
``gamma`` geometry.  The unknown camera position ``A = (x, y, z)`` must
make the angles subtended by the keypoints' known 3D positions agree
with those perceived angles.  The paper decomposes angles into X/Z and
Y/Z components and minimizes summed residuals ``Ex_ij + Ey_ij`` via the
law of cosines; we use the equivalent decomposition-free form — the full
3D angle between rays, ``acos`` of the ray dot product — which carries
the same constraints without per-axis bookkeeping and is
rotation-invariant, so position solves without knowing orientation.

Following the paper we solve with "a time-bounded differential
evolution" (bounded by the venue extents), then polish with robust least
squares.  The differential evolution is owned here rather than borrowed
from scipy: ``best1bin`` with the mutation factor dithered in [0.5, 1)
once per generation, crossover 0.7 with one forced gene, a
Latin-hypercube start of ``de_population x 3`` individuals,
out-of-bounds genes re-drawn uniformly inside the box, deferred
(per-generation) selection and scipy's ``std(E) <= tol * |mean(E)|``
stop — scipy's algorithm and budget, but each generation scores the
whole population in one (population x pairs) array op instead of one
Python call per individual.  The DE, the polish and the final RMS all
go through one batched residual function, :func:`angular_residuals`.
Orientation is recovered afterwards by Kabsch alignment of the
camera-frame ray directions with the world-frame directions to the
matched points — yielding the full 6-DoF pose.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.geometry.camera import CameraIntrinsics
from repro.geometry.pose import Pose

__all__ = ["AngularLocalizer", "LocalizationProblem", "LocalizationSolution"]

# Differential-evolution settings: scipy's defaults for best1bin.
_DE_DITHER = (0.5, 1.0)
_DE_CROSSOVER = 0.7
_DE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class LocalizationProblem:
    """One query: matched 2D pixels with their retrieved 3D positions."""

    pixels: np.ndarray  # (n, 2)
    world_points: np.ndarray  # (n, 3)
    intrinsics: CameraIntrinsics
    bounds_low: np.ndarray  # (3,) venue bounding box
    bounds_high: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.shape[0] != self.world_points.shape[0]:
            raise ValueError("pixels and world points must align")

    @property
    def num_points(self) -> int:
        return int(self.pixels.shape[0])


@dataclass(frozen=True)
class LocalizationSolution:
    """Estimated 6-DoF pose plus solver diagnostics."""

    pose: Pose
    residual: float  # RMS angular residual, radians
    num_pairs: int
    converged: bool


def _ray_directions(pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Unit camera-frame ray directions for pixels (+X forward)."""
    cx, cy = intrinsics.center
    dir_y = -(pixels[:, 0] - cx) / intrinsics.focal_x
    dir_z = -(pixels[:, 1] - cy) / intrinsics.focal_y
    rays = np.column_stack([np.ones(pixels.shape[0]), dir_y, dir_z])
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def angular_residuals(
    positions: np.ndarray,
    points_i: np.ndarray,
    points_j: np.ndarray,
    perceived: np.ndarray,
) -> np.ndarray:
    """Angle residuals, shape (S, pairs), at each of ``S`` candidate positions.

    Row *s*, column *k* is the angle that ``points_i[k]`` and
    ``points_j[k]`` subtend at ``positions[s]`` minus ``perceived[k]``.
    """
    # Coordinate-major (3, S, pairs) offsets: with xyz as the innermost
    # axis every elementwise op runs a length-3 inner loop, ~2x slower.
    origin = np.ascontiguousarray(positions.T)[:, :, None]
    to_i = np.ascontiguousarray(points_i.T)[:, None, :] - origin
    to_j = np.ascontiguousarray(points_j.T)[:, None, :] - origin
    dot = np.einsum("ksp,ksp->sp", to_i, to_j)
    norm_i = np.einsum("ksp,ksp->sp", to_i, to_i)
    norm_j = np.einsum("ksp,ksp->sp", to_j, to_j)
    # arccos(clip(dot / max(|i| |j|, 1e-9), -1, 1)) - perceived, in place.
    np.sqrt(norm_i, out=norm_i)
    np.sqrt(norm_j, out=norm_j)
    safe = np.multiply(norm_i, norm_j, out=norm_i)
    np.maximum(safe, 1e-9, out=safe)
    cosine = np.divide(dot, safe, out=dot)
    np.maximum(cosine, -1.0, out=cosine)
    np.minimum(cosine, 1.0, out=cosine)
    angle = np.arccos(cosine, out=cosine)
    angle -= perceived
    return angle


def soft_l1_cost(residuals: np.ndarray) -> np.ndarray:
    """Soft-L1 sum of each row; keeps stray wrong matches from dominating.

    ``sum(2 (sqrt(1 + r^2) - 1))`` over the last axis, in one buffer.
    """
    cost = np.square(residuals)
    cost += 1.0
    np.sqrt(cost, out=cost)
    cost -= 1.0
    cost *= 2.0
    return np.add.reduce(cost, axis=-1)


def _differential_evolution(
    cost: Callable[[np.ndarray], np.ndarray],
    low: np.ndarray,
    high: np.ndarray,
    popsize: int,
    max_generations: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """Minimise ``cost`` over the box; returns (best point, converged).

    ``cost`` maps an (S, dim) array of points to S energies.  Individuals
    live in the unit cube and are scaled to the box only to be scored.
    """
    dim = low.size
    count = popsize * dim
    span = high - low
    rows = np.arange(count)
    # Latin hypercube: one sample per stratum, strata shuffled per gene.
    strata = (rng.uniform(size=(count, dim)) + rows[:, None]) / count
    members = np.take_along_axis(
        strata, np.argsort(rng.uniform(size=(count, dim)), axis=0), axis=0
    )
    energies = cost(low + members * span)
    converged = False
    for _ in range(max_generations):
        best = members[np.argmin(energies)]
        scale = rng.uniform(*_DE_DITHER)
        # Two distinct donors per individual, neither being the individual.
        donor_a = rng.integers(count - 1, size=count)
        donor_a += donor_a >= rows
        donor_b = rng.integers(count - 2, size=count)
        donor_b += donor_b >= np.minimum(rows, donor_a)
        donor_b += donor_b >= np.maximum(rows, donor_a)
        mutant = best + scale * (members[donor_a] - members[donor_b])
        crossover = rng.uniform(size=(count, dim)) < _DE_CROSSOVER
        crossover[rows, rng.integers(dim, size=count)] = True
        trial = np.where(crossover, mutant, members)
        outside = (trial < 0.0) | (trial > 1.0)
        trial[outside] = rng.uniform(size=np.count_nonzero(outside))
        trial_energies = cost(low + trial * span)
        accepted = trial_energies <= energies
        members[accepted] = trial[accepted]
        energies[accepted] = trial_energies[accepted]
        # np.std(E) <= tol * |np.mean(E)|, through the ufuncs those call.
        mean = np.add.reduce(energies) / count
        spread = np.sqrt(np.add.reduce(np.square(energies - mean)) / count)
        if spread <= _DE_TOLERANCE * abs(mean):
            converged = True
            break
    # Clipped: low + 1.0 * span can overshoot high by an ulp, and
    # least_squares rejects a start outside its bounds.
    best = np.clip(low + members[np.argmin(energies)] * span, low, high)
    return best, converged


class AngularLocalizer:
    """Solves :class:`LocalizationProblem` instances."""

    def __init__(
        self,
        max_pairs: int = 80,
        de_max_iterations: int = 40,
        de_population: int = 20,
        seed: int = 0,
    ) -> None:
        if max_pairs < 1:
            raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
        self.max_pairs = int(max_pairs)
        self.de_max_iterations = int(de_max_iterations)
        self.de_population = int(de_population)
        self.seed = int(seed)

    def _select_pairs(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Keypoint index pairs (i < j), subsampled to the pair budget."""
        pairs = np.column_stack(np.triu_indices(count, k=1)).astype(np.int64)
        if pairs.shape[0] > self.max_pairs:
            chosen = rng.choice(pairs.shape[0], size=self.max_pairs, replace=False)
            pairs = pairs[np.sort(chosen)]
        return pairs

    def solve(self, problem: LocalizationProblem) -> LocalizationSolution:
        """Estimate the camera pose for one query."""
        if problem.num_points < 3:
            center = (problem.bounds_low + problem.bounds_high) / 2.0
            return LocalizationSolution(
                pose=Pose(x=center[0], y=center[1], z=center[2]),
                residual=np.inf,
                num_pairs=0,
                converged=False,
            )
        rng = np.random.default_rng(self.seed)
        pairs = self._select_pairs(problem.num_points, rng)
        rays = _ray_directions(problem.pixels, problem.intrinsics)
        # Perceived angle per pair — pose-free, from pixels alone.
        cos_perceived = np.clip((rays[pairs[:, 0]] * rays[pairs[:, 1]]).sum(1), -1, 1)
        perceived = np.arccos(cos_perceived)
        points_i = problem.world_points[pairs[:, 0]]
        points_j = problem.world_points[pairs[:, 1]]
        low, high = problem.bounds_low, problem.bounds_high

        def residuals(positions: np.ndarray) -> np.ndarray:
            return angular_residuals(positions, points_i, points_j, perceived)

        start, de_converged = _differential_evolution(
            lambda positions: soft_l1_cost(residuals(positions)),
            low,
            high,
            self.de_population,
            self.de_max_iterations,
            rng,
        )
        polish = optimize.least_squares(
            lambda position: residuals(position[None])[0],
            start,
            loss="soft_l1",
            bounds=(low, high),
            max_nfev=200,
        )
        position = polish.x
        final = residuals(position[None])[0]
        rms = float(np.sqrt(np.mean(final**2)))

        pose = self._recover_orientation(problem, rays, position)
        return LocalizationSolution(
            pose=pose,
            residual=rms,
            num_pairs=int(pairs.shape[0]),
            converged=bool(de_converged or polish.success),
        )

    @staticmethod
    def _recover_orientation(
        problem: LocalizationProblem, rays: np.ndarray, position: np.ndarray
    ) -> Pose:
        """Kabsch-fit the rotation mapping camera rays onto world directions."""
        world_dirs = problem.world_points - position
        norms = np.linalg.norm(world_dirs, axis=1, keepdims=True)
        world_dirs = world_dirs / np.maximum(norms, 1e-9)
        covariance = rays.T @ world_dirs
        u, _, vt = np.linalg.svd(covariance)
        sign = np.sign(np.linalg.det(vt.T @ u.T))
        rotation = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
        yaw = float(np.arctan2(rotation[1, 0], rotation[0, 0]))
        pitch = float(np.arcsin(np.clip(-rotation[2, 0], -1.0, 1.0)))
        roll = float(np.arctan2(rotation[2, 1], rotation[2, 2]))
        return Pose(
            x=float(position[0]),
            y=float(position[1]),
            z=float(position[2]),
            yaw=yaw,
            pitch=pitch,
            roll=roll,
        )
