"""From-scratch SIFT detector + descriptor (Lowe 1999/2004).

The pipeline follows the standard construction used by OpenCV's default
SIFT (which the paper uses), vectorized over keypoints with numpy:

1. Gaussian scale-space pyramid and DoG stacks (:mod:`repro.features.gaussian`).
2. 3x3x3 DoG extrema with low-contrast rejection and Harris-style edge
   rejection, plus quadratic sub-pixel refinement.
3. Orientation assignment from a 36-bin gradient histogram around each
   keypoint; secondary peaks above 80% of the maximum spawn additional
   keypoints at the same location.
4. 128-D descriptors: a 16x16 sample grid around the keypoint (rotated to
   its orientation, scaled to its sigma) accumulated into 4x4 spatial x 8
   orientation bins with trilinear interpolation; normalized, clamped at
   0.2, renormalized, and quantized to integers in 0..255 — the integer
   descriptors VisualPrint hashes, ranks, and ships.

Hot-path layout (the per-frame client cost lives here):

* Extrema detection runs as separable shifted-window max/min reductions
  in pure numpy — no scipy filter calls — and is exactly equal to a
  scipy ``maximum_filter`` on every eligible voxel.
* Gradient maps are computed once per octave (batched over the candidate
  levels) and shared between orientation assignment and description,
  instead of twice per level.
* Orientation histograms for the whole octave accumulate through a
  single ``bincount`` scatter; smoothing, peak finding, and parabolic
  interpolation run once over all candidates.
* The 8-corner trilinear descriptor scatter collapses to a precomputed
  spatial scatter matrix (the sample grid is fixed in the descriptor
  frame, so spatial corner indices/weights never depend on the keypoint)
  applied with one batched matmul over an orientation-corner tensor.

The pre-vectorization pipeline lives on as the test-only reference in
``tests/sift_reference.py`` — the ground truth the hypothesis parity
suite (tests/test_sift_parity.py) and the ``bench_sift`` trajectory
compare against.  Geometry (positions, scales, orientations, responses)
is bit-identical; descriptor floats reassociate in the matmul, so final
integer descriptors may differ by ±1 quantization step (documented
tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.gaussian import DogPyramid, GaussianPyramid
from repro.features.keypoint import DESCRIPTOR_DIM, KeypointSet
from repro.obs import MetricsRegistry, resolve_registry

__all__ = ["SiftParams", "SiftExtractor"]


@dataclass(frozen=True)
class SiftParams:
    """SIFT tuning knobs (defaults mirror the common OpenCV operating point)."""

    scales_per_octave: int = 3
    base_sigma: float = 1.6
    contrast_threshold: float = 0.03
    edge_ratio: float = 10.0
    num_orientation_bins: int = 36
    orientation_peak_ratio: float = 0.8
    descriptor_grid: int = 16  # 16x16 samples
    descriptor_spatial_bins: int = 4  # 4x4 regions
    descriptor_orientation_bins: int = 8
    descriptor_scale_factor: float = 3.0  # bin width = 3 sigma
    descriptor_clip: float = 0.2
    max_keypoints: int | None = None

    def __post_init__(self) -> None:
        if self.scales_per_octave < 1:
            raise ValueError("scales_per_octave must be >= 1")
        if not 0 < self.orientation_peak_ratio <= 1:
            raise ValueError("orientation_peak_ratio must be in (0, 1]")
        expected_dim = self.descriptor_spatial_bins**2 * self.descriptor_orientation_bins
        if expected_dim != DESCRIPTOR_DIM:
            raise ValueError(
                f"descriptor bins yield dimension {expected_dim}, expected {DESCRIPTOR_DIM}"
            )


class SiftExtractor:
    """Detect keypoints and compute 128-D descriptors for one image.

    >>> import numpy as np
    >>> from repro.imaging import value_noise_texture
    >>> from repro.util import rng_for
    >>> image = value_noise_texture((128, 128), rng_for(0, "doc"))
    >>> keypoints = SiftExtractor().extract(image)
    >>> keypoints.descriptors.shape[1]
    128
    """

    def __init__(
        self,
        params: SiftParams | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.params = params or SiftParams()
        self._registry = resolve_registry(registry)
        self._m_candidates_dropped = self._registry.counter(
            "sift_candidates_dropped_total",
            help="extrema dropped because the orientation window outgrew the octave",
        )
        # Per-frame reusable DoG buffers (shape-keyed; see DogPyramid).
        self._dog_scratch: dict[tuple[int, int, int], np.ndarray] = {}
        # Shape-keyed buffers for the shifted-window extrema reductions.
        self._detect_scratch: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}
        # sigma-keyed orientation window weights (per-level constants).
        self._orientation_windows: dict[float, tuple[int, np.ndarray]] = {}
        self._descriptor_tables_cache: tuple[np.ndarray, ...] | None = None

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this extractor reports into."""
        return self._registry

    def extract(self, image: np.ndarray) -> KeypointSet:
        """Run the full pipeline on a float grayscale image in ``[0, 1]``."""
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 2:
            raise ValueError(f"image must be 2-D grayscale, got shape {image.shape}")
        params = self.params
        pyramid = GaussianPyramid.build(
            image,
            scales_per_octave=params.scales_per_octave,
            base_sigma=params.base_sigma,
        )
        dog = DogPyramid.from_gaussian(pyramid, scratch=self._dog_scratch)
        parts: list[KeypointSet] = []
        for octave in range(dog.num_octaves):
            candidates = self._detect_octave(dog, octave)
            if candidates.shape[0] == 0:
                continue
            stack = pyramid.octaves[octave]
            levels_int = np.clip(
                np.rint(candidates[:, 0]).astype(int), 1, stack.shape[0] - 2
            )
            gradients = self._octave_gradients(stack, np.unique(levels_int))
            oriented = self._assign_orientations(
                pyramid, octave, candidates, gradients=gradients
            )
            if oriented.shape[0] == 0:
                continue
            parts.append(
                self._describe(pyramid, octave, oriented, gradients=gradients)
            )
        keypoints = KeypointSet.concatenate(parts)
        if params.max_keypoints is not None:
            keypoints = keypoints.top_by_response(params.max_keypoints)
        return keypoints

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def _detect_octave(self, dog: DogPyramid, octave: int) -> np.ndarray:
        """Find refined extrema in one octave.

        Returns ``(n, 4)`` float64 rows of (level, y, x, response) in
        octave-local coordinates, with sub-pixel offsets applied.

        The 3x3x3 neighborhood max/min are separable shifted-window
        reductions evaluated on the interior voxels only; every
        candidate the reference's boundary-padded scipy filters could
        accept sits inside the 5-pixel margin anyway, so the masks are
        exactly equal (asserted by the parity suite).
        """
        params = self.params
        stack = dog.octaves[octave]
        num_levels = stack.shape[0]
        if num_levels < 3 or stack.shape[1] < 3 or stack.shape[2] < 3:
            return np.empty((0, 4))
        threshold = params.contrast_threshold * 0.5

        # Reusable per-shape scratch: the same octave shapes recur every
        # frame, so the shifted-window reductions run allocation-free.
        shape_x = (num_levels, stack.shape[1], stack.shape[2] - 2)
        shape_xy = (num_levels, stack.shape[1] - 2, stack.shape[2] - 2)
        scratch = self._detect_scratch.get(shape_xy)
        if scratch is None:
            scratch = self._detect_scratch[shape_xy] = (
                np.empty(shape_x, dtype=np.float32),
                np.empty(shape_x, dtype=np.float32),
                np.empty(shape_xy, dtype=np.float32),
                np.empty(shape_xy, dtype=np.float32),
            )
        row_max, row_min, spatial_max, spatial_min = scratch
        np.maximum(stack[:, :, :-2], stack[:, :, 1:-1], out=row_max)
        np.maximum(row_max, stack[:, :, 2:], out=row_max)
        np.minimum(stack[:, :, :-2], stack[:, :, 1:-1], out=row_min)
        np.minimum(row_min, stack[:, :, 2:], out=row_min)
        np.maximum(row_max[:, :-2, :], row_max[:, 1:-1, :], out=spatial_max)
        np.maximum(spatial_max, row_max[:, 2:, :], out=spatial_max)
        np.minimum(row_min[:, :-2, :], row_min[:, 1:-1, :], out=spatial_min)
        np.minimum(spatial_min, row_min[:, 2:, :], out=spatial_min)
        center = stack[1:-1, 1:-1, 1:-1]
        # The level reduction writes into the scratch's own interior, one
        # shifted pairwise op at a time (safe: reads stay ahead of writes).
        window_max = np.maximum(spatial_max[:-2], spatial_max[1:-1])
        np.maximum(window_max, spatial_max[2:], out=window_max)
        window_min = np.minimum(spatial_min[:-2], spatial_min[1:-1])
        np.minimum(window_min, spatial_min[2:], out=window_min)
        is_extremum = center == window_max
        is_extremum &= center > threshold
        is_minimum = center == window_min
        is_minimum &= center < -threshold
        is_extremum |= is_minimum
        # 5-pixel margin in full-stack coordinates; the interior crop
        # already removed one pixel per side.
        trim = 5 - 1
        is_extremum[:, :trim, :] = False
        is_extremum[:, -trim:, :] = False
        is_extremum[:, :, :trim] = False
        is_extremum[:, :, -trim:] = False

        levels, ys, xs = np.nonzero(is_extremum)
        if levels.size == 0:
            return np.empty((0, 4))
        levels = levels + 1
        ys = ys + 1
        xs = xs + 1

        refined = self._refine(stack, levels, ys, xs)
        if refined.shape[0] == 0:
            return np.empty((0, 4))
        keep = self._reject_edges(stack, refined)
        return refined[keep]

    def _refine(
        self, stack: np.ndarray, levels: np.ndarray, ys: np.ndarray, xs: np.ndarray
    ) -> np.ndarray:
        """Quadratic sub-pixel refinement + interpolated-contrast check."""
        params = self.params
        # First derivatives (central differences at the candidate points).
        d_level = 0.5 * (stack[levels + 1, ys, xs] - stack[levels - 1, ys, xs])
        d_y = 0.5 * (stack[levels, ys + 1, xs] - stack[levels, ys - 1, xs])
        d_x = 0.5 * (stack[levels, ys, xs + 1] - stack[levels, ys, xs - 1])
        center = stack[levels, ys, xs]
        # Diagonal second derivatives (a diagonal Hessian approximation
        # keeps the refinement stable and fully vectorized).
        h_ll = stack[levels + 1, ys, xs] + stack[levels - 1, ys, xs] - 2 * center
        h_yy = stack[levels, ys + 1, xs] + stack[levels, ys - 1, xs] - 2 * center
        h_xx = stack[levels, ys, xs + 1] + stack[levels, ys, xs - 1] - 2 * center

        with np.errstate(divide="ignore", invalid="ignore"):
            off_level = np.where(np.abs(h_ll) > 1e-8, -d_level / h_ll, 0.0)
            off_y = np.where(np.abs(h_yy) > 1e-8, -d_y / h_yy, 0.0)
            off_x = np.where(np.abs(h_xx) > 1e-8, -d_x / h_xx, 0.0)
        off_level = np.clip(off_level, -0.5, 0.5)
        off_y = np.clip(off_y, -0.5, 0.5)
        off_x = np.clip(off_x, -0.5, 0.5)

        interpolated = center + 0.5 * (d_level * off_level + d_y * off_y + d_x * off_x)
        keep = np.abs(interpolated) >= params.contrast_threshold
        return np.column_stack(
            [
                levels[keep] + off_level[keep],
                ys[keep] + off_y[keep],
                xs[keep] + off_x[keep],
                interpolated[keep],
            ]
        )

    def _reject_edges(self, stack: np.ndarray, refined: np.ndarray) -> np.ndarray:
        """Harris-style rejection of DoG responses on straight edges."""
        ratio = self.params.edge_ratio
        levels = np.clip(np.rint(refined[:, 0]).astype(int), 0, stack.shape[0] - 1)
        ys = np.clip(np.rint(refined[:, 1]).astype(int), 1, stack.shape[1] - 2)
        xs = np.clip(np.rint(refined[:, 2]).astype(int), 1, stack.shape[2] - 2)
        center = stack[levels, ys, xs]
        dxx = stack[levels, ys, xs + 1] + stack[levels, ys, xs - 1] - 2 * center
        dyy = stack[levels, ys + 1, xs] + stack[levels, ys - 1, xs] - 2 * center
        dxy = 0.25 * (
            stack[levels, ys + 1, xs + 1]
            - stack[levels, ys + 1, xs - 1]
            - stack[levels, ys - 1, xs + 1]
            + stack[levels, ys - 1, xs - 1]
        )
        trace = dxx + dyy
        det = dxx * dyy - dxy**2
        bound = (ratio + 1.0) ** 2 / ratio
        return (det > 0) & (trace**2 / np.maximum(det, 1e-12) < bound)

    # ------------------------------------------------------------------
    # Orientation
    # ------------------------------------------------------------------

    @staticmethod
    def _octave_gradients(
        stack: np.ndarray, levels: np.ndarray
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Gradient maps for the requested levels, one batched pass.

        Shared between :meth:`_assign_orientations` and :meth:`_describe`
        so each level's gradients are computed exactly once per frame
        (the reference recomputed them in both stages).  Elementwise
        identical to per-level ``np.gradient`` calls.
        """
        selected = np.asarray(levels, dtype=int)
        if selected.size == 0:
            return {}
        sub = stack[selected]
        gy, gx = np.gradient(sub, axis=(1, 2))
        magnitude = np.hypot(gx, gy)
        angle = np.arctan2(gy, gx)
        return {
            int(level): (magnitude[i], angle[i])
            for i, level in enumerate(selected)
        }

    def _assign_orientations(
        self,
        pyramid: GaussianPyramid,
        octave: int,
        candidates: np.ndarray,
        gradients: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> np.ndarray:
        """Attach one or more orientations to each candidate.

        Returns ``(m, 5)`` rows (level, y, x, response, orientation);
        ``m >= n`` because secondary histogram peaks duplicate keypoints.

        Whole-octave batched: per candidate level only the window gather
        runs (window radius is a per-level constant), all scattered into
        one flat ``bincount``; smoothing, peak detection, and parabolic
        interpolation run once over every candidate of the octave.
        Bit-identical to the reference, including row order
        (candidates are processed in ascending level, original order
        within a level — exactly the reference's ``np.unique`` walk).

        Candidates whose orientation window cannot fit the octave image
        at any center pixel (tiny images reaching high levels) are
        dropped and counted in ``sift_candidates_dropped_total``.
        """
        params = self.params
        stack = pyramid.octaves[octave]
        num_bins = params.num_orientation_bins
        height, width = stack.shape[1], stack.shape[2]

        levels_int = np.clip(
            np.rint(candidates[:, 0]).astype(int), 1, stack.shape[0] - 2
        )
        order = np.argsort(levels_int, kind="stable")
        sorted_levels = levels_int[order]
        sorted_candidates = candidates[order]
        if gradients is None:
            gradients = self._octave_gradients(stack, np.unique(sorted_levels))

        kept_rows: list[np.ndarray] = []
        flat_parts: list[np.ndarray] = []
        weight_parts: list[np.ndarray] = []
        total = 0
        dropped = 0
        for level in np.unique(sorted_levels):
            rows = sorted_candidates[sorted_levels == level]
            sigma = 1.5 * float(pyramid.sigmas[level])
            window = self._orientation_windows.get(sigma)
            if window is None:
                radius = max(2, int(round(3.0 * sigma)))
                offsets = np.arange(-radius, radius + 1)
                weight_1d = np.exp(-(offsets**2) / (2.0 * sigma**2))
                window = self._orientation_windows[sigma] = (
                    radius,
                    np.outer(weight_1d, weight_1d)[None, :, :],  # (1, P, P)
                )
            radius, window_weight = window
            if 2 * radius + 1 > min(height, width):
                # The orientation window does not fit the octave image at
                # any center pixel; np.clip with lo > hi would silently
                # produce an out-of-bounds gather, so these candidates
                # are dropped — and now counted (satellite fix; the seed
                # dropped them with no signal).
                dropped += rows.shape[0]
                continue
            magnitude, angle = gradients[int(level)]

            ys = np.clip(np.rint(rows[:, 1]).astype(int), radius, height - radius - 1)
            xs = np.clip(np.rint(rows[:, 2]).astype(int), radius, width - radius - 1)
            # Gather (k, P, P) windows through one flat int32 index array.
            offsets = np.arange(-radius, radius + 1, dtype=np.int32)
            flat_window = (
                (ys * width + xs).astype(np.int32)[:, None, None]
                + (offsets * np.int32(width))[None, :, None]
                + offsets[None, None, :]
            )
            win_mag = magnitude.ravel()[flat_window] * window_weight
            win_ang = angle.ravel()[flat_window]

            # Exact reference op order: + pi, / 2pi, * bins, floor (via
            # int truncation — the operand is non-negative).
            win_ang = win_ang + np.pi
            win_ang /= 2 * np.pi
            win_ang *= num_bins
            bins = win_ang.astype(np.int64)
            np.clip(bins, 0, num_bins - 1, out=bins)
            k = rows.shape[0]
            bins += (np.arange(k, dtype=np.int64)[:, None, None] + total) * num_bins
            flat_parts.append(bins.ravel())
            weight_parts.append(win_mag.ravel())
            kept_rows.append(rows)
            total += k
        if dropped:
            self._m_candidates_dropped.inc(dropped)
        if total == 0:
            return np.empty((0, 5))

        rows = np.concatenate(kept_rows)
        histograms = np.bincount(
            np.concatenate(flat_parts),
            weights=np.concatenate(weight_parts),
            minlength=total * num_bins,
        ).reshape(total, num_bins)

        # Two passes of circular [1, 1, 1] / 3 smoothing.
        for _ in range(2):
            histograms = (
                np.roll(histograms, 1, axis=1)
                + histograms
                + np.roll(histograms, -1, axis=1)
            ) / 3.0

        peak_value = histograms.max(axis=1, keepdims=True)
        left = np.roll(histograms, 1, axis=1)
        right = np.roll(histograms, -1, axis=1)
        is_peak = (
            (histograms >= left)
            & (histograms > right)
            & (histograms >= params.orientation_peak_ratio * peak_value)
            & (peak_value > 0)
        )
        kp_index, bin_index = np.nonzero(is_peak)
        if kp_index.size == 0:
            return np.empty((0, 5))
        # Parabolic interpolation of the peak bin.
        center_v = histograms[kp_index, bin_index]
        left_v = left[kp_index, bin_index]
        right_v = right[kp_index, bin_index]
        denominator = left_v - 2 * center_v + right_v
        shift = np.where(
            np.abs(denominator) > 1e-12,
            0.5 * (left_v - right_v) / denominator,
            0.0,
        )
        shift = np.clip(shift, -0.5, 0.5)
        orientation = ((bin_index + 0.5 + shift) / num_bins) * 2 * np.pi - np.pi
        selected = rows[kp_index]
        return np.column_stack(
            [
                selected[:, 0],
                selected[:, 1],
                selected[:, 2],
                selected[:, 3],
                orientation,
            ]
        )

    # ------------------------------------------------------------------
    # Description
    # ------------------------------------------------------------------

    def _descriptor_tables(self) -> tuple[np.ndarray, ...]:
        """Precomputed per-sample descriptor geometry (params-invariant).

        ``flat_u`` / ``flat_v``: sample grid offsets in bin units.
        ``sample_weight``: the descriptor's Gaussian window per sample.
        ``spatial_scatter``: the ``(samples, spatial_bins**2)`` bilinear
        scatter matrix.  The sample grid lives in the descriptor frame,
        so each sample's spatial corner bins and weights are the same
        for every keypoint — the four spatial corners of the reference's
        trilinear scatter, precomputed once (guard-bin clipping
        included); only the orientation corners vary per keypoint.
        """
        tables = self._descriptor_tables_cache
        if tables is not None:
            return tables
        params = self.params
        grid = params.descriptor_grid
        spatial_bins = params.descriptor_spatial_bins
        steps = (np.arange(grid) + 0.5) / grid * spatial_bins - spatial_bins / 2.0
        grid_u, grid_v = np.meshgrid(steps, steps)  # u: x-direction, v: y
        flat_u = grid_u.ravel()
        flat_v = grid_v.ravel()
        # Gaussian window over the descriptor, sigma = half the window.
        window_sigma = 0.5 * spatial_bins
        sample_weight = np.exp(
            -(flat_u**2 + flat_v**2) / (2.0 * window_sigma**2)
        ).astype(np.float32)

        padded = spatial_bins + 2  # one guard bin on each side
        row_bin = flat_v + spatial_bins / 2.0 - 0.5
        col_bin = flat_u + spatial_bins / 2.0 - 0.5
        row_floor = np.floor(row_bin).astype(int)
        col_floor = np.floor(col_bin).astype(int)
        row_frac = row_bin - row_floor
        col_frac = col_bin - col_floor
        num_samples = flat_u.size
        scatter = np.zeros((num_samples, padded, padded))
        sample_index = np.arange(num_samples)
        for d_row in (0, 1):
            w_row = row_frac if d_row else 1.0 - row_frac
            row_index = np.clip(row_floor + d_row + 1, 0, padded - 1)
            for d_col in (0, 1):
                w_col = col_frac if d_col else 1.0 - col_frac
                col_index = np.clip(col_floor + d_col + 1, 0, padded - 1)
                np.add.at(
                    scatter, (sample_index, row_index, col_index), w_row * w_col
                )
        spatial_scatter = np.ascontiguousarray(
            scatter[:, 1 : spatial_bins + 1, 1 : spatial_bins + 1].reshape(
                num_samples, spatial_bins * spatial_bins
            ).T,
            dtype=np.float32,
        )  # (spatial_bins**2, samples); the bilinear weights are dyadic
        # rationals with few mantissa bits, so float32 holds them exactly
        tables = (flat_u, flat_v, sample_weight, spatial_scatter)
        self._descriptor_tables_cache = tables
        return tables

    def _describe(
        self,
        pyramid: GaussianPyramid,
        octave: int,
        oriented: np.ndarray,
        gradients: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> KeypointSet:
        """Compute descriptors for all oriented keypoints of one octave.

        One batched pass over every keypoint of the octave: the only
        per-level work left is the gradient-map gather.  The trilinear
        scatter runs as an orientation-corner scatter into a dense
        ``(k, samples, ori_bins)`` tensor followed by one matmul with
        the precomputed spatial scatter matrix — no ``bincount`` at all.
        Geometry matches the reference bit for bit; descriptor sums
        reassociate in the matmul (±1 integer step after quantization).
        """
        params = self.params
        stack = pyramid.octaves[octave]
        ori_bins = params.descriptor_orientation_bins
        spatial_bins = params.descriptor_spatial_bins
        height, width = stack.shape[1], stack.shape[2]
        flat_u, flat_v, sample_weight, spatial_scatter = self._descriptor_tables()

        if oriented.shape[0] == 0:
            return KeypointSet.empty()
        levels_int = np.clip(
            np.rint(oriented[:, 0]).astype(int), 1, stack.shape[0] - 2
        )
        # Ascending level, stable within a level — the reference's
        # per-level concatenation order.
        order = np.argsort(levels_int, kind="stable")
        rows = oriented[order]
        sorted_levels = levels_int[order]
        if gradients is None:
            gradients = self._octave_gradients(stack, np.unique(sorted_levels))

        k = rows.shape[0]
        num_samples = flat_u.size
        theta = rows[:, 4]
        cos_t = np.cos(theta)[:, None]
        sin_t = np.sin(theta)[:, None]
        bin_width = (
            params.descriptor_scale_factor * pyramid.sigmas[sorted_levels]
        )[:, None]
        # Rotate the grid into each keypoint's frame; offsets in pixels.
        # Sample coordinates stay float64: rint is discontinuous, and a
        # one-ulp drift across a .5 boundary would move a sample to a
        # different pixel entirely (unbounded descriptor change).
        du = (flat_u[None, :] * cos_t - flat_v[None, :] * sin_t) * bin_width
        dv = (flat_u[None, :] * sin_t + flat_v[None, :] * cos_t) * bin_width
        np.add(du, rows[:, 2][:, None], out=du)
        np.add(dv, rows[:, 1][:, None], out=dv)
        sample_x = np.rint(du).astype(np.int32)
        sample_y = np.rint(dv).astype(np.int32)
        np.clip(sample_x, 0, width - 1, out=sample_x)
        np.clip(sample_y, 0, height - 1, out=sample_y)

        sample_y *= np.int32(width)
        sample_y += sample_x  # now the flat sample index
        sampled_mag = np.empty((k, num_samples), dtype=np.float32)
        sampled_ang = np.empty((k, num_samples), dtype=np.float32)
        for level in np.unique(sorted_levels):
            group = sorted_levels == level
            magnitude, angle = gradients[int(level)]
            gathered = sample_y[group]
            sampled_mag[group] = magnitude.ravel()[gathered]
            sampled_ang[group] = angle.ravel()[gathered]
        sampled_mag *= sample_weight[None, :]
        # Orientation math in float32: unlike rint above, the descriptor
        # is CONTINUOUS in ori_bin (as the fraction crosses a bin edge
        # the edge bin's weight goes through zero), so float32 rounding
        # perturbs descriptor values by ~1e-5 relative — absorbed by the
        # documented ±1 integer quantization tolerance.
        relative_ang = sampled_ang - theta[:, None].astype(np.float32)
        relative_ang[relative_ang < 0] += np.float32(2 * np.pi)
        ori_bin = relative_ang
        ori_bin *= np.float32(ori_bins / (2 * np.pi))
        ori_floor = ori_bin.astype(np.int32)  # values >= 0: trunc == floor
        ori_frac = ori_bin
        ori_frac -= ori_floor
        weight_high = sampled_mag * ori_frac
        weight_low = sampled_mag
        weight_low -= weight_high
        bin_high = ori_floor + np.int32(1)
        bin_low = ori_floor
        if ori_bins & (ori_bins - 1) == 0:
            bin_low &= np.int32(ori_bins - 1)
            bin_high &= np.int32(ori_bins - 1)
        else:
            bin_low %= ori_bins
            bin_high %= ori_bins

        # Orientation-corner scatter: each (keypoint, sample) splits its
        # magnitude between two adjacent orientation bins — distinct bins
        # whenever ori_bins >= 2, so plain assignment scatters are exact.
        # One flat assignment per corner (indices within a corner are
        # unique because (keypoint, sample) pairs are).
        lane_base = np.arange(
            0, k * num_samples * ori_bins, ori_bins, dtype=np.int32
        ).reshape(k, num_samples)
        bin_low += lane_base
        bin_high += lane_base
        contributions = np.zeros((k, num_samples, ori_bins), dtype=np.float32)
        flat = contributions.reshape(-1)
        flat[bin_low] = weight_low
        flat[bin_high] = weight_high
        # (1, spatial**2, samples) @ (k, samples, ori) -> (k, spatial**2, ori)
        descriptor = np.matmul(spatial_scatter[None, :, :], contributions)
        descriptor = descriptor.reshape(k, spatial_bins * spatial_bins * ori_bins)
        descriptor = self._finalize_descriptors(descriptor.astype(np.float64))

        scale_mult = pyramid.octave_scale(octave)
        positions = np.column_stack(
            [rows[:, 2] * scale_mult, rows[:, 1] * scale_mult]
        )
        level_sigmas = pyramid.base_sigma * (
            2.0 ** (rows[:, 0] / params.scales_per_octave)
        )
        return KeypointSet(
            positions=positions.astype(np.float32),
            scales=(level_sigmas * scale_mult).astype(np.float32),
            orientations=theta.astype(np.float32),
            responses=np.abs(rows[:, 3]).astype(np.float32),
            descriptors=descriptor.astype(np.float32),
        )

    def _finalize_descriptors(self, descriptors: np.ndarray) -> np.ndarray:
        """Normalize, clip at the illumination cap, renormalize, integerize."""
        clip = self.params.descriptor_clip
        norms = np.linalg.norm(descriptors, axis=1, keepdims=True)
        norms = np.maximum(norms, 1e-12)
        descriptors = np.minimum(descriptors / norms, clip)
        norms = np.maximum(np.linalg.norm(descriptors, axis=1, keepdims=True), 1e-12)
        descriptors = descriptors / norms
        return np.clip(np.rint(descriptors * 512.0), 0, 255).astype(np.float32)
