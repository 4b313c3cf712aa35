"""Test-only references: the original SIFT pipeline and keypoint encoder.

The library's :class:`~repro.features.sift.SiftExtractor` detects extrema
with shifted-window reductions, computes each octave's gradients once,
batches orientation histograms into one ``bincount`` and describes
keypoints with one matmul over a precomputed spatial scatter matrix.  Its
pyramid runs ``correlate1d`` with cached kernels, and its encoder writes
straight into a caller-owned buffer.  This module keeps the straight
versions they replaced — ``gaussian_filter`` levels, scipy 3x3x3 extrema
filters, per-level gradient recomputation, the 8-corner ``bincount``
trilinear scatter and a copying encoder — so ``tests/test_sift_parity.py``
and ``benchmarks/bench_sift.py`` can check and time the fast paths
against them.  The functions read the extractor's parameters and its
shared refine/edge/finalize steps, and never mutate it.

Geometry (positions, scales, orientations, responses) is bit-identical to
the fast path; descriptor floats reassociate in the matmul, so final
integer descriptors may differ by ±1 quantization step.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np
from scipy import ndimage

from repro.features.gaussian import DogPyramid, GaussianPyramid
from repro.features.keypoint import KeypointSet
from repro.features.sift import SiftExtractor

__all__ = [
    "assign_orientations_reference",
    "build_pyramid_reference",
    "describe_reference",
    "detect_octave_reference",
    "extract_reference",
    "gradients",
    "serialize_keypoints_reference",
    "trilinear_accumulate",
]

# The wire header, spelled out here so the encoder check does not lean on
# the library's own constants.
_WIRE_HEADER = struct.Struct("<4sI")
_WIRE_MAGIC = b"VPKP"


def build_pyramid_reference(
    image: np.ndarray,
    num_octaves: int | None = None,
    scales_per_octave: int = 3,
    base_sigma: float = 1.6,
    assumed_blur: float = 0.5,
) -> GaussianPyramid:
    """The original per-level ``gaussian_filter`` loop."""
    image = np.asarray(image, dtype=np.float32)
    if num_octaves is None:
        num_octaves = max(1, int(np.log2(min(image.shape))) - 3)
    levels = scales_per_octave + 3
    sigmas = base_sigma * (2.0 ** (1.0 / scales_per_octave)) ** np.arange(levels)
    increments = GaussianPyramid._blur_increments(
        levels, sigmas, base_sigma, assumed_blur
    )
    pyramid = GaussianPyramid(
        octaves=[], sigmas=sigmas, scales_per_octave=scales_per_octave,
        base_sigma=base_sigma,
    )
    current = image
    for _ in range(num_octaves):
        if min(current.shape) < 8:
            break
        stack = np.empty((levels, *current.shape), dtype=np.float32)
        stack[0] = ndimage.gaussian_filter(current, increments[0], mode="nearest")
        for level in range(1, levels):
            stack[level] = ndimage.gaussian_filter(
                stack[level - 1], increments[level], mode="nearest"
            )
        pyramid.octaves.append(stack)
        current = stack[scales_per_octave][::2, ::2]
    return pyramid


def extract_reference(extractor: SiftExtractor, image: np.ndarray) -> KeypointSet:
    """The pre-vectorization pipeline with ``extractor``'s parameters."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D grayscale, got shape {image.shape}")
    params = extractor.params
    pyramid = build_pyramid_reference(
        image,
        scales_per_octave=params.scales_per_octave,
        base_sigma=params.base_sigma,
    )
    dog = DogPyramid.from_gaussian(pyramid)
    parts: list[KeypointSet] = []
    for octave in range(dog.num_octaves):
        candidates = detect_octave_reference(extractor, dog, octave)
        if candidates.shape[0] == 0:
            continue
        oriented = assign_orientations_reference(extractor, pyramid, octave, candidates)
        if oriented.shape[0] == 0:
            continue
        parts.append(describe_reference(extractor, pyramid, octave, oriented))
    keypoints = KeypointSet.concatenate(parts)
    if params.max_keypoints is not None:
        keypoints = keypoints.top_by_response(params.max_keypoints)
    return keypoints


def detect_octave_reference(
    extractor: SiftExtractor, dog: DogPyramid, octave: int
) -> np.ndarray:
    """Scipy-filter extrema detection: ``(n, 4)`` (level, y, x, response)."""
    params = extractor.params
    stack = dog.octaves[octave]
    num_levels = stack.shape[0]
    if num_levels < 3:
        return np.empty((0, 4))

    maxima = ndimage.maximum_filter(stack, size=3, mode="nearest")
    minima = ndimage.minimum_filter(stack, size=3, mode="nearest")
    threshold = params.contrast_threshold * 0.5
    is_extremum = ((stack == maxima) & (stack > threshold)) | (
        (stack == minima) & (stack < -threshold)
    )
    # Only interior levels and a 5-pixel spatial margin are eligible.
    is_extremum[0] = False
    is_extremum[-1] = False
    margin = 5
    is_extremum[:, :margin, :] = False
    is_extremum[:, -margin:, :] = False
    is_extremum[:, :, :margin] = False
    is_extremum[:, :, -margin:] = False

    levels, ys, xs = np.nonzero(is_extremum)
    if levels.size == 0:
        return np.empty((0, 4))

    refined = extractor._refine(stack, levels, ys, xs)
    if refined.shape[0] == 0:
        return np.empty((0, 4))
    keep = extractor._reject_edges(stack, refined)
    return refined[keep]


def gradients(level_image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient magnitude and angle of one pyramid level."""
    gy, gx = np.gradient(level_image.astype(np.float32))
    magnitude = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx)
    return magnitude, angle


def assign_orientations_reference(
    extractor: SiftExtractor,
    pyramid: GaussianPyramid,
    octave: int,
    candidates: np.ndarray,
) -> np.ndarray:
    """Per-level orientation assignment: ``(m, 5)`` rows with orientation."""
    params = extractor.params
    stack = pyramid.octaves[octave]
    num_bins = params.num_orientation_bins
    out_rows: list[np.ndarray] = []

    levels_int = np.clip(
        np.rint(candidates[:, 0]).astype(int), 1, stack.shape[0] - 2
    )
    for level in np.unique(levels_int):
        mask = levels_int == level
        rows = candidates[mask]
        magnitude, angle = gradients(stack[level])
        sigma = 1.5 * float(pyramid.sigmas[level])
        radius = max(2, int(round(3.0 * sigma)))
        if 2 * radius + 1 > min(stack.shape[1], stack.shape[2]):
            continue
        offsets = np.arange(-radius, radius + 1)
        weight_1d = np.exp(-(offsets**2) / (2.0 * sigma**2))
        window_weight = np.outer(weight_1d, weight_1d)  # (P, P)

        ys = np.clip(np.rint(rows[:, 1]).astype(int), radius, stack.shape[1] - radius - 1)
        xs = np.clip(np.rint(rows[:, 2]).astype(int), radius, stack.shape[2] - radius - 1)
        win_y = ys[:, None, None] + offsets[None, :, None]
        win_x = xs[:, None, None] + offsets[None, None, :]
        win_mag = magnitude[win_y, win_x] * window_weight[None, :, :]
        win_ang = angle[win_y, win_x]

        bins = np.floor((win_ang + np.pi) / (2 * np.pi) * num_bins).astype(int)
        bins = np.clip(bins, 0, num_bins - 1)
        k = rows.shape[0]
        flat_bins = (np.arange(k)[:, None, None] * num_bins + bins).ravel()
        histograms = np.bincount(
            flat_bins, weights=win_mag.ravel(), minlength=k * num_bins
        ).reshape(k, num_bins)

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
            continue
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
        out_rows.append(
            np.column_stack(
                [
                    rows[kp_index, 0],
                    rows[kp_index, 1],
                    rows[kp_index, 2],
                    rows[kp_index, 3],
                    orientation,
                ]
            )
        )
    if not out_rows:
        return np.empty((0, 5))
    return np.concatenate(out_rows)


def describe_reference(
    extractor: SiftExtractor,
    pyramid: GaussianPyramid,
    octave: int,
    oriented: np.ndarray,
) -> KeypointSet:
    """Per-level description with the 8-corner trilinear scatter."""
    params = extractor.params
    stack = pyramid.octaves[octave]
    grid = params.descriptor_grid
    spatial_bins = params.descriptor_spatial_bins
    ori_bins = params.descriptor_orientation_bins

    positions: list[np.ndarray] = []
    scales: list[np.ndarray] = []
    orientations: list[np.ndarray] = []
    responses: list[np.ndarray] = []
    descriptors: list[np.ndarray] = []

    levels_int = np.clip(
        np.rint(oriented[:, 0]).astype(int), 1, stack.shape[0] - 2
    )
    # Normalized sample grid: (grid*grid, 2) offsets in bin units,
    # covering [-spatial_bins/2, spatial_bins/2).
    steps = (np.arange(grid) + 0.5) / grid * spatial_bins - spatial_bins / 2.0
    grid_u, grid_v = np.meshgrid(steps, steps)  # u: x-direction, v: y
    flat_u = grid_u.ravel()
    flat_v = grid_v.ravel()
    # Gaussian window over the descriptor, sigma = half the window.
    window_sigma = 0.5 * spatial_bins
    sample_weight = np.exp(
        -(flat_u**2 + flat_v**2) / (2.0 * window_sigma**2)
    ).astype(np.float32)

    for level in np.unique(levels_int):
        mask = levels_int == level
        rows = oriented[mask]
        magnitude, angle = gradients(stack[level])
        sigma = float(pyramid.sigmas[level])
        bin_width = params.descriptor_scale_factor * sigma

        theta = rows[:, 4]
        cos_t = np.cos(theta)[:, None]
        sin_t = np.sin(theta)[:, None]
        du = (flat_u[None, :] * cos_t - flat_v[None, :] * sin_t) * bin_width
        dv = (flat_u[None, :] * sin_t + flat_v[None, :] * cos_t) * bin_width
        sample_x = np.clip(
            np.rint(rows[:, 2][:, None] + du).astype(int), 0, stack.shape[2] - 1
        )
        sample_y = np.clip(
            np.rint(rows[:, 1][:, None] + dv).astype(int), 0, stack.shape[1] - 1
        )
        sampled_mag = magnitude[sample_y, sample_x] * sample_weight[None, :]
        sampled_ang = angle[sample_y, sample_x] - theta[:, None]

        # Trilinear accumulation into (rows+2, cols+2, ori) histograms.
        row_bin = flat_v[None, :] + spatial_bins / 2.0 - 0.5  # (k, s)
        col_bin = flat_u[None, :] + spatial_bins / 2.0 - 0.5
        row_bin = np.broadcast_to(row_bin, sampled_mag.shape)
        col_bin = np.broadcast_to(col_bin, sampled_mag.shape)
        ori_bin = (sampled_ang % (2 * np.pi)) / (2 * np.pi) * ori_bins

        descriptor = trilinear_accumulate(
            row_bin, col_bin, ori_bin, sampled_mag, spatial_bins, ori_bins
        )
        descriptor = extractor._finalize_descriptors(descriptor)

        scale_mult = pyramid.octave_scale(octave)
        positions.append(
            np.column_stack([rows[:, 2] * scale_mult, rows[:, 1] * scale_mult])
        )
        level_sigmas = pyramid.base_sigma * (
            2.0 ** (rows[:, 0] / params.scales_per_octave)
        )
        scales.append(level_sigmas * scale_mult)
        orientations.append(theta)
        responses.append(np.abs(rows[:, 3]))
        descriptors.append(descriptor)

    if not positions:
        return KeypointSet.empty()
    return KeypointSet(
        positions=np.concatenate(positions).astype(np.float32),
        scales=np.concatenate(scales).astype(np.float32),
        orientations=np.concatenate(orientations).astype(np.float32),
        responses=np.concatenate(responses).astype(np.float32),
        descriptors=np.concatenate(descriptors).astype(np.float32),
    )


def trilinear_accumulate(
    row_bin: np.ndarray,
    col_bin: np.ndarray,
    ori_bin: np.ndarray,
    weights: np.ndarray,
    spatial_bins: int,
    ori_bins: int,
) -> np.ndarray:
    """Scatter samples into per-keypoint histograms with trilinear weights.

    All inputs are ``(k, samples)``.  Returns ``(k, 128)``: the 8-corner
    ``bincount`` walk the library's one-matmul scatter replaced.
    """
    k, _ = weights.shape
    padded = spatial_bins + 2  # one guard bin on each side
    row_floor = np.floor(row_bin).astype(int)
    col_floor = np.floor(col_bin).astype(int)
    ori_floor = np.floor(ori_bin).astype(int)
    row_frac = row_bin - row_floor
    col_frac = col_bin - col_floor
    ori_frac = ori_bin - ori_floor

    kp_index = np.broadcast_to(np.arange(k)[:, None], weights.shape)

    stride_o = 1
    stride_c = ori_bins
    stride_r = padded * ori_bins
    stride_k = padded * padded * ori_bins
    flat_size = k * stride_k
    flat_histogram = np.zeros(flat_size, dtype=np.float64)

    for d_row in (0, 1):
        w_row = np.where(d_row == 0, 1 - row_frac, row_frac)
        row_index = np.clip(row_floor + d_row + 1, 0, padded - 1)
        for d_col in (0, 1):
            w_col = np.where(d_col == 0, 1 - col_frac, col_frac)
            col_index = np.clip(col_floor + d_col + 1, 0, padded - 1)
            for d_ori in (0, 1):
                w_ori = np.where(d_ori == 0, 1 - ori_frac, ori_frac)
                ori_index = (ori_floor + d_ori) % ori_bins
                contribution = weights * w_row * w_col * w_ori
                flat = (
                    kp_index * stride_k
                    + row_index * stride_r
                    + col_index * stride_c
                    + ori_index * stride_o
                )
                flat_histogram += np.bincount(
                    flat.ravel(),
                    weights=contribution.ravel(),
                    minlength=flat_size,
                )
    # Drop guard bins, flatten to 128-D.
    histogram = flat_histogram.reshape(k, padded, padded, ori_bins)
    core = histogram[:, 1 : spatial_bins + 1, 1 : spatial_bins + 1, :]
    return core.reshape(k, spatial_bins * spatial_bins * ori_bins)


def serialize_keypoints_reference(
    keypoints: KeypointSet, compress: bool = False
) -> bytes:
    """The copying encoder: header, float metadata and uint8 descriptors
    concatenated as fresh ``bytes`` (optionally GZIP'd)."""
    count = len(keypoints)
    meta = np.empty((count, 4), dtype="<f4")
    meta[:, 0:2] = keypoints.positions
    meta[:, 2] = keypoints.scales
    meta[:, 3] = keypoints.orientations
    descriptors = np.clip(np.rint(keypoints.descriptors), 0, 255).astype(np.uint8)
    payload = (
        _WIRE_HEADER.pack(_WIRE_MAGIC, count) + meta.tobytes() + descriptors.tobytes()
    )
    if compress:
        return gzip.compress(payload, compresslevel=9, mtime=0)
    return payload
