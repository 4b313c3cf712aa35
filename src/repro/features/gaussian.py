"""Gaussian scale space and difference-of-Gaussians pyramids (Lowe 2004)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from repro.util.validation import check_positive

__all__ = ["GaussianPyramid", "DogPyramid"]

# sigma -> precomputed separable correlation weights.  The incremental
# blur amounts are identical for every octave of every frame (they only
# depend on scales_per_octave / base_sigma / assumed_blur), so each
# kernel is built exactly once per process.
_KERNEL_CACHE: dict[float, np.ndarray] = {}


def _gaussian_correlation_kernel(sigma: float) -> np.ndarray:
    """The separable weights :func:`scipy.ndimage.gaussian_filter` would build.

    Same radius rule (``int(4.0 * sigma + 0.5)``, the default
    ``truncate=4.0``), same normalization, reversed for ``correlate1d`` —
    so running them through ``correlate1d`` is bit-identical to calling
    ``gaussian_filter`` (asserted by the pyramid parity tests).
    """
    sigma = float(sigma)
    kernel = _KERNEL_CACHE.get(sigma)
    if kernel is None:
        radius = int(4.0 * sigma + 0.5)
        x = np.arange(-radius, radius + 1)
        phi = np.exp(-0.5 / (sigma * sigma) * x**2)
        phi = phi / phi.sum()
        _KERNEL_CACHE[sigma] = kernel = phi[::-1].copy()
    return kernel


@dataclass
class GaussianPyramid:
    """Octave pyramid of progressively blurred images.

    Each octave holds ``scales_per_octave + 3`` levels so that DoG
    extrema can be localized in ``scales_per_octave`` intervals; each
    subsequent octave starts from the level with twice the base sigma,
    downsampled by two.
    """

    octaves: list[np.ndarray] = field(default_factory=list)  # (levels, h, w)
    sigmas: np.ndarray = field(default_factory=lambda: np.empty(0))
    scales_per_octave: int = 3
    base_sigma: float = 1.6

    @staticmethod
    def _blur_increments(
        levels: int, sigmas: np.ndarray, base_sigma: float, assumed_blur: float
    ) -> np.ndarray:
        """Incremental blur amounts between consecutive levels."""
        increments = np.zeros(levels)
        increments[0] = np.sqrt(max(base_sigma**2 - assumed_blur**2, 0.01))
        for level in range(1, levels):
            increments[level] = np.sqrt(sigmas[level] ** 2 - sigmas[level - 1] ** 2)
        return increments

    @classmethod
    def build(
        cls,
        image: np.ndarray,
        num_octaves: int | None = None,
        scales_per_octave: int = 3,
        base_sigma: float = 1.6,
        assumed_blur: float = 0.5,
    ) -> "GaussianPyramid":
        """Build the pyramid from a float grayscale image in ``[0, 1]``.

        Each level blurs the previous one (the incremental sigmas make
        the chain sequential by construction), but the per-level work
        runs through :func:`scipy.ndimage.correlate1d` with process-wide
        cached kernels and preallocated outputs — no per-call kernel
        rebuild, no temporary allocations.  Bit-identical to a
        ``gaussian_filter`` loop (the reference in
        ``tests/sift_reference.py``).
        """
        check_positive("scales_per_octave", scales_per_octave)
        check_positive("base_sigma", base_sigma)
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 2:
            raise ValueError(f"image must be 2-D grayscale, got {image.shape}")
        if num_octaves is None:
            num_octaves = max(1, int(np.log2(min(image.shape))) - 3)
        levels = scales_per_octave + 3
        k = 2.0 ** (1.0 / scales_per_octave)
        sigmas = base_sigma * k ** np.arange(levels)
        increments = cls._blur_increments(levels, sigmas, base_sigma, assumed_blur)
        pyramid = cls(
            octaves=[], sigmas=sigmas, scales_per_octave=scales_per_octave,
            base_sigma=base_sigma,
        )
        kernels = [_gaussian_correlation_kernel(increments[level]) for level in range(levels)]
        current = image
        for _ in range(num_octaves):
            if min(current.shape) < 8:
                break
            stack = np.empty((levels, *current.shape), dtype=np.float32)
            scratch = np.empty(current.shape, dtype=np.float32)
            source = current
            for level in range(levels):
                weights = kernels[level]
                ndimage.correlate1d(
                    source, weights, axis=0, output=scratch, mode="nearest"
                )
                ndimage.correlate1d(
                    scratch, weights, axis=1, output=stack[level], mode="nearest"
                )
                source = stack[level]
            pyramid.octaves.append(stack)
            # Next octave seeds from the 2x-sigma level, halved.
            current = stack[scales_per_octave][::2, ::2]
        return pyramid

    @property
    def num_octaves(self) -> int:
        return len(self.octaves)

    def octave_scale(self, octave: int) -> float:
        """Pixel-size multiplier of this octave relative to the input."""
        return float(2**octave)

    def absolute_sigma(self, octave: int, level: int) -> float:
        """Blur sigma in input-image pixels for (octave, level)."""
        return float(self.sigmas[level] * self.octave_scale(octave))


@dataclass
class DogPyramid:
    """Difference-of-Gaussians stacks, one per octave."""

    octaves: list[np.ndarray] = field(default_factory=list)
    gaussian: GaussianPyramid | None = None

    @classmethod
    def from_gaussian(
        cls,
        pyramid: GaussianPyramid,
        scratch: dict[tuple[int, int, int], np.ndarray] | None = None,
    ) -> "DogPyramid":
        """Adjacent-level differences, optionally into reusable buffers.

        ``scratch`` is a shape-keyed buffer cache (the extractor owns one
        per instance): frame N+1's DoG stacks overwrite frame N's instead
        of allocating fresh ``np.diff`` copies per octave per frame.
        Callers holding a DogPyramid across frames must not pass scratch.
        """
        dogs = []
        for stack in pyramid.octaves:
            shape = (stack.shape[0] - 1, stack.shape[1], stack.shape[2])
            if scratch is None:
                buffer = np.empty(shape, dtype=stack.dtype)
            else:
                buffer = scratch.get(shape)
                if buffer is None or buffer.dtype != stack.dtype:
                    buffer = scratch[shape] = np.empty(shape, dtype=stack.dtype)
            np.subtract(stack[1:], stack[:-1], out=buffer)
            dogs.append(buffer)
        return cls(octaves=dogs, gaussian=pyramid)

    @property
    def num_octaves(self) -> int:
        return len(self.octaves)
