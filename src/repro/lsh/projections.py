"""p-stable random projections (the E2LSH hash family).

Each of ``L`` tables holds ``M`` hyperplanes with Gaussian-distributed
coefficients — the Gaussian is 2-stable, so projected distances preserve
the L2 norm and nearby descriptors quantize to the same bucket with high
probability.  A descriptor maps to ``L`` bucket vectors, each an
``M``-dimensional integer vector ``floor((a . x + b) / W)``.

The paper's empirically optimized operating point for 128-D SIFT is
``L = 10, M = 7, W = 500`` (descriptor entries are 0..255 integers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lsh.buckets import BUCKET_LIMIT, QuantizedBuckets
from repro.util.rng import rng_for
from repro.util.validation import check_positive

__all__ = ["E2LSHParams", "StableProjections"]

# Rows per projection GEMM (see ``StableProjections.project``).
_BLOCK_ROWS = 16


@dataclass(frozen=True)
class E2LSHParams:
    """E2LSH configuration (paper defaults)."""

    num_tables: int = 10  # L
    num_projections: int = 7  # M
    quantization_width: float = 500.0  # W
    dimension: int = 128

    def __post_init__(self) -> None:
        check_positive("num_tables", self.num_tables)
        check_positive("num_projections", self.num_projections)
        check_positive("quantization_width", self.quantization_width)
        check_positive("dimension", self.dimension)


class StableProjections:
    """The fixed random projections shared by oracle and index.

    "Each of the M x L randomly-chosen projections is held constant for
    the life of the data structure" — so the object is constructed once
    from a seed and reused verbatim on server and client.
    """

    def __init__(self, params: E2LSHParams, seed: int = 0) -> None:
        self.params = params
        self.seed = int(seed)
        generator = rng_for(seed, "e2lsh/projections")
        shape = (params.num_tables, params.num_projections, params.dimension)
        # Gaussian coefficients: the 2-stable distribution preserving L2,
        # kept as one (L·M, D) matrix so projecting is a matrix product.
        self._hyperplanes = generator.standard_normal(shape).reshape(
            params.num_tables * params.num_projections, params.dimension
        )
        # Random offsets b ~ U[0, W) complete the Datar et al. construction.
        self._offsets = generator.uniform(
            0.0, params.quantization_width, size=(params.num_tables, params.num_projections)
        )

    @property
    def num_tables(self) -> int:
        return self.params.num_tables

    @property
    def num_projections(self) -> int:
        return self.params.num_projections

    def project(self, descriptors: np.ndarray) -> np.ndarray:
        """Raw projection values, shape ``(n, L, M)``.

        The descriptors, zero-padded to whole ``_BLOCK_ROWS``-row blocks,
        are multiplied by the ``(L·M, D)`` hyperplane matrix in float64,
        one small GEMM per block.  Every block has the same shape, so
        every row goes through the same BLAS kernel and summation order:
        a descriptor's projection (and so its bucket) never depends on
        the batch it arrives in.  One GEMM over the whole batch does not
        have that property: BLAS picks kernels and thread splits by
        operand shape, so the rows of a small product can differ in the
        last bit from the same rows in a large one.  Blocks this small
        also stay under BLAS's threading threshold, so a short query
        batch never waits on a thread hand-off.
        """
        descriptors = np.asarray(descriptors)
        if descriptors.ndim == 1:
            descriptors = descriptors[np.newaxis, :]
        if descriptors.ndim != 2 or descriptors.shape[1] != self.params.dimension:
            raise ValueError(
                f"descriptors must have dimension {self.params.dimension}, "
                f"got shape {descriptors.shape}"
            )
        n, dimension = descriptors.shape
        padded = np.zeros((-(-n // _BLOCK_ROWS) * _BLOCK_ROWS, dimension))
        padded[:n] = descriptors
        blocks = padded.reshape(-1, _BLOCK_ROWS, dimension) @ self._hyperplanes.T
        return blocks.reshape(-1, *self._offsets.shape)[:n] + self._offsets

    def check_range(self, descriptors: np.ndarray) -> None:
        """Raise ``ValueError`` unless every bucket of ``descriptors`` can be encoded.

        The same check :class:`repro.lsh.QuantizedBuckets` makes on the
        quantized batch, for callers that must validate before mutating.
        Since ``|floor((a·x + b) / W)| <= ‖a‖·‖x‖ / W + 2`` with ``0 <= b < W``,
        rows whose norm is well inside that bound pass without projecting;
        only the rest (and non-finite rows) are quantized and checked.
        """
        descriptors = np.asarray(descriptors)
        if descriptors.ndim != 2 or descriptors.shape[1] != self.params.dimension:
            raise ValueError(
                f"descriptors must have dimension {self.params.dimension}, "
                f"got shape {descriptors.shape}"
            )
        widest = np.sqrt(np.einsum("ij,ij->i", self._hyperplanes, self._hyperplanes).max())
        # Half the bound as margin for the rounding of the norms.
        limit = 0.5 * (BUCKET_LIMIT - 2) * self.params.quantization_width / widest
        norms = np.einsum("ij,ij->i", descriptors, descriptors, dtype=np.float64)
        unclear = ~(np.sqrt(norms) <= limit)
        if unclear.any():
            if not np.isfinite(norms[unclear]).all():
                raise ValueError("descriptors must be finite")
            QuantizedBuckets(self.quantize(descriptors[unclear]))

    def quantize(self, descriptors: np.ndarray) -> np.ndarray:
        """Bucket vectors ``floor(projection / W)``, shape ``(n, L, M)`` int64."""
        projected = self.project(descriptors)
        return np.floor(projected / self.params.quantization_width).astype(np.int64)

    def quantize_with_residuals(
        self, descriptors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucket vectors plus each projection's position inside its cell.

        Residuals in ``[0, 1)`` drive query-directed multiprobe: a residual
        near 0 means the neighboring lower cell is the likely miss, near 1
        the upper cell.
        """
        projected = self.project(descriptors)
        scaled = projected / self.params.quantization_width
        buckets = np.floor(scaled).astype(np.int64)
        residuals = scaled - buckets
        return buckets, residuals
