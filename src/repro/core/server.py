"""The VisualPrint cloud service.

Maintains the two server data structures of the paper: (1) the
keypoint-to-3D-position LSH lookup table and (2) the LSH-indexed
counting Bloom filters (the uniqueness oracle clients download).  "As
new keypoint-to-location mappings can be incorporated continuously, in
constant time and memory" — :meth:`ingest` updates both structures
incrementally.

For localization queries the server retrieves ``n`` nearest 3D points
per fingerprint keypoint, keeps the largest spatial cluster, and runs
the angular-constraint solver (:mod:`repro.localization`).

For the Fig. 13 retrieval experiments the same machinery answers
scene-identification queries over an image database (labels instead of
3D positions).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import VisualPrintConfig
from repro.core.fingerprint import Fingerprint
from repro.core.oracle import UniquenessOracle
from repro.geometry.camera import CameraIntrinsics
from repro.geometry.pose import Pose
from repro.localization.clustering import largest_cluster
from repro.localization.solver import (
    AngularLocalizer,
    LocalizationProblem,
    LocalizationSolution,
)
from repro.lsh import LshIndex
from repro.obs import MetricsRegistry, resolve_registry, trace_span

__all__ = ["LocalizationAnswer", "VisualPrintServer"]


@dataclass(frozen=True)
class LocalizationAnswer:
    """Server reply to a localization query."""

    pose: Pose
    solution: LocalizationSolution
    matched_points: int
    clustered_points: int


class VisualPrintServer:
    """Cloud-side state: keypoint->3D table + uniqueness oracle."""

    def __init__(
        self,
        config: VisualPrintConfig | None = None,
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
        intrinsics: CameraIntrinsics | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or VisualPrintConfig()
        self._registry = resolve_registry(registry)
        self.oracle = UniquenessOracle(self.config, registry=self._registry)
        # The lookup table shares the oracle's LSH parameters but is a
        # separate structure (it stores payloads, not counters).
        self.lookup = LshIndex(
            params=self.config.lsh,
            seed=self.config.seed + 7,
            max_probes_per_table=self.config.max_probes_per_table,
        )
        self.intrinsics = intrinsics or CameraIntrinsics()
        # Row i of the lookup table maps to 3D point i.
        self._positions = np.empty((0, 3))
        self._bounds = bounds
        self._localizer = AngularLocalizer(seed=self.config.seed)
        self._m_ingest_seconds = self._registry.sketch(
            "server_ingest_seconds", help="wall-clock per ingest() batch"
        )
        self._m_ingest_bytes = self._registry.sketch(
            "server_ingest_bytes", help="descriptor payload bytes per ingest() batch"
        )
        self._m_ingest_descriptors = self._registry.counter(
            "server_ingest_descriptors_total", help="keypoint-to-3D mappings ingested"
        )
        self._m_localizations = self._registry.counter(
            "server_localizations_total", help="localization queries answered"
        )
        self._m_fallback_poses = self._registry.counter(
            "server_fallback_poses_total",
            help="queries answered with the no-match fallback pose",
        )
        self._m_matched_points = self._registry.sketch(
            "server_matched_points", help="LSH-matched 3D points per query"
        )
        self._m_clustered_points = self._registry.sketch(
            "server_clustered_points",
            help="points surviving spatial clustering per query",
        )

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this server (and its oracle) reports into."""
        return self._registry

    # ------------------------------------------------------------------
    # Ingest (wardriving)
    # ------------------------------------------------------------------

    def ingest(self, descriptors: np.ndarray, positions_3d: np.ndarray) -> None:
        """Add keypoint-to-3D mappings from a wardriving session.

        "As new keypoint-to-location mappings can be incorporated
        continuously, in constant time and memory" — both the oracle and
        the LSH lookup table are updated incrementally; only the new
        batch is hashed (see :meth:`repro.lsh.LshIndex.insert`).
        """
        descriptors = np.asarray(descriptors, dtype=np.float32)
        positions_3d = np.asarray(positions_3d, dtype=np.float64)
        if descriptors.ndim != 2 or positions_3d.shape != (descriptors.shape[0], 3):
            raise ValueError(
                "descriptors and positions must align as (n, D) and (n, 3), got "
                f"{descriptors.shape} and {positions_3d.shape}"
            )
        # The table, the oracle and the index take the batch together or
        # not at all: every row must quantize under both projections
        # before any of them changes (``oracle.insert`` checks its own
        # range before it counts a row).
        self.lookup.projections.check_range(descriptors)
        start = time.perf_counter()
        self.oracle.insert(descriptors)
        self.lookup.insert(descriptors)
        self._positions = np.concatenate([self._positions, positions_3d])
        self._m_ingest_seconds.observe(time.perf_counter() - start)
        self._m_ingest_bytes.observe(descriptors.nbytes)
        self._m_ingest_descriptors.inc(descriptors.shape[0])

    def restore_state(
        self,
        descriptors: np.ndarray,
        positions: np.ndarray,
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Replace the keypoint-to-3D table with persisted state.

        The public restore path: rebuilds the LSH lookup table from the
        saved descriptor rows *without* re-curating the oracle (restored
        counters are authoritative — see
        :meth:`repro.core.UniquenessOracle.restore_counts`).  Inputs are
        validated before anything is mutated; a corrupt table raises
        :class:`repro.bloom.SnapshotCorruptError` and leaves the server
        untouched.
        """
        from repro.bloom.container import SnapshotCorruptError

        descriptors = np.asarray(descriptors, dtype=np.float32)
        positions = np.array(positions, dtype=np.float64)
        if descriptors.ndim != 2:
            raise SnapshotCorruptError(
                f"restored descriptors must be 2-D, got shape {descriptors.shape}"
            )
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise SnapshotCorruptError(
                f"restored positions must be (n, 3), got shape {positions.shape}"
            )
        if descriptors.shape[0] != positions.shape[0]:
            raise SnapshotCorruptError(
                f"restored table misaligned: {descriptors.shape[0]} descriptors "
                f"vs {positions.shape[0]} positions"
            )
        if not np.isfinite(positions).all():
            raise SnapshotCorruptError("restored positions contain non-finite values")
        if bounds is not None:
            low, high = (np.asarray(b, dtype=np.float64) for b in bounds)
            if low.shape != (3,) or high.shape != (3,):
                raise SnapshotCorruptError(
                    "restored bounds must be a pair of 3-vectors"
                )
            if not (np.isfinite(low).all() and np.isfinite(high).all()):
                raise SnapshotCorruptError("restored bounds are non-finite")
        try:
            self.lookup.projections.check_range(descriptors)
        except ValueError as error:
            raise SnapshotCorruptError(
                f"restored descriptors cannot be indexed: {error}"
            ) from error
        if bounds is not None:
            self._bounds = (low, high)
        self.lookup.build(descriptors)
        self._positions = positions

    @property
    def num_mappings(self) -> int:
        return self.lookup.size

    @property
    def positions(self) -> np.ndarray:
        """The 3D point of every lookup-table row, as a read-only view."""
        positions = self._positions.view()
        positions.flags.writeable = False
        return positions

    @property
    def descriptors(self) -> np.ndarray:
        """All ingested descriptor rows: a read-only view of the lookup table's.

        uint8 while every row is byte-valued, else float32
        (see :attr:`repro.lsh.LshIndex.descriptors`).
        """
        return self.lookup.descriptors

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Venue extents for the solver's search box."""
        if self._bounds is not None:
            return self._bounds
        positions = self.positions
        if positions.shape[0] == 0:
            return np.zeros(3), np.ones(3)
        return positions.min(axis=0) - 1.0, positions.max(axis=0) + 1.0

    # ------------------------------------------------------------------
    # Client download
    # ------------------------------------------------------------------

    def publish_oracle(self) -> UniquenessOracle:
        """What the client downloads (here: a shared reference)."""
        return self.oracle

    # ------------------------------------------------------------------
    # Localization queries
    # ------------------------------------------------------------------

    def localize(self, fingerprint: Fingerprint) -> LocalizationAnswer:
        """Answer a fingerprint query with a 6-DoF pose estimate.

        The ``localize`` span joins the querying frame's trace when the
        call runs under that frame's span or inside a
        :func:`repro.obs.use_trace_context` block — one ``trace_id``
        then covers client compute, channel transfer, and this server
        leg end to end.  The span is this call's only timer: its duration
        lands in the ``span_localize_seconds`` sketch.
        """
        with trace_span(
            "localize", registry=self._registry, frame_index=fingerprint.frame_index
        ) as span:
            answer = self._localize(fingerprint)
            span.set("matched_points", answer.matched_points)
            span.set("clustered_points", answer.clustered_points)
        self._m_localizations.inc()
        self._m_matched_points.observe(answer.matched_points)
        self._m_clustered_points.observe(answer.clustered_points)
        if not answer.solution.converged and answer.matched_points == 0:
            self._m_fallback_poses.inc()
        return answer

    def _localize(self, fingerprint: Fingerprint) -> LocalizationAnswer:
        low, high = self.bounds()
        pixel_rows, point_rows, _ = self.lookup.query_batch(
            fingerprint.keypoints.descriptors,
            num_neighbors=self.config.nearest_neighbors_per_keypoint,
        )
        matched = point_rows.size
        if matched == 0:
            center = (low + high) / 2.0
            fallback = LocalizationSolution(
                pose=Pose(x=center[0], y=center[1], z=center[2]),
                residual=np.inf,
                num_pairs=0,
                converged=False,
            )
            return LocalizationAnswer(
                pose=fallback.pose,
                solution=fallback,
                matched_points=0,
                clustered_points=0,
            )

        candidate_points = self._positions[point_rows]
        kept = largest_cluster(
            candidate_points,
            eps=self.config.cluster_radius,
            min_samples=self.config.min_cluster_size,
        )
        if kept.size < 3:
            kept = np.arange(matched)
        # One 3D point per keypoint: if several of a keypoint's neighbors
        # survive clustering, keep its closest-descriptor match (the
        # first one in ``kept`` order).
        first = np.unique(pixel_rows[kept], return_index=True)[1]
        final = kept[np.sort(first)]

        problem = LocalizationProblem(
            pixels=fingerprint.keypoints.positions[pixel_rows[final]],
            world_points=candidate_points[final],
            intrinsics=self.intrinsics,
            bounds_low=low,
            bounds_high=high,
        )
        solution = self._localizer.solve(problem)
        return LocalizationAnswer(
            pose=solution.pose,
            solution=solution,
            matched_points=matched,
            clustered_points=int(kept.size),
        )

    # ------------------------------------------------------------------
    # Footprints (Fig. 15 / takeaways)
    # ------------------------------------------------------------------

    def oracle_download_bytes(self) -> int:
        """Compressed oracle download size (the ~10 MB number)."""
        return self.oracle.download_bytes()
