"""Integration tests: full pipelines across subsystem boundaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import VisualPrintClient, VisualPrintConfig, VisualPrintServer
from repro.evaluation.datasets import build_workload
from repro.evaluation.retrieval import (
    build_oracle,
    build_scene_database,
    evaluate_scheme_cdfs,
    run_random,
    run_visualprint,
)
from repro.features.keypoint import KeypointSet
from repro.geometry import Pose
from repro.matching import LshMatcher
from repro.util.rng import rng_for
from repro.wardrive import DriftModel, IndoorEnvironment, TangoRig, WardriveSession
from repro.wardrive.session import lawnmower_path


@pytest.fixture(scope="module")
def tiny_workload(tmp_path_factory):
    return build_workload(
        seed=11,
        num_scenes=4,
        num_distractors=8,
        views_per_scene=2,
        image_size=128,
        cache_dir=tmp_path_factory.mktemp("workload"),
    )


class TestRetrievalPipeline:
    def test_visualprint_beats_random_or_ties(self, tiny_workload):
        database = build_scene_database(tiny_workload)
        oracle = build_oracle(tiny_workload)
        matcher = LshMatcher(database.descriptors)
        vp = run_visualprint(
            tiny_workload, database, matcher, oracle, count=40, min_votes=4
        )
        random_result = run_random(
            tiny_workload, database, matcher, count=40, min_votes=4
        )
        cdfs = evaluate_scheme_cdfs([vp, random_result], database)
        vp_recall = np.mean(cdfs["VisualPrint-40"]["recall"])
        random_recall = np.mean(cdfs["Random-40"]["recall"])
        assert vp_recall >= random_recall - 0.05

    def test_uploaded_counts_bounded(self, tiny_workload):
        database = build_scene_database(tiny_workload)
        oracle = build_oracle(tiny_workload)
        matcher = LshMatcher(database.descriptors)
        result = run_visualprint(
            tiny_workload, database, matcher, oracle, count=40, min_votes=4
        )
        assert (result.uploaded_keypoints <= 40).all()

    def test_workload_cache_roundtrip(self, tiny_workload, tmp_path):
        from repro.evaluation.datasets import _load_workload, _save_workload

        path = tmp_path / "wl.npz"
        _save_workload(path, tiny_workload)
        restored = _load_workload(path)
        assert restored.num_queries == tiny_workload.num_queries
        assert restored.num_database_descriptors == (
            tiny_workload.num_database_descriptors
        )
        assert np.array_equal(
            restored.query_keypoints[0].descriptors,
            tiny_workload.query_keypoints[0].descriptors,
        )


class TestLocalizationPipeline:
    @pytest.fixture(scope="class")
    def stack(self):
        """Wardrive a venue and stand up server + client."""
        environment = IndoorEnvironment.build("cafeteria", seed=21)
        session = WardriveSession(
            environment,
            seed=21,
            drift=DriftModel(scale=1.0),
            path=lawnmower_path(environment, spacing=6.0, step=2.5),
        )
        mapping = session.run(use_icp=True)
        config = VisualPrintConfig(
            descriptor_capacity=max(mapping.num_mappings, 1024), fingerprint_size=50
        )
        server = VisualPrintServer(config, bounds=environment.bounds)
        server.ingest(mapping.descriptors, mapping.positions)
        client = VisualPrintClient(server.publish_oracle(), config)
        return environment, server, client

    def _query(self, environment, pose, seed):
        rig = TangoRig(environment, seed=seed)
        ids, pixels, _ = rig.observe(pose)
        if ids.size < 8:
            return None
        rng = rng_for(seed, "integration-query")
        descriptors = np.clip(
            environment.descriptors[ids] + rng.normal(0, 3, (ids.size, 128)),
            0,
            255,
        ).astype(np.float32)
        return KeypointSet(
            positions=pixels.astype(np.float32),
            scales=np.ones(ids.size, np.float32),
            orientations=np.zeros(ids.size, np.float32),
            responses=np.ones(ids.size, np.float32),
            descriptors=descriptors,
        )

    def test_end_to_end_localization(self, stack):
        environment, server, client = stack
        true_pose = Pose(x=12.0, y=4.0, z=1.5, yaw=-np.pi / 2)
        keypoints = self._query(environment, true_pose, seed=31)
        assert keypoints is not None
        fingerprint = client.fingerprint_keypoints(keypoints)
        answer = server.localize(fingerprint)
        assert answer.matched_points > 0
        assert answer.pose.position_error(true_pose) < 3.0

    def test_fingerprint_prefers_unique_landmarks(self, stack):
        """The top of the uniqueness ranking must be enriched in
        genuinely unique landmarks relative to the full observation.

        The selection must be *selective* for the comparison to mean
        anything, so examine the top third of the ranking rather than a
        fingerprint that might keep nearly every keypoint.
        """
        environment, server, _ = stack
        pose = Pose(x=20.0, y=4.0, z=1.5, yaw=-np.pi / 2)
        rig = TangoRig(environment, seed=41)
        ids, _, _ = rig.observe(pose)
        if ids.size < 30:
            pytest.skip("pose sees too few landmarks")
        keypoints = self._query(environment, pose, seed=41)
        order = server.oracle.rank_by_uniqueness(keypoints.descriptors)
        top = max(10, ids.size // 3)
        selected_ids = ids[order[:top]]
        unique_fraction = environment.is_unique[selected_ids].mean()
        baseline = environment.is_unique[ids].mean()
        assert unique_fraction >= baseline

    def test_empty_fingerprint_falls_back(self, stack):
        environment, server, _ = stack
        from repro.core import Fingerprint

        empty = Fingerprint(
            keypoints=KeypointSet.empty(),
            uniqueness_counts=np.empty(0, dtype=np.int64),
        )
        answer = server.localize(empty)
        assert answer.matched_points == 0
        low, high = environment.bounds
        assert (answer.pose.position >= low).all()
        assert (answer.pose.position <= high).all()

    def test_oracle_download_is_compact(self, stack):
        _, server, _ = stack
        # The client download must be far below the raw descriptor data.
        raw_bytes = server.num_mappings * 128
        assert server.oracle_download_bytes() < raw_bytes

    def test_lookup_memory_exceeds_oracle(self, stack):
        _, server, _ = stack
        assert server.lookup.memory_bytes() > server.oracle_download_bytes()


class TestClientOverheadPipeline:
    def test_latency_split_shape(self, small_library):
        """Fig. 16's shape: SIFT extraction >> oracle ranking."""
        from repro.core import UniquenessOracle

        config = VisualPrintConfig(descriptor_capacity=50_000, fingerprint_size=50)
        oracle = UniquenessOracle(config)
        client = VisualPrintClient(oracle, config)
        keypoints = client.extract_keypoints(small_library.scene(0))
        if len(keypoints):
            oracle.insert(keypoints.descriptors)
        for view in range(2):
            client.process_frame(small_library.query_view(0, view))
        assert (
            client.latency_quantiles("sift")[0.5]
            > client.latency_quantiles("oracle")[0.5]
        )
