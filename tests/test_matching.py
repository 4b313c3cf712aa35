"""Unit tests for the matching schemes and scene voting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.features.keypoint import KeypointSet
from repro.matching import (
    BruteForceMatcher,
    LshMatcher,
    SceneDatabase,
    random_subselect,
    vote_scene,
)
from repro.util.rng import rng_for
from tests.lsh_reference import query_batch_reference


@pytest.fixture(scope="module")
def database(descriptors_1k):
    return descriptors_1k.astype(np.float32)


class TestBruteForce:
    def test_self_query_exact(self, database):
        matcher = BruteForceMatcher(database)
        indices, distances = matcher.knn(database[:20], k=1)
        assert np.array_equal(indices[:, 0], np.arange(20))
        assert np.allclose(distances[:, 0], 0.0, atol=1e-4)

    def test_knn_ordering(self, database, rng):
        matcher = BruteForceMatcher(database)
        queries = database[:10] + rng.normal(0, 1, (10, 128)).astype(np.float32)
        _, distances = matcher.knn(queries, k=3)
        assert (np.diff(distances, axis=1) >= -1e-6).all()

    def test_ratio_test_rejects_ambiguous(self, rng):
        # Two identical database rows: NN and 2nd-NN tie, ratio test fails.
        row = rng.integers(0, 255, 128).astype(np.float32)
        db = np.vstack([row, row, row + 120])
        matcher = BruteForceMatcher(db)
        query_rows, _ = matcher.match(row[np.newaxis, :], ratio=0.8)
        assert query_rows.size == 0

    def test_ratio_test_accepts_distinct(self, database):
        matcher = BruteForceMatcher(database)
        query_rows, database_rows = matcher.match(database[:5], ratio=0.9)
        assert np.array_equal(database_rows, np.arange(5)[query_rows])

    def test_chunking_consistent(self, database):
        small_chunks = BruteForceMatcher(database, chunk_size=7)
        big_chunks = BruteForceMatcher(database, chunk_size=512)
        queries = database[:30]
        a, _ = small_chunks.knn(queries, k=2)
        b, _ = big_chunks.knn(queries, k=2)
        assert np.array_equal(a, b)

    def test_memory_accounting(self, database):
        matcher = BruteForceMatcher(database)
        assert matcher.memory_bytes() >= database.nbytes

    def test_empty_database(self):
        with pytest.raises(ValueError):
            BruteForceMatcher(np.zeros(128))


class TestLshMatcher:
    def test_agrees_with_bruteforce_mostly(self, database, rng):
        lsh = LshMatcher(database, seed=3)
        brute = BruteForceMatcher(database)
        queries = np.clip(
            database[:50] + rng.normal(0, 1.5, (50, 128)), 0, 255
        ).astype(np.float32)
        lsh_q, lsh_db = lsh.match(queries, ratio=0.9)
        brute_q, brute_db = brute.match(queries, ratio=0.9)
        brute_map = dict(zip(brute_q.tolist(), brute_db.tolist()))
        agree = sum(
            brute_map.get(q) == d for q, d in zip(lsh_q.tolist(), lsh_db.tolist())
        )
        assert agree >= 0.8 * max(len(lsh_q), 1)

    def test_memory_larger_than_descriptors(self, database):
        # The L-fold tables alone outweigh the rows the index stores.
        index = LshMatcher(database).index
        tables = sum(array.nbytes for table in index._tables for array in table)
        assert tables > index.descriptors.nbytes

    def test_invalid_ratio(self, database):
        with pytest.raises(ValueError):
            LshMatcher(database).match(database[:1], ratio=0.0)

    @pytest.mark.parametrize("ratio", [0.6, 0.8, 1.0])
    def test_ratio_test_matches_list_reference(self, database, rng, ratio):
        lsh = LshMatcher(database, seed=3)
        queries = np.vstack(
            [
                np.clip(database[:40] + rng.normal(0, 8.0, (40, 128)), 0, 255),
                rng.integers(0, 256, (20, 128)),
                np.full((1, 128), -5000.0),  # no candidates at all
            ]
        ).astype(np.float32)
        want_queries, want_rows = [], []
        reference = query_batch_reference(lsh.index, queries, num_neighbors=2)
        for query, matches in enumerate(reference):
            if matches and (
                len(matches) == 1 or matches[0].distance < ratio * matches[1].distance
            ):
                want_queries.append(query)
                want_rows.append(matches[0].row)
        got_queries, got_rows = lsh.match(queries, ratio=ratio)
        assert got_queries.dtype == got_rows.dtype == np.int64
        assert got_queries.tolist() == want_queries
        assert got_rows.tolist() == want_rows
        assert 0 < len(want_queries) < queries.shape[0]


class TestRandomSubselect:
    def _keypoints(self, n):
        return KeypointSet(
            positions=np.zeros((n, 2), np.float32),
            scales=np.ones(n, np.float32),
            orientations=np.zeros(n, np.float32),
            responses=np.arange(n, dtype=np.float32),
            descriptors=np.zeros((n, 128), np.float32),
        )

    def test_count_respected(self):
        subset = random_subselect(self._keypoints(100), 30, rng_for(1, "r"))
        assert len(subset) == 30

    def test_no_duplicates(self):
        subset = random_subselect(self._keypoints(50), 50, rng_for(1, "r"))
        assert len(np.unique(subset.responses)) == 50

    def test_oversized_count_returns_all(self):
        keypoints = self._keypoints(10)
        assert random_subselect(keypoints, 100, rng_for(1, "r")) is keypoints

    def test_negative_count(self):
        with pytest.raises(ValueError):
            random_subselect(self._keypoints(5), -1, rng_for(1, "r"))


class TestVoting:
    def test_clear_winner(self):
        labels = np.array([3] * 20 + [5] * 2)
        outcome = vote_scene(labels, min_votes=8)
        assert outcome.predicted_scene == 3

    def test_below_min_votes_abstains(self):
        outcome = vote_scene(np.array([3] * 5), min_votes=8)
        assert outcome.predicted_scene == -1

    def test_margin_required(self):
        labels = np.array([3] * 10 + [5] * 9)
        outcome = vote_scene(labels, min_votes=8, min_margin=1.5)
        assert outcome.predicted_scene == -1

    def test_distractor_only_matches(self):
        outcome = vote_scene(np.array([-1] * 30), min_votes=8)
        assert outcome.predicted_scene == -1
        assert outcome.matched_keypoints == 30

    def test_empty(self):
        assert vote_scene(np.array([])).predicted_scene == -1

    def test_votes_recorded(self):
        outcome = vote_scene(np.array([1, 1, 2]), min_votes=1, min_margin=1.0)
        assert outcome.votes == {1: 2, 2: 1}


class TestSceneDatabase:
    def test_from_keypoint_sets(self):
        sets = []
        for n in (5, 7):
            sets.append(
                KeypointSet(
                    positions=np.zeros((n, 2), np.float32),
                    scales=np.ones(n, np.float32),
                    orientations=np.zeros(n, np.float32),
                    responses=np.zeros(n, np.float32),
                    descriptors=np.zeros((n, 128), np.float32),
                )
            )
        database = SceneDatabase.from_keypoint_sets(sets, [0, -1])
        assert database.size == 12
        assert (database.labels[:5] == 0).all()
        assert (database.labels[5:] == -1).all()
        assert database.scene_ids.tolist() == [0]

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SceneDatabase.from_keypoint_sets([], [1])
