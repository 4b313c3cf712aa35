"""Server LSH table: build, projection and ``query_batch`` on the perfbench scene library.

The table is the camera workload's scene database (seed 7, 10 scenes +
30 distractors at 256x256, SIFT contrast threshold 0.008); the queries
are VisualPrint-100 fingerprints of query views, taken through the
client and the wire format (so their descriptors are integer-valued).
Rows:

* ``camera_k2`` — the integer-valued table, ``k = 2`` (the ratio test
  in :class:`repro.matching.LshMatcher`);
* ``venue_jitter_k3`` — the same table with a fixed float jitter on every
  row, ``k = 3`` (a venue server's neighbours per keypoint), since
  wardriven venue tables hold float descriptors;
* ``build`` — ``LshIndex.build`` over the whole table, the reported
  ``memory_bytes``, the row store's share of it (``row_store_bytes``:
  the descriptor rows, uint8 for this byte-valued table, plus a float64
  norm per row) and the bytes tracemalloc sees the build allocate and
  keep;
* ``project`` — ``StableProjections.project`` of the whole table and of
  one 100-row fingerprint.

Query rows record the median and p90 of per-fingerprint wall time (best
of three passes per fingerprint), the median of all timed passes (every
pass of every fingerprint, comparable with perfbench's per-read
``lsh.query_ms``), the distinct candidates per query row and the
shortlist per query row that survives the float32 filter; the build and
project rows record best-of-N wall times.  Rows land in BENCH_lsh.json
via ``conftest.pytest_sessionfinish``.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.core.client import VisualPrintClient
from repro.core.config import VisualPrintConfig
from repro.core.fingerprint import Fingerprint
from repro.core.oracle import UniquenessOracle
from repro.features.sift import SiftExtractor, SiftParams
from repro.imaging.synth import SceneLibrary
from repro.lsh import LshIndex
from repro.matching import LshMatcher
from repro.matching.schemes import SceneDatabase
from repro.util.rng import rng_for

_SEED = 7
_NUM_SCENES = 10
_NUM_DISTRACTORS = 30
_SIZE = (256, 256)
_CONTRAST_THRESHOLD = 0.008
_FINGERPRINT_SIZE = 100
_QUERIES = 30
_REPEATS = 3

#: The same two rows timed against the commit before filter-and-refine
#: (every candidate converted to float64 and argsorted), with this
#: file's timing loop on the same table and fingerprints.  Recorded by
#: hand on the host named here; the bench does not regenerate it.
_BEFORE_FILTER_REFINE = {
    "host_cpus": 2,
    "camera_k2_query_batch_ms_p50": 72.63,
    "camera_k2_query_batch_ms_p90": 94.35,
    "venue_jitter_k3_query_batch_ms_p50": 80.81,
    "venue_jitter_k3_query_batch_ms_p90": 111.21,
    "candidates_per_row": 911.2,
    "note": (
        "timed right after the run of this bench recorded beside it; on "
        "the same shared 2-vCPU host, repeat runs of both sides put the "
        "before/after ratio of the p50s between 2.4x and 3.4x"
    ),
}

#: Every row timed against the commit before the CSR tables and the
#: block-GEMM projection (dict-of-arrays tables filled bucket by bucket,
#: an ``einsum`` projection, a per-query probe loop), with this file's
#: timing loops on the same table and fingerprints and one BLAS thread.
#: Recorded by hand on the host named here; the bench does not
#: regenerate it.
_BEFORE_CSR = {
    "host_cpus": 2,
    "camera_k2_query_batch_ms_p50": 11.98,
    "venue_jitter_k3_query_batch_ms_p50": 11.87,
    "build_ms": 128.06,
    "build_memory_bytes": 15274536,
    "build_traced_bytes": 22562520,
    "project_table_ms": 46.67,
    "project_fingerprint_ms": 0.16,
    "note": (
        "OPENBLAS_NUM_THREADS=1 on both sides, runs alternated on a shared "
        "2-vCPU host: build 128-136 ms before against 45-64 ms after, "
        "table projection 47-60 ms against 12-17 ms; the query p50s "
        "overlap (11.9-12.5 ms before, 10.0-12.5 ms after) in this "
        "hot-cache loop"
    ),
}


#: The query and build rows measured at the commit before the uint8 row store and the
#: per-query mat-vec filter (float32 rows, a chunked ``np.vecdot`` over
#: gathered row and query copies), with this file's timing loop on the
#: same table and fingerprints.  Recorded by hand on the host named
#: here; the bench does not regenerate it.
_BEFORE_U8_ROWS = {
    "host_cpus": 2,
    "camera_k2_query_batch_ms_p50": 16.21,
    "camera_k2_query_batch_ms_p90": 23.01,
    "camera_k2_query_batch_ms_median_all": 17.5,
    "venue_jitter_k3_query_batch_ms_p50": 16.45,
    "venue_jitter_k3_query_batch_ms_median_all": 18.12,
    "build_ms": 79.86,
    "build_memory_bytes": 15063784,
    "row_store_bytes": 13704080,
    "note": (
        "OPENBLAS_NUM_THREADS=1 on both sides, runs alternated on a shared "
        "2-vCPU host, this row from the run just before the one recorded "
        "beside it; over five such pairs the camera p50 read 16.2-22.6 ms "
        "before against 14.7-16.9 ms after, and the jitter p50 16.5-21.7 ms "
        "before against 16.7-20.5 ms after"
    ),
}


@pytest.fixture(scope="module")
def scene_table() -> tuple[np.ndarray, list[np.ndarray]]:
    """Scene-library descriptors and wire-format query fingerprints."""
    library = SceneLibrary(
        seed=_SEED,
        num_scenes=_NUM_SCENES,
        num_distractors=_NUM_DISTRACTORS,
        size=_SIZE,
        views_per_scene=100_000,
    )
    params = SiftParams(contrast_threshold=_CONTRAST_THRESHOLD)
    extractor = SiftExtractor(params)
    keypoints = [extractor.extract(library.scene(i)) for i in range(_NUM_SCENES)]
    keypoints += [extractor.extract(library.distractor(i)) for i in range(_NUM_DISTRACTORS)]
    labels = list(range(_NUM_SCENES)) + [-1] * _NUM_DISTRACTORS
    database = SceneDatabase.from_keypoint_sets(keypoints, labels)
    config = VisualPrintConfig(
        descriptor_capacity=max(database.size, 1024),
        fingerprint_size=_FINGERPRINT_SIZE,
    )
    oracle = UniquenessOracle(config)
    oracle.insert(database.descriptors)
    client = VisualPrintClient(oracle, config, sift_params=params)
    queries = []
    for index in range(_QUERIES):
        frame = library.query_view(index % _NUM_SCENES, index)
        fingerprint = client.process_frame(frame, frame_index=index)
        wire = Fingerprint.from_bytes(fingerprint.to_bytes())
        queries.append(wire.keypoints.descriptors)
    return database.descriptors, queries


def _query_ms(index, queries: list[np.ndarray], k: int) -> np.ndarray:
    """Wall time of every ``query_batch``, ``(_REPEATS, fingerprints)`` ms."""
    index.query_batch(queries[0], num_neighbors=k)  # warm caches
    samples = np.empty((_REPEATS, len(queries)))
    for repeat in range(_REPEATS):
        for i, rows in enumerate(queries):
            start = time.perf_counter()
            index.query_batch(rows, num_neighbors=k)
            samples[repeat, i] = time.perf_counter() - start
    return samples * 1e3


def _work_per_row(index, queries: list[np.ndarray], k: int) -> tuple[float, float]:
    """Mean distinct candidates and mean filter shortlist per query row."""
    candidates = shortlist = rows = 0
    for descriptors in queries:
        descriptors = np.asarray(descriptors, dtype=np.float32)
        pair_queries, pair_rows = index._candidates(descriptors)
        candidates += pair_rows.size
        with np.errstate(over="ignore", invalid="ignore"):
            _, kept = index._shortlist(descriptors, pair_queries, pair_rows, k)
        shortlist += kept.size
        rows += descriptors.shape[0]
    return candidates / rows, shortlist / rows


def _best_ms(call, repeats: int) -> float:
    """Best wall time of ``repeats`` calls, in ms."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 2)


def _row_store_bytes(index) -> int:
    """``memory_bytes`` less the bucket tables: the rows and their norms."""
    tables = sum(array.nbytes for table in index._tables for array in table)
    return index.memory_bytes() - tables


def _row(index, queries: list[np.ndarray], k: int) -> dict:
    samples = _query_ms(index, queries, k)
    ms = samples.min(axis=0)  # best pass per fingerprint
    candidates, shortlist = _work_per_row(index, queries, k)
    return {
        "table_rows": index.size,
        "fingerprints": len(queries),
        "rows_per_fingerprint": round(float(np.mean([q.shape[0] for q in queries])), 1),
        "k": k,
        "query_batch_ms_p50": round(float(np.median(ms)), 2),
        "query_batch_ms_p90": round(float(np.percentile(ms, 90)), 2),
        "query_batch_ms_median_all": round(float(np.median(samples)), 2),
        "candidates_per_row": round(candidates, 1),
        "shortlist_per_row": round(shortlist, 2),
    }


def test_lsh_query_camera(scene_table, lsh_trajectory):
    descriptors, queries = scene_table
    index = LshMatcher(descriptors).index
    row = _row(index, queries, k=2)
    lsh_trajectory["camera_k2"] = row
    lsh_trajectory["before_filter_refine"] = _BEFORE_FILTER_REFINE
    lsh_trajectory["before_u8_rows"] = _BEFORE_U8_ROWS
    print(f"\ncamera k=2: {row}")


def test_lsh_build(scene_table, lsh_trajectory):
    descriptors, _ = scene_table
    index = LshIndex()
    build_ms = _best_ms(lambda: index.build(descriptors), _REPEATS)
    fresh = LshIndex()
    tracemalloc.start()
    try:
        fresh.build(descriptors)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = {
        "table_rows": index.size,
        "build_ms": build_ms,
        "memory_bytes": index.memory_bytes(),
        "row_store_bytes": _row_store_bytes(index),
        "traced_bytes": traced,
    }
    lsh_trajectory["build"] = row
    lsh_trajectory["before_csr"] = _BEFORE_CSR
    print(f"\nbuild: {row}")


def test_lsh_project(scene_table, lsh_trajectory):
    descriptors, queries = scene_table
    projections = LshIndex().projections
    row = {
        "table_rows": descriptors.shape[0],
        "project_table_ms": _best_ms(lambda: projections.project(descriptors), 5),
        "fingerprint_rows": queries[0].shape[0],
        "project_fingerprint_ms": _best_ms(lambda: projections.project(queries[0]), 50),
    }
    lsh_trajectory["project"] = row
    print(f"\nproject: {row}")


def test_lsh_query_venue_jitter(scene_table, lsh_trajectory):
    descriptors, queries = scene_table
    jitter = rng_for(_SEED, "bench-lsh-jitter").uniform(-0.5, 0.5, descriptors.shape)
    index = LshMatcher((descriptors + jitter).astype(np.float32)).index
    row = _row(index, queries, k=3)
    lsh_trajectory["venue_jitter_k3"] = row
    print(f"\nvenue jitter k=3: {row}")
