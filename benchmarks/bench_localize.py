"""Venue read path per layer: ``query_batch``, ``largest_cluster``, ``solve``, ``localize``.

The venues are fig19's office and cafeteria (seed 3, drift scale 2, ICP
on; the set-up of ``ci/fig19_gate.py``), each wardriven and ingested
into its own :class:`repro.core.VisualPrintServer`.  The reads are
fig19's held-out query poses, 20 per venue, fingerprinted by the client
and sent through the wire format (``Fingerprint.from_bytes`` of
``to_bytes``).  Each read is answered ``_PASSES`` times by
``VisualPrintServer.localize``; the three inner layers are timed inside
those calls by wrapping the server's ``lookup.query_batch``, the
``largest_cluster`` it calls and its localizer's ``solve``.

Per layer the row records the median over reads of each read's median
pass (``ms_p50``), the quartiles and p90 of those per-read medians, and
the median absolute spread between a read's passes (``pass_spread_ms``).
The row lands in BENCH_localize.json via ``conftest.pytest_sessionfinish``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.server as server_module
from repro.core import VisualPrintClient, VisualPrintConfig, VisualPrintServer
from repro.core.fingerprint import Fingerprint
from repro.evaluation.experiments.fig19_localization import query_poses, simulate_query
from repro.util.rng import rng_for
from repro.wardrive import DriftModel, IndoorEnvironment, TangoRig, WardriveSession

_SEED = 3
_VENUES = ("office", "cafeteria")
_QUERIES_PER_VENUE = 20
_PASSES = 5
_LAYERS = ("query_batch", "largest_cluster", "solve", "localize")

#: The same rows measured at the commit before label-propagation DBSCAN
#: and the in-place DE generation (a per-point breadth-first DBSCAN over
#: ``query_ball_point`` neighbourhoods; ``np.std``/``np.mean``/``np.clip``
#: and fresh arrays per DE step), with this file's loop on the same
#: venues and reads.  Recorded by hand on the host named here; the bench
#: does not regenerate it.
_BEFORE_LABEL_PROPAGATION = {
    "host_cpus": 2,
    "reads": 40,
    "query_batch_ms_p50": 4.513,
    "query_batch_ms_p25": 4.192,
    "query_batch_ms_p75": 4.814,
    "largest_cluster_ms_p50": 3.699,
    "largest_cluster_ms_p25": 3.186,
    "largest_cluster_ms_p75": 4.135,
    "solve_ms_p50": 10.079,
    "solve_ms_p25": 9.902,
    "solve_ms_p75": 10.459,
    "localize_ms_p50": 18.569,
    "localize_ms_p25": 18.029,
    "localize_ms_p75": 19.212,
    "note": (
        "OPENBLAS_NUM_THREADS=1 on both sides, 4 pairs alternated on a shared "
        "2-vCPU host, this row from the last pair; over the 4 pairs the p50s "
        "read largest_cluster 3.70-4.67 ms before against 0.62-0.96 ms after, "
        "solve 10.08-10.76 ms against 9.07-12.95 ms (9.07-10.17 ms without "
        "the first pair, where query_batch also read 29 % slow) and localize "
        "18.57-21.24 ms against 14.37-20.50 ms"
    ),
}


def _venue_reads(venue: str) -> tuple[VisualPrintServer, list[Fingerprint]]:
    """One venue's server and its wire-format query fingerprints."""
    environment = IndoorEnvironment.build(venue, seed=_SEED)
    session = WardriveSession(environment, seed=_SEED, drift=DriftModel(scale=2.0))
    mapping = session.run(use_icp=True)
    config = VisualPrintConfig(
        descriptor_capacity=max(mapping.num_mappings, 1024), fingerprint_size=60
    )
    server = VisualPrintServer(config, bounds=environment.bounds)
    server.ingest(mapping.descriptors, mapping.positions)
    client = VisualPrintClient(server.publish_oracle(), config)
    rig = TangoRig(environment, seed=_SEED + 50)
    rng = rng_for(_SEED, f"querydesc/{venue}")
    reads = []
    for pose in query_poses(environment, _QUERIES_PER_VENUE, _SEED):
        keypoints = simulate_query(environment, pose, rig, rng)
        if keypoints is not None:
            fingerprint = client.fingerprint_keypoints(keypoints)
            reads.append(Fingerprint.from_bytes(fingerprint.to_bytes()))
    return server, reads


@pytest.fixture(scope="module")
def venue_reads() -> list[tuple[VisualPrintServer, list[Fingerprint]]]:
    return [_venue_reads(venue) for venue in _VENUES]


def _timed(fn, samples: list[float]):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    return timed


def test_localize_layers(venue_reads, monkeypatch, localize_trajectory):
    samples: dict[str, list[float]] = {layer: [] for layer in _LAYERS}
    monkeypatch.setattr(
        server_module,
        "largest_cluster",
        _timed(server_module.largest_cluster, samples["largest_cluster"]),
    )
    per_read = {layer: [] for layer in _LAYERS}
    for server, reads in venue_reads:
        monkeypatch.setattr(
            server.lookup,
            "query_batch",
            _timed(server.lookup.query_batch, samples["query_batch"]),
        )
        monkeypatch.setattr(
            server._localizer, "solve", _timed(server._localizer.solve, samples["solve"])
        )
        server.localize(reads[0])  # warm caches
        for fingerprint in reads:
            for layer in _LAYERS:
                samples[layer].clear()
            for _ in range(_PASSES):
                start = time.perf_counter()
                server.localize(fingerprint)
                samples["localize"].append(time.perf_counter() - start)
            for layer in _LAYERS:
                if samples[layer]:  # a read with no match skips two layers
                    per_read[layer].append(np.array(samples[layer]) * 1e3)
    row: dict[str, float | int] = {
        "venues": len(venue_reads),
        "reads": len(per_read["localize"]),
        "passes": _PASSES,
    }
    for layer in _LAYERS:
        passes = np.array(per_read[layer])  # (reads, passes) ms
        medians = np.median(passes, axis=1)
        p25, p50, p75, p90 = np.percentile(medians, [25, 50, 75, 90])
        row[f"{layer}_ms_p50"] = round(float(p50), 3)
        row[f"{layer}_ms_p25"] = round(float(p25), 3)
        row[f"{layer}_ms_p75"] = round(float(p75), 3)
        row[f"{layer}_ms_p90"] = round(float(p90), 3)
        spread = np.median(np.abs(passes - medians[:, None]), axis=1)
        row[f"{layer}_pass_spread_ms"] = round(float(np.median(spread)), 3)
    localize_trajectory["venue_reads"] = row
    localize_trajectory["before_label_propagation"] = _BEFORE_LABEL_PROPAGATION
    print(f"\nvenue reads: {row}")
