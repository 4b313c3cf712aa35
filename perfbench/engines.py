"""Venue engines as they run inside the shard worker process.

Each engine wraps the program's server object and answers the
benchmark's requests.  Every reply carries the worker-side timestamps
the driver needs (engine start and end, on the same monotonic clock as
the parent) and, in a traced run, the spans recorded around the calls
into the server's layers.  The builders below are what
:class:`repro.serving.shards.EngineSpec` runs in the worker: they
restore the venue from the snapshot store there, so the worker boots
the way a restarted shard would.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from perfbench.spans import SpanLog, patch

_WORKER_LOG: SpanLog | None = None


def _worker_log() -> SpanLog:
    """The worker process's span log, shared by all its engines."""
    global _WORKER_LOG
    if _WORKER_LOG is None:
        _WORKER_LOG = SpanLog()
    return _WORKER_LOG


@dataclass(frozen=True)
class Reply:
    """One answered request, as shipped back to the parent."""

    result: Any
    engine_start: float
    engine_end: float
    spans: tuple[tuple[str, float, float], ...] = ()


def peak_rss_kib() -> int:
    """This process's peak resident set size (KiB on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def private_kib() -> int:
    """Resident memory this process shares with no other (KiB, Linux).

    A forked worker starts with the parent's pages mapped and inherits
    its peak RSS, so the worker's ``ru_maxrss`` would count the parent a
    second time; its private pages are what it added on its own.
    """
    total = 0
    with open("/proc/self/smaps_rollup") as rollup:
        for line in rollup:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total


class _Engine:
    """Request dispatch shared by both engine kinds."""

    def __init__(self, load_seconds: float, traced: bool) -> None:
        self.load_seconds = load_seconds
        self.traced = traced

    def serve(self, request: tuple) -> Any:
        kind = request[0]
        if kind == "ping":
            return self.load_seconds
        if kind == "private":
            return private_kib()
        log = _worker_log()
        log.records.clear()
        start = time.perf_counter()
        result = getattr(self, f"_{kind}")(*request[1:])
        end = time.perf_counter()
        return Reply(result, start, end, tuple(log.take()) if self.traced else ())


class VenueEngine(_Engine):
    """A :class:`repro.core.VisualPrintServer` answering localize and ingest."""

    def __init__(self, server, load_seconds: float, traced: bool) -> None:
        super().__init__(load_seconds, traced)
        self.server = server
        self.low, self.high = (np.asarray(b, dtype=np.float64) for b in server.bounds())
        if traced:
            from repro.core import server as server_module
            from repro.localization.solver import AngularLocalizer

            log = _worker_log()
            patch(server.lookup, "query_batch", "lsh.query", log)
            patch(server_module, "largest_cluster", "localization.cluster", log)
            patch(AngularLocalizer, "solve", "localization.solve", log)
            patch(server, "localize", "server.localize", log)
            patch(server, "ingest", "server.ingest", log)

    def _localize(self, payload: bytes) -> tuple:
        from repro.core.fingerprint import Fingerprint

        answer = self.server.localize(Fingerprint.from_bytes(payload))
        pose = answer.pose
        return (
            (float(pose.x), float(pose.y), float(pose.z)),
            bool(answer.solution.converged),
            int(answer.matched_points),
            int(answer.clustered_points),
        )

    def _ingest(self, descriptors: np.ndarray, positions: np.ndarray) -> int:
        self.server.ingest(descriptors, positions)
        return int(descriptors.shape[0])


class SceneEngine(_Engine):
    """fig13's VisualPrint-k scene identification over an LSH matcher."""

    def __init__(self, descriptors, labels, load_seconds: float, traced: bool) -> None:
        super().__init__(load_seconds, traced)
        from repro.matching import LshMatcher

        self.labels = labels
        self.matcher = LshMatcher(descriptors)
        if traced:
            log = _worker_log()
            patch(self.matcher.index, "query_batch", "lsh.query", log)
            patch(self.matcher, "match", "lsh.match", log)

    def _identify(self, payload: bytes, min_votes: int) -> tuple:
        from repro.core.fingerprint import Fingerprint
        from repro.matching import vote_scene

        fingerprint = Fingerprint.from_bytes(payload)
        _, rows = self.matcher.match(fingerprint.keypoints.descriptors)
        outcome = vote_scene(self.labels[rows], min_votes=min_votes)
        return int(outcome.predicted_scene), int(rows.size)


def build_venue_engine(root: str, venue: str, traced: bool) -> VenueEngine:
    """EngineSpec builder: restore ``venue`` from its snapshot store."""
    from repro.serving import load_venue_server

    start = time.perf_counter()
    server = load_venue_server(root, venue)
    return VenueEngine(server, time.perf_counter() - start, traced)


def build_scene_engine(root: str, traced: bool) -> SceneEngine:
    """EngineSpec builder: restore the scene database and index it."""
    import io
    from pathlib import Path

    from repro.store import SnapshotStore

    start = time.perf_counter()
    sections = SnapshotStore(Path(root) / "scenes").load().sections
    descriptors = np.load(io.BytesIO(sections["descriptors.npy"]))
    labels = np.load(io.BytesIO(sections["labels.npy"]))
    return SceneEngine(descriptors, labels, time.perf_counter() - start, traced)
