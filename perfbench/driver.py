"""Set-up, open-loop traffic and saturation phases of one run.

One process on one asyncio thread plays every phone: at each request's
due time it runs the client pipeline, pushes the fingerprint through
the simulated channel, sleeps the simulated uplink seconds for real,
submits to the :class:`repro.serving.ServingFrontend`, and sleeps the
simulated downlink seconds.  One process-mode shard runs the venue
engines.  Every request is timed from its due time, so a stall anywhere
adds to the latency of the requests behind it.

Queueing is measured from the benchmark's own timestamps — submit in
the parent, engine start and end in the worker (both on the host's
monotonic clock) — never from the frontend's histograms: in process
mode the queue lives inside the ``ProcessPoolExecutor``, so the
frontend's ``serving_queue_wait_seconds`` reads 0 and its
``serving_request_seconds`` silently includes the wait.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.core.client as client_module
from repro.core import UniquenessOracle, VisualPrintClient, VisualPrintConfig, VisualPrintServer
from repro.core.fingerprint import degradation_keep_counts
from repro.core.persistence import ServerStateStore
from repro.features.serialize import serialized_size
from repro.features.sift import SiftExtractor, SiftParams
from repro.matching import SceneDatabase
from repro.network import CHANNEL_PRESETS, FaultSpec, FaultyChannel, RetryPolicy
from repro.network.linkstate import AdaptiveConfig
from repro.obs import MetricsRegistry
from repro.serving import EngineSpec, ServingFrontend, ShardSaturatedError
from repro.store import SnapshotStore
from repro.util.rng import derive_seed, rng_for

from perfbench.engines import build_scene_engine, build_venue_engine
from perfbench.spans import SpanLog, patch
from perfbench.workloads import (
    MIN_VOTES,
    NUM_DISTRACTORS,
    NUM_SCENES,
    QUEUE_DEPTH,
    RESPONSE_BYTES,
    SCENE_CONTRAST_THRESHOLD,
    SCENE_FINGERPRINT_SIZE,
    VENUE_FINGERPRINT_SIZE,
    VENUES,
    Inputs,
    Read,
    Survey,
    Workload,
    scene_library,
)

#: Distractor images carry this scene label in the database.
DISTRACTOR_LABEL = -1


# ----------------------------------------------------------------------
# Set-up: build, save, restore, boot
# ----------------------------------------------------------------------


@dataclass
class Deployment:
    """A booted shard plus what the phones downloaded from it."""

    frontend: ServingFrontend
    oracles: dict[str, UniquenessOracle]
    configs: dict[str, VisualPrintConfig]
    bounds: dict[str, tuple[np.ndarray, np.ndarray]]
    timings: dict[str, float]

    def close(self) -> None:
        self.frontend.close()


def _npy(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def boot(workload: Workload, root: Path, traced: bool) -> tuple[ServingFrontend, float]:
    """Start one process-mode shard whose engines restore from ``root``.

    Returns the frontend and the seconds the worker spent restoring
    from the snapshot store.  The pings make the worker start and build
    every engine before the first timed request.
    """
    frontend = ServingFrontend(
        num_shards=1,
        workers=2,  # >1 selects process mode; one shard means one worker
        queue_depth=QUEUE_DEPTH,
        admission="reject",
        registry=MetricsRegistry(),
    )
    if workload.kind == "venue":
        for venue in VENUES:
            frontend.register_venue(
                venue, EngineSpec(build_venue_engine, str(root), venue, traced)
            )
        names = VENUES
    else:
        frontend.register_venue("scenes", EngineSpec(build_scene_engine, str(root), traced))
        names = ("scenes",)
    try:
        load_seconds = sum(frontend.call(name, ("ping",)) for name in names)
    except BaseException:
        frontend.close()
        raise
    return frontend, load_seconds


def set_up(
    workload: Workload,
    root: Path,
    surveys: dict[str, Survey] | None,
    traced: bool = False,
) -> Deployment:
    """Build the venues (or scene DB), curate oracles, store, restore, boot."""
    root.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    started = time.perf_counter()
    oracles: dict[str, UniquenessOracle] = {}
    configs: dict[str, VisualPrintConfig] = {}
    bounds: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if workload.kind == "venue":
        servers = {}
        for venue in VENUES:
            survey = surveys[venue]
            config = VisualPrintConfig(
                descriptor_capacity=max(survey.descriptors.shape[0], 1024),
                fingerprint_size=VENUE_FINGERPRINT_SIZE,
            )
            server = VisualPrintServer(
                config, bounds=survey.environment.bounds, registry=registry
            )
            server.ingest(survey.descriptors, survey.positions)
            servers[venue] = server
            oracles[venue] = server.publish_oracle()
            configs[venue] = config
            bounds[venue] = survey.environment.bounds
        built = time.perf_counter()
        for venue, server in servers.items():
            ServerStateStore(root / venue, registry=registry).save(server)
    else:
        library = scene_library()
        extractor = SiftExtractor(SiftParams(contrast_threshold=SCENE_CONTRAST_THRESHOLD))
        keypoints = [extractor.extract(library.scene(i)) for i in range(NUM_SCENES)]
        keypoints += [
            extractor.extract(library.distractor(i)) for i in range(NUM_DISTRACTORS)
        ]
        labels = list(range(NUM_SCENES)) + [DISTRACTOR_LABEL] * NUM_DISTRACTORS
        database = SceneDatabase.from_keypoint_sets(keypoints, labels)
        config = VisualPrintConfig(
            descriptor_capacity=max(database.size, 1024),
            fingerprint_size=SCENE_FINGERPRINT_SIZE,
        )
        oracle = UniquenessOracle(config, registry=registry)
        oracle.insert(database.descriptors)
        oracles["scenes"], configs["scenes"] = oracle, config
        built = time.perf_counter()
        SnapshotStore(root / "scenes", registry=registry).save(
            {
                "descriptors.npy": _npy(database.descriptors),
                "labels.npy": _npy(database.labels),
            }
        )
    saved = time.perf_counter()
    frontend, load_seconds = boot(workload, root, traced)
    ready = time.perf_counter()
    return Deployment(
        frontend=frontend,
        oracles=oracles,
        configs=configs,
        bounds=bounds,
        timings={
            "setup_s": ready - started,
            "build_s": built - started,
            "save_s": saved - built,
            "boot_s": ready - saved,
            "load_s": load_seconds,
        },
    )


# ----------------------------------------------------------------------
# One request's record
# ----------------------------------------------------------------------


@dataclass
class Record:
    """Timestamps and outcome of one offered request (seconds, monotonic)."""

    index: int
    kind: str  # "read" or "write"
    venue: str
    due: float
    start: float = math.nan
    status: str = "pending"  # answered | shed | failed | abandoned
    error: str = ""
    client_s: float = 0.0
    submit_cpu_s: float = 0.0
    uplink_sim_s: float = 0.0
    uplink_wall_s: float = 0.0
    downlink_sim_s: float = 0.0
    downlink_wall_s: float = 0.0
    submit_start: float = math.nan
    submit_end: float = math.nan
    engine_start: float = math.nan
    engine_end: float = math.nan
    done: float = math.nan
    attempts: int = 0
    air_bytes: int = 0
    wasted_bytes: int = 0
    degraded: bool = False
    extracted: int = 0
    kept: int = 0
    payload_ok: bool = True
    result: Any = None
    truth: Any = None
    worker_spans: tuple = ()
    client_spans: dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> float | None:
        """Due time to answer, or ``None`` when no answer came back."""
        return self.done - self.due if self.status == "answered" else None


# ----------------------------------------------------------------------
# Open-loop traffic
# ----------------------------------------------------------------------


def _client_for(workload: Workload, deployment: Deployment, venue: str) -> VisualPrintClient:
    extra: dict[str, Any] = {"registry": MetricsRegistry()}
    if workload.kind == "camera":
        extra["sift_params"] = SiftParams(contrast_threshold=SCENE_CONTRAST_THRESHOLD)
    if workload.adaptive:
        extra["retry_policy"] = RetryPolicy()
        extra["adaptive"] = AdaptiveConfig()
    return VisualPrintClient(deployment.oracles[venue], deployment.configs[venue], **extra)


def _channel_for(workload: Workload, seed: int, phone: tuple[str, int]):
    preset = CHANNEL_PRESETS[workload.channel]
    if not workload.faults:
        return preset
    name = f"{preset.name}-{phone[0]}-{phone[1]}"
    spec = FaultSpec(
        **workload.faults,
        seed=derive_seed(seed, f"perfbench/{workload.name}/{name}/faults") % (2**31),
    )
    return FaultyChannel(dataclasses.replace(preset, name=name), spec)


def _client_patches(clients: dict[Any, VisualPrintClient], log: SpanLog) -> list[Callable]:
    """Spans around the client's public stages (traced runs only)."""
    undo = [patch(client_module, "serialize_keypoints_into", "client.serialize", log)]
    for client in clients.values():
        undo.append(patch(client, "extract_keypoints", "client.sift", log))
        undo.append(patch(client.oracle, "counts", "client.oracle", log))
        undo.append(patch(client.oracle, "rank_by_uniqueness", "client.oracle", log))
    return undo


def _fingerprint(client: VisualPrintClient, read: Read, index: int):
    if read.frame is not None:
        return client.process_frame(read.frame, frame_index=index)
    return client.fingerprint_keypoints(read.keypoints, frame_index=index)


def _request(workload: Workload, payload: bytes) -> tuple:
    if workload.kind == "venue":
        return ("localize", payload)
    return ("identify", payload, MIN_VOTES)


async def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


async def _submit(frontend: ServingFrontend, record: Record, request: tuple) -> None:
    record.submit_start = time.perf_counter()
    try:
        reply = await frontend.submit(record.venue, request)
    except ShardSaturatedError:
        record.status = "shed"
        return
    except Exception as error:  # an engine failure: counted, reported, not fatal
        record.status = "failed"
        record.error = repr(error)
        return
    finally:
        record.submit_end = time.perf_counter()
    record.status = "answered"
    record.result = reply.result
    record.engine_start, record.engine_end = reply.engine_start, reply.engine_end
    record.worker_spans = reply.spans


async def _offer_read(
    workload: Workload,
    frontend: ServingFrontend,
    record: Record,
    read: Read,
    client: VisualPrintClient,
    channel,
    gap: float,
    seed: int,
    log: SpanLog | None,
) -> None:
    rng = rng_for(seed, f"perfbench/{workload.name}/link/{record.index}")
    if log is not None:
        log.current = record.index
    extracted = client.metrics.counter("client_keypoints_extracted_total")
    extracted_before = extracted.value
    began = time.perf_counter()
    fingerprint = _fingerprint(client, read, record.index)
    computed = time.perf_counter()
    if client.adaptive is not None:
        client.adaptive.advance(gap)
    outcome = client.submit_fingerprint(fingerprint, channel, rng=rng)
    submitted = time.perf_counter()
    if log is not None:
        log.current = None
    record.client_s = computed - began
    record.submit_cpu_s = submitted - computed
    record.extracted = int(extracted.value - extracted_before)
    record.kept = len(fingerprint)
    record.attempts = outcome.attempts
    record.air_bytes = sum(a.payload_bytes for a in outcome.attempt_records if a.kind != "outage")
    record.wasted_bytes = outcome.wasted_bytes
    record.degraded = outcome.status == "degraded"
    if not outcome.delivered:
        record.status = "abandoned"
        return
    keep = degradation_keep_counts(
        len(fingerprint), floor=client.degrade_floor, max_steps=client.degrade_steps
    )[outcome.ladder_step]
    if keep == len(fingerprint):
        payload = bytes(client.last_payload)
    else:
        payload = fingerprint.truncate(keep).to_bytes()
    record.payload_ok = len(payload) == serialized_size(keep) == outcome.payload_bytes
    record.uplink_sim_s = outcome.latency_seconds
    await asyncio.sleep(record.uplink_sim_s)
    record.uplink_wall_s = time.perf_counter() - submitted
    await _submit(frontend, record, _request(workload, payload))
    if record.status != "answered":
        return
    downlink = getattr(channel, "inner", channel)  # responses ride the clean link
    record.downlink_sim_s = downlink.response_seconds(RESPONSE_BYTES, rng)
    down_start = time.perf_counter()
    await asyncio.sleep(record.downlink_sim_s)
    record.done = time.perf_counter()
    record.downlink_wall_s = record.done - down_start


async def _offer(
    workload: Workload,
    deployment: Deployment,
    inputs: Inputs,
    seed: int,
    log: SpanLog | None,
    bursts: list[list[tuple[str, tuple]]],
) -> tuple[list[Record], list[tuple[list[Record], float]]]:
    phones = sorted({(r.venue, r.phone) for r in inputs.requests if isinstance(r, Read)})
    clients = {p: _client_for(workload, deployment, p[0]) for p in phones}
    channels = {p: _channel_for(workload, seed, p) for p in phones}
    undo = _client_patches(clients, log) if log is not None else []
    records = [
        Record(
            index=index,
            kind="read" if isinstance(request, Read) else "write",
            venue=request.venue,
            due=math.nan,
            truth=getattr(request, "truth", None),
        )
        for index, request in enumerate(inputs.requests)
    ]

    async def run_one(record: Record, request) -> None:
        await _sleep_until(record.due)
        record.start = time.perf_counter()
        if record.kind == "write":
            await _submit(
                deployment.frontend, record, ("ingest", request.descriptors, request.positions)
            )
            record.done = time.perf_counter()
            return
        phone = (request.venue, request.phone)
        await _offer_read(
            workload,
            deployment.frontend,
            record,
            request,
            clients[phone],
            channels[phone],
            inputs.gaps[record.index],
            seed,
            log,
        )

    saturation: list[tuple[list[Record], float]] = []

    async def saturate(burst: list[tuple[str, tuple]]) -> None:
        # The whole burst at once, so the worker never idles until the last.
        replays = [
            Record(index=i, kind="read", venue=venue, due=math.nan)
            for i, (venue, _) in enumerate(burst)
        ]
        start = time.perf_counter()
        await asyncio.gather(
            *(
                _submit(deployment.frontend, replay, request)
                for replay, (_, request) in zip(replays, burst)
            )
        )
        saturation.append((replays, time.perf_counter() - start))

    # The open loop's window is cut into equal segments with a burst
    # before, between and after them.  Each segment starts once the
    # previous burst has drained; clients and channels carry over.
    segments = max(1, len(bursts) - 1)
    length = inputs.window / segments
    try:
        for segment in range(segments):
            if bursts:
                await saturate(bursts[segment])
            low = segment * length
            chosen = [
                index
                for index, offset in enumerate(inputs.offsets)
                if low <= offset and (offset < low + length or segment == segments - 1)
            ]
            start = time.perf_counter() + 0.05
            for index in chosen:
                records[index].due = start + inputs.offsets[index] - low
            await asyncio.gather(
                *(run_one(records[index], inputs.requests[index]) for index in chosen)
            )
        if bursts:
            await saturate(bursts[-1])
    finally:
        for restore in reversed(undo):
            restore()
    return records, saturation


def offer(
    workload: Workload,
    deployment: Deployment,
    inputs: Inputs,
    seed: int,
    log: SpanLog | None = None,
) -> list[Record]:
    """Run the open-loop phase; one :class:`Record` per offered request."""
    records, _ = asyncio.run(_offer(workload, deployment, inputs, seed, log, []))
    if log is not None:
        for request, spans in log.totals().items():
            if request is not None:
                records[request].client_spans = dict(spans)
    return records


def offer_between_bursts(
    workload: Workload,
    deployment: Deployment,
    inputs: Inputs,
    seed: int,
    bursts: list[list[tuple[str, tuple]]],
) -> tuple[list[Record], list[tuple[list[Record], float]]]:
    """The open loop in ``len(bursts) - 1`` segments, with a closed-loop burst
    before, between and after them.

    Returns the open loop's records and, per burst, one record per
    request plus the burst's wall seconds.  Bursts spread over the whole
    run sample the host's speed where the open loop does.
    """
    if len(bursts) < 2:
        raise ValueError("need a burst on each side of the open loop")
    return asyncio.run(_offer(workload, deployment, inputs, seed, None, bursts))


# ----------------------------------------------------------------------
# Closed-loop saturation
# ----------------------------------------------------------------------


def prepare_bursts(
    workload: Workload, deployment: Deployment, inputs: Inputs
) -> list[list[tuple[str, tuple]]]:
    """``workload.bursts`` bursts of ``workload.burst_size`` ``(venue, request)``.

    Full fingerprints of the run's spare reads in order (of its open-loop
    reads when it has no spares; reused cyclically when there are fewer
    than burst slots), made before any phase by phones of their own: that
    work runs on phones, and at full size the server's work does not
    depend on what the channel did.  With a spare read per slot no
    request of a run repeats, and none was seen in the open loop.
    """
    if workload.burst_size > QUEUE_DEPTH:
        raise ValueError(
            f"a burst of {workload.burst_size} would overflow the queue bound {QUEUE_DEPTH}"
        )
    reads = inputs.spares or [r for r in inputs.requests if isinstance(r, Read)]
    clients: dict[str, VisualPrintClient] = {}
    requests = []
    for index in range(workload.bursts * workload.burst_size):
        read = reads[index % len(reads)]
        if read.venue not in clients:
            clients[read.venue] = _client_for(workload, deployment, read.venue)
        fingerprint = _fingerprint(clients[read.venue], read, index)
        requests.append((read.venue, _request(workload, fingerprint.to_bytes())))
    size = workload.burst_size
    return [requests[i : i + size] for i in range(0, len(requests), size)]


def worker_private_kib(workload: Workload, deployment: Deployment) -> int:
    """Resident memory of the shard worker not shared with the parent."""
    name = VENUES[0] if workload.kind == "venue" else "scenes"
    return int(deployment.frontend.call(name, ("private",)))
