"""Workload definitions and the seeded inputs each run drives.

The *deployment* — which venues exist, how they were surveyed, the
scene database, every program setting — is fixed per workload and does
not depend on the seed (:func:`program_config`).  The seed only picks
the *traffic*: arrival times, query poses and camera frames, channel
fault draws and the write batches (:func:`make_inputs`).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import VisualPrintConfig
from repro.evaluation.experiments.fig19_localization import query_poses, simulate_query
from repro.imaging.synth import SceneLibrary
from repro.network import CHANNEL_PRESETS
from repro.util.rng import derive_seed, rng_for
from repro.wardrive import (
    DriftModel,
    IndoorEnvironment,
    TangoRig,
    WardriveSession,
    lawnmower_path,
)

#: The two fig19 venues the localization workload serves.  Grocery is
#: left out: its map build alone takes ~32 s.
VENUES = ("office", "cafeteria")
#: fig19's venue seed, ICP on, drift scale and fingerprint size.
VENUE_SEED = 3
DRIFT_SCALE = 2.0
VENUE_FINGERPRINT_SIZE = 60
#: The camera workload's scene database: SceneLibrary frames at 256x256,
#: VisualPrint-100 fingerprints, fig13's vote threshold.
SCENE_SEED = 7
NUM_SCENES = 10
NUM_DISTRACTORS = 30
IMAGE_SIZE = 256
SCENE_FINGERPRINT_SIZE = 100
SCENE_CONTRAST_THRESHOLD = 0.008
MIN_VOTES = 5
#: Query views are drawn from this many re-captures per scene, so two
#: seeds almost never photograph the same view.
VIEWS_PER_SCENE = 100_000
#: Bounded shard queue; a full queue sheds the request.  Deep enough to
#: hold a whole closed-loop burst.
QUEUE_DEPTH = 64
#: Response bytes on the downlink: a pose or a scene id plus framing.
RESPONSE_BYTES = 256
#: Independent phones per venue, each with its own client state and its
#: own channel: link faults are correlated within a phone, not across.
PHONES_PER_VENUE = 4
#: How many snapshots of the second wardrive session feed the writes.
WRITE_SESSION_POSES = 24


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``rate_qps`` counts reads and writes together."""

    name: str
    kind: str  # "venue" (localize) or "camera" (scene identification)
    rate_qps: float
    slo_ms: float
    channel: str
    bursts: int  # closed-loop bursts around and between open-loop segments
    burst_size: int  # requests per burst
    faults: dict[str, float] | None = None
    adaptive: bool = False
    write_every: int = 0  # every k-th request is a write; 0 = reads only

    def rate_and_slo(self) -> str:
        """How ``BENCHMARK.json`` states the rate and the SLO limit."""
        return f"{self.rate_qps:g} req/s, SLO {self.slo_ms:g} ms"


WORKLOADS: dict[str, Workload] = {
    "camera_retrieval": Workload(
        name="camera_retrieval",
        kind="camera",
        rate_qps=1.4,
        slo_ms=600.0,
        channel="wifi",
        bursts=8,
        burst_size=10,
    ),
    "lossy_ingest_mix": Workload(
        name="lossy_ingest_mix",
        kind="venue",
        rate_qps=1.2,
        slo_ms=1500.0,
        channel="lte",
        faults={"loss": 0.25, "outage_enter": 0.06, "outage_exit": 0.3},
        adaptive=True,
        write_every=5,
        bursts=6,
        burst_size=8,
    ),
}


def program_config(workload: Workload) -> dict[str, Any]:
    """Every program setting a run uses; independent of the seed."""
    if workload.kind == "venue":
        pipeline = VisualPrintConfig(fingerprint_size=VENUE_FINGERPRINT_SIZE)
        deployment = {
            "venues": VENUES,
            "venue_seed": VENUE_SEED,
            "drift_scale": DRIFT_SCALE,
            "icp": True,
        }
    else:
        pipeline = VisualPrintConfig(fingerprint_size=SCENE_FINGERPRINT_SIZE)
        deployment = {
            "scene_seed": SCENE_SEED,
            "num_scenes": NUM_SCENES,
            "num_distractors": NUM_DISTRACTORS,
            "image_size": IMAGE_SIZE,
            "contrast_threshold": SCENE_CONTRAST_THRESHOLD,
            "min_votes": MIN_VOTES,
        }
    return {
        "workload": asdict(workload),
        "pipeline": asdict(pipeline),
        "deployment": deployment,
        "channel": asdict(CHANNEL_PRESETS[workload.channel]),
        "queue_depth": QUEUE_DEPTH,
        "response_bytes": RESPONSE_BYTES,
    }


# ----------------------------------------------------------------------
# The deployment: venue surveys and the scene library
# ----------------------------------------------------------------------


@dataclass
class Survey:
    """One venue's environment and its wardriven keypoint-to-3D map."""

    environment: IndoorEnvironment
    descriptors: np.ndarray
    positions: np.ndarray


def _sources_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_surveys(src: Path, cache_dir: Path) -> dict[str, Survey]:
    """Wardrive each venue, or reuse a survey made by the same sources.

    The survey is the venue's map, made once per deployment on a Tango
    tablet; it is the input the server set-up starts from, not part of
    it.  It is cached under ``cache_dir`` keyed by a digest of every
    program source file, so a change to the wardriving code re-surveys.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = _sources_digest(src)
    surveys: dict[str, Survey] = {}
    for venue in VENUES:
        environment = IndoorEnvironment.build(venue, seed=VENUE_SEED)
        path = cache_dir / f"survey-{venue}-{VENUE_SEED}-{key}.npz"
        if path.exists():
            with np.load(path) as stored:
                descriptors, positions = stored["descriptors"], stored["positions"]
        else:
            session = WardriveSession(
                environment, seed=VENUE_SEED, drift=DriftModel(scale=DRIFT_SCALE)
            )
            mapping = session.run(use_icp=True)
            descriptors, positions = mapping.descriptors, mapping.positions
            partial = path.with_name(f"{path.name}.{os.getpid()}.tmp.npz")
            np.savez(partial, descriptors=descriptors, positions=positions)
            os.replace(partial, path)
        surveys[venue] = Survey(environment, descriptors, positions)
    return surveys


def scene_library() -> SceneLibrary:
    return SceneLibrary(
        seed=SCENE_SEED,
        num_scenes=NUM_SCENES,
        num_distractors=NUM_DISTRACTORS,
        size=(IMAGE_SIZE, IMAGE_SIZE),
        views_per_scene=VIEWS_PER_SCENE,
    )


# ----------------------------------------------------------------------
# Seeded traffic
# ----------------------------------------------------------------------


@dataclass
class Read:
    """One localization or scene query as the phone sees it."""

    venue: str
    phone: int = 0
    keypoints: Any = None  # venue workloads: simulated query keypoints
    frame: np.ndarray | None = None  # camera workload: the captured frame
    truth: Any = None  # ground-truth Pose (venue) or scene index (camera)


@dataclass
class Write:
    """One wardrive snapshot uploaded into a venue."""

    venue: str
    descriptors: np.ndarray
    positions: np.ndarray


@dataclass
class Inputs:
    """Everything a run drives, in request order."""

    offsets: list[float]  # due time of each request, seconds from start
    requests: list[Read | Write]
    gaps: list[float]  # seconds since the same phone's previous read
    window: float  # seconds the offsets span
    wardrive_s: list[float] = field(default_factory=list)  # per write session
    spares: list[Read] = field(default_factory=list)  # burst reads, never offered


def request_count(workload: Workload, seconds: float) -> int:
    return max(1, round(workload.rate_qps * seconds))


def make_inputs(
    workload: Workload,
    seed: int,
    seconds: float,
    surveys: dict[str, Survey] | None = None,
    library: SceneLibrary | None = None,
    spares: int = 0,
) -> Inputs:
    """The run's traffic: open-loop Poisson arrivals and their payloads.

    The request count is fixed by rate and duration; only arrival times
    are random, so every run offers the same amount of work.  Reads
    alternate between venues (camera reads cycle through the scenes in a
    seeded order), and with ``write_every = k`` every k-th request is a
    write.  ``spares`` more reads, drawn after the open loop's, are kept
    for the closed-loop bursts.
    """
    count = request_count(workload, seconds)
    # A Poisson process conditioned on ``count`` arrivals in the window:
    # sorted uniform arrival times.  Conditioning keeps the offered load
    # (and so the utilisation) the same in every run.
    arrivals = rng_for(seed, f"perfbench/{workload.name}/arrivals")
    window = count / workload.rate_qps
    offsets = np.sort(arrivals.uniform(0.0, window, size=count))
    is_write = [
        workload.write_every > 0 and (index + 1) % workload.write_every == 0
        for index in range(count)
    ]
    num_reads = count - sum(is_write)
    if workload.kind == "venue":
        reads = _venue_reads(workload, seed, num_reads + spares, surveys)
    else:
        reads = _camera_reads(workload, seed, num_reads + spares, library)
    reads, spare_reads = reads[:num_reads], reads[num_reads:]
    write_batches, wardrive_s = _writes(workload, seed, sum(is_write), surveys)
    writes = iter(write_batches)
    reads_iter = iter(reads)
    requests: list[Read | Write] = [
        next(writes) if write else next(reads_iter) for write in is_write
    ]
    # Reads of a venue take turns over its phones.  A phone's idle time
    # since its previous read is what its adaptive link estimator decays
    # its confidence over.
    reads_seen: dict[str, int] = {}
    last_read: dict[tuple[str, int], float] = {}
    read_gaps: list[float] = []
    for offset, request in zip(offsets, requests):
        if isinstance(request, Read):
            request.phone = reads_seen.get(request.venue, 0) % PHONES_PER_VENUE
            reads_seen[request.venue] = reads_seen.get(request.venue, 0) + 1
            key = (request.venue, request.phone)
            read_gaps.append(float(offset - last_read.get(key, offset)))
            last_read[key] = float(offset)
        else:
            read_gaps.append(0.0)
    return Inputs(
        offsets=[float(o) for o in offsets],
        requests=requests,
        gaps=read_gaps,
        window=window,
        wardrive_s=wardrive_s,
        spares=spare_reads,
    )


def _venue_reads(
    workload: Workload, seed: int, count: int, surveys: dict[str, Survey]
) -> list[Read]:
    per_venue: dict[str, list[Read]] = {}
    for venue in VENUES:
        environment = surveys[venue].environment
        stream = derive_seed(seed, f"perfbench/{workload.name}/{venue}")
        rig = TangoRig(environment, seed=stream % (2**31))
        noise = rng_for(seed, f"perfbench/{workload.name}/{venue}/descriptors")
        wanted = (count + len(VENUES) - 1) // len(VENUES)
        reads: list[Read] = []
        batch = 0
        while len(reads) < wanted:
            for pose in query_poses(environment, wanted, stream + batch):
                keypoints = simulate_query(environment, pose, rig, noise)
                if keypoints is not None and len(reads) < wanted:
                    reads.append(Read(venue=venue, keypoints=keypoints, truth=pose))
            batch += 1
        per_venue[venue] = reads
    return [
        per_venue[VENUES[index % len(VENUES)]][index // len(VENUES)]
        for index in range(count)
    ]


def _camera_reads(
    workload: Workload, seed: int, count: int, library: SceneLibrary
) -> list[Read]:
    rng = rng_for(seed, f"perfbench/{workload.name}/views")
    order = np.concatenate(
        [rng.permutation(NUM_SCENES) for _ in range(count // NUM_SCENES + 1)]
    )
    scenes = order[:count]
    views = rng.integers(0, VIEWS_PER_SCENE, size=count)
    return [
        Read(
            venue="scenes",
            frame=library.query_view(int(scene), int(view)),
            truth=int(scene),
        )
        for scene, view in zip(scenes, views)
    ]


def _writes(
    workload: Workload, seed: int, count: int, surveys: dict[str, Survey] | None
) -> tuple[list[Write], list[float]]:
    """Snapshots of a second, differently seeded wardrive of each venue.

    A short uncorrected walk over a seeded subset of the survey path;
    each snapshot becomes one ingest batch.  Also returns the wall
    seconds of each venue's ``WardriveSession.run``.
    """
    if count == 0:
        return [], []
    per_venue: dict[str, list[Write]] = {}
    seconds: list[float] = []
    for venue in VENUES:
        environment = surveys[venue].environment
        rng = rng_for(seed, f"perfbench/{workload.name}/{venue}/write-path")
        path = lawnmower_path(environment)
        chosen = sorted(rng.choice(len(path), size=WRITE_SESSION_POSES, replace=False))
        session = WardriveSession(
            environment,
            seed=derive_seed(seed, f"perfbench/{workload.name}/{venue}/wardrive")
            % (2**31),
            drift=DriftModel(scale=DRIFT_SCALE),
            path=[path[index] for index in chosen],
        )
        started = time.perf_counter()
        mapping = session.run(use_icp=False)
        seconds.append(time.perf_counter() - started)
        per_venue[venue] = [
            Write(venue, snapshot.descriptors.astype(np.float32), estimates)
            for snapshot, estimates in zip(
                mapping.snapshots,
                np.split(
                    mapping.positions,
                    np.cumsum([s.num_observations for s in mapping.snapshots])[:-1],
                ),
            )
        ]
    out: list[Write] = []
    for index in range(count):
        batches = per_venue[VENUES[index % len(VENUES)]]
        out.append(batches[(index // len(VENUES)) % len(batches)])
    return out, seconds
