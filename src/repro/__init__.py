"""VisualPrint — low-bandwidth cloud offload for mobile AR.

A full from-scratch reproduction of *Low Bandwidth Offload for Mobile
AR* (Jain, Manweiler, Roy Choudhury; CoNEXT 2016).  The headline idea:
instead of uploading frames (or all their keypoints), a mobile client
consults a compact, downloadable **uniqueness oracle** — counting Bloom
filters indexed by Euclidean LSH — and ships only the few hundred most
globally-unique keypoints, cutting uplink traffic by an order of
magnitude at comparable retrieval accuracy.

Quickstart::

    from repro import (
        IndoorEnvironment, WardriveSession, VisualPrintServer,
        VisualPrintClient, VisualPrintConfig,
    )

    env = IndoorEnvironment.build("office", seed=3)
    mapping = WardriveSession(env, seed=3).run()
    config = VisualPrintConfig(descriptor_capacity=mapping.num_mappings)
    server = VisualPrintServer(config, bounds=env.bounds)
    server.ingest(mapping.descriptors, mapping.positions)
    client = VisualPrintClient(server.publish_oracle(), config)
    # fingerprint = client.process_frame(image); server.localize(fingerprint)

This module is the one public surface; every engine is built with its
keyword constructor:

Engines
    :class:`VisualPrintServer` (the single-venue engine),
    :class:`VisualPrintClient` (the phone-side library) and
    :class:`UniquenessOracle` (the downloadable filter stack), all
    tuned by :class:`VisualPrintConfig`, the paper's LSH/Bloom
    operating point.

Serving
    :class:`ServingFrontend` (multi-venue admission and routing over
    consistent-hashed shards), :class:`VenueRegistry`,
    :class:`ConsistentHashRing`, :class:`ShardSaturatedError`, and
    :class:`ServerConfig`, the topology the load test replays.

Transport and codecs
    :class:`UplinkChannel` presets (:data:`CHANNEL_PRESETS`),
    :class:`RetryPolicy`, the predictive link layer
    (:class:`AdaptiveConfig`, :class:`AdaptiveOffloadPolicy`,
    :class:`LinkQualityEstimator`, :class:`TransferOutcome`), and the
    frame codecs the paper's baselines upload with.

Durability
    :class:`ServerStateStore` over :class:`SnapshotStore` (crash-safe
    generational snapshots, the one server-state format) and
    :class:`OracleRefresher` (client-side oracle downloads, checked in
    full before swap-in).

Figure building blocks
    features, geometry, LSH, synthetic scenes and the wardriving rig.

Anything not in ``__all__``, and any name with a leading underscore, is
internal and may change or go without notice (DESIGN.md §11).  See
``examples/`` for runnable end-to-end scenarios and ``DESIGN.md`` for
the subsystem inventory and experiment index.
"""

from repro.codecs import Codec, H264Codec, JpegCodec, PngCodec, RawCodec
from repro.core import (
    Fingerprint,
    LocalizationAnswer,
    OffloadReport,
    OracleRefresher,
    RefreshReport,
    ServerConfig,
    UniquenessOracle,
    VisualPrintClient,
    VisualPrintConfig,
    VisualPrintServer,
)
from repro.core.persistence import ServerStateStore
from repro.features import HarrisDetector, KeypointSet, SiftExtractor, SiftParams
from repro.geometry import CameraIntrinsics, PinholeCamera, Pose
from repro.imaging.synth import SceneLibrary
from repro.lsh import E2LSHParams, LshIndex
from repro.network import (
    CHANNEL_PRESETS,
    AdaptiveConfig,
    AdaptiveOffloadPolicy,
    LinkQualityEstimator,
    RetryPolicy,
    TransferOutcome,
    UplinkChannel,
)
from repro.obs import MetricsRegistry
from repro.serving import (
    ConsistentHashRing,
    ServingFrontend,
    ShardSaturatedError,
    VenueRegistry,
)
from repro.store import SnapshotStore
from repro.wardrive import DriftModel, IndoorEnvironment, TangoRig, WardriveSession

__version__ = "1.1.0"

__all__ = [
    "CHANNEL_PRESETS",
    "AdaptiveConfig",
    "AdaptiveOffloadPolicy",
    "CameraIntrinsics",
    "Codec",
    "ConsistentHashRing",
    "DriftModel",
    "E2LSHParams",
    "Fingerprint",
    "H264Codec",
    "HarrisDetector",
    "IndoorEnvironment",
    "JpegCodec",
    "KeypointSet",
    "LinkQualityEstimator",
    "LocalizationAnswer",
    "LshIndex",
    "MetricsRegistry",
    "OffloadReport",
    "OracleRefresher",
    "PinholeCamera",
    "PngCodec",
    "Pose",
    "RawCodec",
    "RefreshReport",
    "RetryPolicy",
    "SceneLibrary",
    "ServerConfig",
    "ServerStateStore",
    "ServingFrontend",
    "ShardSaturatedError",
    "SiftExtractor",
    "SiftParams",
    "SnapshotStore",
    "TangoRig",
    "TransferOutcome",
    "UniquenessOracle",
    "UplinkChannel",
    "VenueRegistry",
    "VisualPrintClient",
    "VisualPrintConfig",
    "VisualPrintServer",
    "WardriveSession",
    "__version__",
]
