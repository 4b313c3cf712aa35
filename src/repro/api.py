"""The blessed public API of the VisualPrint reproduction.

One import surface for everything a deployment touches, organized
around config-object constructors instead of positional kwargs:

Configs
    :class:`VisualPrintConfig` (the paper's LSH/Bloom operating point),
    :class:`ServerConfig` (pipeline + serving topology),
    :class:`ClientConfig` (pipeline + uplink/degradation policy).

Engines
    :class:`VisualPrintServer` — the single-venue engine
    (``VisualPrintServer.from_config(ServerConfig())``);
    :class:`VisualPrintClient` — the phone-side library
    (``VisualPrintClient.from_config(oracle, ClientConfig())``);
    :class:`UniquenessOracle` — the downloadable filter stack.

Serving
    :class:`ServingFrontend` — multi-venue admission/routing over
    consistent-hashed shards (``ServingFrontend.from_config``);
    :class:`VenueRegistry`, :class:`ConsistentHashRing`,
    :class:`ShardSaturatedError`.

Transport & codecs
    :class:`UplinkChannel` presets (:data:`CHANNEL_PRESETS`),
    :class:`RetryPolicy`, the predictive link layer
    (:class:`AdaptiveConfig`, :class:`AdaptiveOffloadPolicy`,
    :class:`LinkQualityEstimator`, :class:`TransferOutcome`), and the
    frame codecs (:class:`JpegCodec`, :class:`H264Codec`, ...) the
    paper's baselines upload with.

Durability
    :class:`SnapshotStore` / :class:`ServerStateStore` (crash-safe
    generational snapshots), :class:`OracleRefresher` (client-side
    delta/snapshot oracle downloads with swap-in validation).

Anything not exported here — and any module or attribute with a
leading underscore — is internal and may change without a deprecation
cycle (see DESIGN.md §11 for the policy).
"""

from repro.codecs import Codec, H264Codec, JpegCodec, PngCodec, RawCodec
from repro.core import (
    ClientConfig,
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
from repro.core.persistence import ServerStateStore, load_server, save_server
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

__all__ = [
    "CHANNEL_PRESETS",
    "AdaptiveConfig",
    "AdaptiveOffloadPolicy",
    "ClientConfig",
    "Codec",
    "ConsistentHashRing",
    "Fingerprint",
    "H264Codec",
    "JpegCodec",
    "LinkQualityEstimator",
    "LocalizationAnswer",
    "MetricsRegistry",
    "OffloadReport",
    "OracleRefresher",
    "PngCodec",
    "RawCodec",
    "RefreshReport",
    "RetryPolicy",
    "ServerConfig",
    "ServerStateStore",
    "ServingFrontend",
    "ShardSaturatedError",
    "SnapshotStore",
    "TransferOutcome",
    "UniquenessOracle",
    "UplinkChannel",
    "VenueRegistry",
    "VisualPrintClient",
    "VisualPrintConfig",
    "VisualPrintServer",
    "load_server",
    "save_server",
]
