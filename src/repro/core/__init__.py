"""VisualPrint core: the uniqueness oracle, client, and cloud server.

The contribution of the paper: "VisualPrint enables mobile devices to
filter visual data by global uniqueness — allowing only the most
important bits to be used in a query — and reducing network offload by
an order of magnitude."

* :class:`UniquenessOracle` — LSH-indexed counting Bloom filters with a
  verification filter and multiprobe lookups; compact enough to download
  to the phone, constant-time per keypoint.
* :class:`VisualPrintClient` — extracts keypoints, ranks them by oracle
  count, uploads only the top-k as a :class:`Fingerprint`.
* :class:`VisualPrintServer` — ingests wardriven keypoint-to-3D
  mappings, curates the oracle, and answers fingerprint queries with a
  3D location (and scene retrieval for the Fig. 13 experiments).
"""

from repro.core.config import ServerConfig, VisualPrintConfig
from repro.core.fingerprint import Fingerprint, degradation_keep_counts
from repro.core.client import OffloadReport, VisualPrintClient
from repro.core.oracle import OracleLookup, UniquenessOracle
from repro.core.server import LocalizationAnswer, VisualPrintServer
from repro.core.updates import (
    OracleDelta,
    OracleRefresher,
    QuarantinedPayload,
    RefreshReport,
    apply_delta,
    apply_snapshot,
    choose_refresh_payload,
    diff_counting_filters,
    parse_delta,
)

__all__ = [
    "Fingerprint",
    "LocalizationAnswer",
    "OffloadReport",
    "OracleDelta",
    "OracleLookup",
    "OracleRefresher",
    "QuarantinedPayload",
    "RefreshReport",
    "ServerConfig",
    "UniquenessOracle",
    "VisualPrintClient",
    "VisualPrintServer",
    "VisualPrintConfig",
    "apply_delta",
    "apply_snapshot",
    "choose_refresh_payload",
    "degradation_keep_counts",
    "diff_counting_filters",
    "parse_delta",
]
