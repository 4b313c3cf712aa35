"""Incremental oracle updates — the paper's named future work.

"The app periodically refreshes its copy of the Bloom filter to stay
current with the server.  We could reduce data transfer by sending only
a compressed bitmask representing the diff between versions (not yet
implemented)."

This module implements that diff path.  Counting-filter versions differ
only where new insertions landed, so a delta is naturally sparse: we
encode the changed counter positions and their new values, then GZIP.
For modest growth between refreshes the delta is a small fraction of a
full snapshot; :func:`choose_refresh_payload` picks whichever is smaller
(heavy growth eventually favors the full snapshot, which the format
signals explicitly).

Delta wire format (v2): the header carries the target filter's full
geometry — ``num_counters``, ``num_hashes``, ``bits_per_counter`` and
the hash-family seed — so :func:`apply_delta` can refuse to patch a
filter the delta was not diffed against.  v1 headers recorded only
``num_counters``; a v1 payload whose other fields mismatch the base is
indistinguishable from a valid one, so v1 is rejected outright.

:class:`OracleRefresher` drives the refresh over a (possibly faulty)
channel: on delivery it applies the delta or snapshot through
:func:`apply_delta` or :func:`apply_snapshot`, which check the whole
payload before they touch the filter; a payload that fails a check is
quarantined.  On failure the client keeps serving from its stale filter
and the gap is surfaced as the ``oracle_staleness_seconds`` gauge.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.bloom.container import SnapshotCorruptError, deserialize_counting
from repro.bloom.counting import CountingBloomFilter
from repro.core.oracle import UniquenessOracle
from repro.network.faults import (
    AttemptRecord,
    RetryPolicy,
    TransferOutcome,
    submit_payload,
)
from repro.network.upload import record_wasted_transfer
from repro.obs import MetricsRegistry, emit_event, record_span, resolve_registry

__all__ = [
    "OracleDelta",
    "OracleRefresher",
    "QuarantinedPayload",
    "RefreshReport",
    "apply_delta",
    "apply_snapshot",
    "choose_refresh_payload",
    "diff_counting_filters",
    "parse_delta",
]

_MAGIC = b"VPDT"
# v2: magic, version, num_counters, num_changes, num_hashes,
# bits_per_counter, hash seed (signed 8-byte — seeds may be negative).
_HEADER = struct.Struct("<4sIIIIIq")
_VERSION = 2


@dataclass(frozen=True)
class OracleDelta:
    """A compressed counter diff between two oracle versions."""

    payload: bytes
    num_changes: int
    raw_bytes: int

    @property
    def compressed_bytes(self) -> int:
        return len(self.payload)


def diff_counting_filters(
    old: CountingBloomFilter, new: CountingBloomFilter, gzip_level: int = 6
) -> OracleDelta:
    """Encode the counters that changed between two filter versions."""
    if old.num_counters != new.num_counters:
        raise ValueError("filters must have the same geometry to diff")
    if old.num_hashes != new.num_hashes:
        raise ValueError("filters must share their hash configuration")
    if old.bits_per_counter != new.bits_per_counter:
        raise ValueError("filters must share their counter width to diff")
    if old.hash_seed != new.hash_seed:
        raise ValueError("filters must share their hash seed to diff")
    changed = np.flatnonzero(old.counters != new.counters)
    body = (
        changed.astype("<u4").tobytes()
        + new.counters[changed].astype("<u2").tobytes()
    )
    raw = (
        _HEADER.pack(
            _MAGIC,
            _VERSION,
            new.num_counters,
            changed.size,
            new.num_hashes,
            new.bits_per_counter,
            new.hash_seed,
        )
        + body
    )
    return OracleDelta(
        payload=gzip.compress(raw, compresslevel=gzip_level, mtime=0),
        num_changes=int(changed.size),
        raw_bytes=len(raw),
    )


def parse_delta(
    base: CountingBloomFilter, delta: OracleDelta | bytes
) -> tuple[np.ndarray, np.ndarray]:
    """Decode and fully validate a delta against ``base`` without applying.

    Returns the ``(indices, values)`` pair of the sparse update.  Every
    failure mode — a damaged GZIP stream, a truncated header, geometry
    or hash-seed mismatch, a body whose length disagrees with the
    header's ``num_changes``, counter indices beyond the filter, or
    values beyond its saturation ceiling — raises
    :class:`repro.bloom.SnapshotCorruptError` (a :class:`ValueError`
    subclass), so nothing corrupt ever reaches the assignment.
    """
    payload = delta.payload if isinstance(delta, OracleDelta) else delta
    try:
        raw = gzip.decompress(payload)
    except (OSError, EOFError, zlib.error) as error:
        raise SnapshotCorruptError(f"delta payload is not valid GZIP: {error}")
    if len(raw) < struct.calcsize("<4sI"):
        raise SnapshotCorruptError(
            f"delta truncated before its header ({len(raw)} bytes)"
        )
    magic, version = struct.unpack_from("<4sI", raw, 0)
    if magic != _MAGIC:
        raise SnapshotCorruptError("not a VisualPrint oracle delta (bad magic)")
    if version == 1:
        # A v1 header only recorded num_counters: a payload diffed
        # against a filter with different hashes/width/seed would pass
        # its checks and corrupt the base — ambiguity we refuse.
        raise SnapshotCorruptError(
            "delta format v1 lacks hash-geometry fields and cannot be "
            "validated; regenerate the delta (format v2)"
        )
    if version != _VERSION:
        raise SnapshotCorruptError(f"unsupported delta version {version}")
    if len(raw) < _HEADER.size:
        raise SnapshotCorruptError(
            f"delta truncated before its header ({len(raw)} bytes)"
        )
    (
        _,
        _,
        num_counters,
        num_changes,
        num_hashes,
        bits_per_counter,
        hash_seed,
    ) = _HEADER.unpack_from(raw, 0)
    if num_counters != base.num_counters:
        raise SnapshotCorruptError(
            f"delta targets {num_counters} counters, filter has {base.num_counters}"
        )
    if num_hashes != base.num_hashes:
        raise SnapshotCorruptError(
            f"delta targets {num_hashes} hashes, filter has {base.num_hashes}"
        )
    if bits_per_counter != base.bits_per_counter:
        raise SnapshotCorruptError(
            f"delta targets {bits_per_counter}-bit counters, "
            f"filter has {base.bits_per_counter}-bit"
        )
    if hash_seed != base.hash_seed:
        raise SnapshotCorruptError(
            f"delta targets hash seed {hash_seed}, filter has {base.hash_seed}"
        )
    body = len(raw) - _HEADER.size
    if body != num_changes * 6:
        raise SnapshotCorruptError(
            f"delta body is {body} bytes but the header's {num_changes} "
            f"changes require {num_changes * 6}"
        )
    offset = _HEADER.size
    indices = np.frombuffer(raw, dtype="<u4", count=num_changes, offset=offset)
    offset += num_changes * 4
    values = np.frombuffer(raw, dtype="<u2", count=num_changes, offset=offset)
    if indices.size and int(indices.max()) >= base.num_counters:
        raise SnapshotCorruptError(
            f"delta touches counter {int(indices.max())}, filter has only "
            f"{base.num_counters}"
        )
    # The on-wire <u2 can encode values a narrower counter cannot hold.
    # The server never produces them, so they are evidence of
    # corruption: reject rather than clamp.
    if values.size and int(values.max()) > base.saturation:
        raise SnapshotCorruptError(
            f"delta value {int(values.max())} exceeds the saturation "
            f"ceiling {base.saturation}"
        )
    return indices, values


def apply_delta(base: CountingBloomFilter, delta: OracleDelta | bytes) -> None:
    """Patch ``base`` in place to the delta's target version.

    Accepts an :class:`OracleDelta` or its raw compressed payload (what
    arrives over the channel).  :func:`parse_delta` checks the whole
    payload first, so a corrupt one raises
    :class:`repro.bloom.SnapshotCorruptError` with ``base`` untouched.
    """
    indices, values = parse_delta(base, delta)
    base.set_at(indices.astype(np.int64), values)


def apply_snapshot(base: CountingBloomFilter, payload: bytes) -> None:
    """Replace ``base``'s counters with a full ``VPBF`` counting snapshot.

    The snapshot must decode (:func:`repro.bloom.deserialize_counting`
    checks header/body consistency), match ``base``'s geometry, and
    hold no counter beyond ``base.saturation``; otherwise
    :class:`repro.bloom.SnapshotCorruptError` is raised with ``base``
    untouched.  The counters are assigned in one step after every check.
    """
    fresh = deserialize_counting(payload)
    for attribute, label in (
        ("num_counters", "counters"),
        ("num_hashes", "hashes"),
        ("bits_per_counter", "bits per counter"),
    ):
        if getattr(fresh, attribute) != getattr(base, attribute):
            raise SnapshotCorruptError(
                f"snapshot carries {getattr(fresh, attribute)} {label}, the "
                f"active filter has {getattr(base, attribute)}"
            )
    counters = fresh.counters
    # Bit-packing makes such values unrepresentable when the widths
    # match; the bound keeps the invariant explicit for the decode path.
    if counters.size and int(counters.max()) > base.saturation:
        raise SnapshotCorruptError(
            f"snapshot counter {int(counters.max())} exceeds the "
            f"saturation ceiling {base.saturation}"
        )
    base.counters = counters


def choose_refresh_payload(
    old_oracle: UniquenessOracle, new_oracle: UniquenessOracle
) -> tuple[str, bytes]:
    """Pick the cheaper client refresh: counter delta or full snapshot.

    Returns ``("delta", payload)`` or ``("snapshot", payload)``.  The two
    oracles must share configuration (the client's copy is always an
    older version of the server's, so this holds by construction).
    """
    delta = diff_counting_filters(old_oracle.counting, new_oracle.counting)
    snapshot = new_oracle.snapshot()
    if delta.compressed_bytes < snapshot.compressed_bytes:
        return "delta", delta.payload
    return "snapshot", snapshot.payload


@dataclass(frozen=True)
class RefreshReport:
    """One :meth:`OracleRefresher.refresh` attempt, summarized."""

    status: str  # "applied" | "stale" | "rejected"
    kind: str  # "delta" | "snapshot"
    payload_bytes: int
    attempts: int
    latency_seconds: float
    staleness_seconds: float


@dataclass(frozen=True)
class QuarantinedPayload:
    """A delivered-but-corrupt refresh payload the client refused to apply."""

    kind: str  # "delta" | "snapshot"
    payload: bytes
    error: str


class OracleRefresher:
    """Keeps a client oracle current; degrades gracefully when it can't.

    The refresher downloads the server's delta (or snapshot, whichever
    is smaller) over ``channel`` with retries.  When every attempt
    fails, the client's copy is left untouched — it keeps answering
    uniqueness queries from the stale snapshot — and the age of that
    snapshot is published as the ``oracle_staleness_seconds`` gauge so
    dashboards can see how far behind a degraded client is running.

    Time is the caller's simulated clock (``now_seconds``); the
    refresher never reads the wall clock.
    """

    def __init__(
        self,
        oracle: UniquenessOracle,
        retry_policy: RetryPolicy | None = None,
        registry: MetricsRegistry | None = None,
        fault_injector=None,
        quarantine_limit: int = 4,
    ) -> None:
        self.oracle = oracle
        self.retry_policy = retry_policy or RetryPolicy()
        self._registry = resolve_registry(registry)
        self.last_refresh_seconds = 0.0
        # Chaos hook: a repro.store.StorageFaultInjector corrupting the
        # delivered payload bytes (a flipped bit in flight or in the
        # download cache) before swap-in validation sees them.
        self.fault_injector = fault_injector
        self.quarantine_limit = int(quarantine_limit)
        self.quarantined: list[QuarantinedPayload] = []
        self._m_staleness = self._registry.gauge(
            "oracle_staleness_seconds",
            help="age of the client's oracle copy (0 right after a refresh)",
        )
        self._m_refreshes = {
            outcome: self._registry.counter(
                "oracle_refreshes_total",
                help="oracle refresh attempts by outcome",
                outcome=outcome,
            )
            for outcome in ("applied", "failed", "rejected")
        }
        self._m_rejected = {
            kind: self._registry.counter(
                "oracle_snapshots_rejected_total",
                help="delivered refresh payloads refused by swap-in validation",
                kind=kind,
            )
            for kind in ("delta", "snapshot")
        }

    @property
    def metrics(self) -> MetricsRegistry:
        return self._registry

    def staleness_seconds(self, now_seconds: float) -> float:
        """Age of the client's oracle copy at ``now_seconds``."""
        return max(0.0, now_seconds - self.last_refresh_seconds)

    def refresh(
        self,
        server_oracle: UniquenessOracle,
        channel=None,
        rng: np.random.Generator | None = None,
        now_seconds: float = 0.0,
    ) -> RefreshReport:
        """Pull the server's state down; keep the stale copy on failure."""
        kind, payload = choose_refresh_payload(self.oracle, server_oracle)
        if channel is not None:
            outcome = submit_payload(
                channel,
                [len(payload)],
                self.retry_policy,
                rng,
                registry=self._registry,
                leg="down",
            )
        else:
            outcome = TransferOutcome(
                status="delivered",
                attempt_records=(AttemptRecord("ok", 0.0, len(payload), 0),),
            )
        if not outcome.delivered:
            staleness = self.staleness_seconds(now_seconds)
            self._m_staleness.set(staleness)
            self._m_refreshes["failed"].inc()
            record_span(
                "oracle.refresh",
                outcome.latency_seconds,
                kind=kind,
                status="stale",
                staleness_seconds=staleness,
            )
            return RefreshReport(
                status="stale",
                kind=kind,
                payload_bytes=len(payload),
                attempts=outcome.attempts,
                latency_seconds=outcome.latency_seconds,
                staleness_seconds=staleness,
            )
        if self.fault_injector is not None:
            payload, _ = self.fault_injector.mangle(
                payload, label=f"download/{kind}"
            )
        try:
            self._apply(kind, payload)
        except SnapshotCorruptError as error:
            # Delivered but damaged: quarantine the payload for forensics,
            # count the rejection, and keep serving the stale filter —
            # a corrupt oracle must never be swapped in.
            self.quarantined.append(
                QuarantinedPayload(kind=kind, payload=payload, error=str(error))
            )
            del self.quarantined[: -self.quarantine_limit]
            emit_event(
                "snapshot.quarantine",
                snapshot=kind,
                payload_bytes=len(payload),
                error=str(error),
            )
            # The downlink delivered these bytes for nothing: account
            # them as wasted transfer alongside the in-flight losses.
            record_wasted_transfer(
                len(payload),
                channel=getattr(channel, "name", "download"),
                registry=self._registry,
            )
            staleness = self.staleness_seconds(now_seconds)
            self._m_staleness.set(staleness)
            self._m_refreshes["rejected"].inc()
            self._m_rejected[kind].inc()
            record_span(
                "oracle.refresh",
                outcome.latency_seconds,
                kind=kind,
                status="rejected",
                staleness_seconds=staleness,
            )
            return RefreshReport(
                status="rejected",
                kind=kind,
                payload_bytes=len(payload),
                attempts=outcome.attempts,
                latency_seconds=outcome.latency_seconds,
                staleness_seconds=staleness,
            )
        self.last_refresh_seconds = now_seconds
        self._m_staleness.set(0.0)
        self._m_refreshes["applied"].inc()
        record_span(
            "oracle.refresh",
            outcome.latency_seconds,
            kind=kind,
            status="applied",
            bytes=len(payload),
        )
        return RefreshReport(
            status="applied",
            kind=kind,
            payload_bytes=len(payload),
            attempts=outcome.attempts,
            latency_seconds=outcome.latency_seconds,
            staleness_seconds=0.0,
        )

    def _apply(self, kind: str, payload: bytes) -> None:
        """Check then swap in; raises before any mutation on corruption.

        :func:`apply_delta` and :func:`apply_snapshot` each check the
        whole payload against the active filter before they assign.
        """
        if kind == "delta":
            apply_delta(self.oracle.counting, payload)
        else:
            apply_snapshot(self.oracle.counting, payload)
        self.oracle.invalidate_transfer_cache()
