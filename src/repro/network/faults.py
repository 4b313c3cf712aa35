"""Fault injection and recovery for the uplink channel model.

The paper targets flaky mobile networks ("unpredictable end-to-end
network latency"), yet an :class:`repro.network.UplinkChannel` is a
perfect pipe.  This module adds the missing failure surface and the
client-side recovery machinery:

* :class:`FaultSpec` / :class:`FaultyChannel` — a seeded wrapper that
  injects packet loss, transient outages (a Gilbert–Elliott good/bad
  chain advanced once per transfer attempt), and bandwidth dips around
  any channel.  A null spec delegates every call verbatim, so a
  zero-fault wrap is bit-identical to the bare channel — latencies,
  payload bytes, and metrics.
* :class:`RetryPolicy` / :func:`submit_payload` — deterministic
  exponential backoff with jitter under a per-query latency budget,
  stepping down a payload "degradation ladder" (smaller fingerprints)
  on each failed attempt.

Failed attempts surface as ``network.fault`` spans (joining the ambient
query trace) and ``network_faults_injected_total`` counters; retries and
degradations count into ``network_retries_total`` /
``queries_degraded_total`` / ``queries_abandoned_total``.  All fault
decisions draw from a private :func:`repro.util.rng.rng_for` stream, so
a fixed seed replays the exact same fault pattern — and the caller's
jitter rng is never touched by code that a fault-free run would skip.

Two hooks feed the predictive layer (:mod:`repro.network.linkstate`):

* :meth:`FaultyChannel.add_observer` — attempt-outcome observers see
  every resolved attempt (``"ok"``/``"dip"`` on success, the fault kind
  on failure) with its bytes, simulated elapsed time, and direction.
* Gilbert–Elliott transitions emit ``channel.outage_enter`` /
  ``channel.outage_exit`` structured events, and observed outage time
  accumulates into ``channel_outage_seconds_total``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.network.channel import UplinkChannel
from repro.obs import current_registry, emit_event, record_span
from repro.util.rng import rng_for
from repro.util.validation import check_in_range, check_positive

__all__ = [
    "AttemptRecord",
    "FaultSpec",
    "FaultyChannel",
    "RetryPolicy",
    "TransferError",
    "TransferOutcome",
    "submit_payload",
]


class TransferError(RuntimeError):
    """A simulated transfer attempt that did not complete.

    ``elapsed_seconds`` is the simulated time the device wasted on the
    attempt before detecting the failure (deterministic — no jitter, so
    a failed attempt never consumes the caller's rng stream).
    """

    def __init__(
        self,
        kind: str,
        elapsed_seconds: float,
        direction: str = "up",
        channel: str = "",
    ) -> None:
        super().__init__(
            f"simulated {kind} on {channel or 'channel'} ({direction}link)"
        )
        self.kind = kind
        self.elapsed_seconds = float(elapsed_seconds)
        self.direction = direction
        self.channel = channel


@dataclass(frozen=True)
class FaultSpec:
    """Fault mix for one :class:`FaultyChannel`.

    ``loss`` is the per-attempt drop probability while the link is in
    the Gilbert–Elliott *good* state; ``outage_enter`` / ``outage_exit``
    are the good→bad and bad→exit transition probabilities (every
    attempt during the bad state fails fast); ``dip_probability`` makes
    a good-state attempt run at ``1 / dip_factor`` of the channel's
    bandwidth instead of failing.
    """

    loss: float = 0.0
    outage_enter: float = 0.0
    outage_exit: float = 0.3
    dip_probability: float = 0.0
    dip_factor: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        for field in ("loss", "outage_enter", "dip_probability"):
            check_in_range(field, getattr(self, field), 0.0, 1.0)
        check_in_range("outage_exit", self.outage_exit, 1e-9, 1.0)
        check_positive("dip_factor", self.dip_factor)
        if self.dip_factor < 1.0:
            raise ValueError(
                f"dip_factor must be >= 1 (a slowdown), got {self.dip_factor}"
            )

    @property
    def is_null(self) -> bool:
        """True when the spec can never perturb a transfer."""
        return (
            self.loss == 0.0
            and self.outage_enter == 0.0
            and self.dip_probability == 0.0
        )


class FaultyChannel:
    """A seeded fault-injecting wrapper around an :class:`UplinkChannel`.

    With a null spec (``loss=0, outage_enter=0, dip_probability=0``)
    every method delegates directly to the wrapped channel — same
    latencies, same metrics, same span stream, and the private fault rng
    is never consumed — so wrapping is free until faults are enabled.

    >>> from repro.network import CHANNEL_PRESETS
    >>> lossy = FaultyChannel(CHANNEL_PRESETS["lte"], loss=0.2, seed=3)
    """

    def __init__(
        self,
        channel: UplinkChannel,
        spec: FaultSpec | None = None,
        **spec_fields,
    ) -> None:
        if spec is not None and spec_fields:
            raise ValueError("pass either a FaultSpec or field overrides, not both")
        self.inner = channel
        self.spec = spec if spec is not None else FaultSpec(**spec_fields)
        self._rng = rng_for(self.spec.seed, f"network/faults/{channel.name}")
        self._bad = False  # Gilbert–Elliott state: True while in an outage
        self._observers: list = []
        # Accounting for the outage run in progress (attempt-observable
        # time only: each bad-state attempt costs one RTT radio probe).
        self._outage_attempts = 0
        self._outage_seconds = 0.0

    # -- passthrough surface (duck-types as an UplinkChannel) ----------

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def bandwidth_mbps(self) -> float:
        return self.inner.bandwidth_mbps

    @property
    def downlink_mbps(self) -> float | None:
        return self.inner.downlink_mbps

    @property
    def rtt_ms(self) -> float:
        return self.inner.rtt_ms

    @property
    def jitter_sigma(self) -> float:
        return self.inner.jitter_sigma

    @property
    def bytes_per_second(self) -> float:
        return self.inner.bytes_per_second

    @property
    def reliable(self) -> UplinkChannel:
        """The wrapped channel, for legs modeled fault-free (tiny acks)."""
        return self.inner

    def serialization_seconds(self, num_bytes: int) -> float:
        return self.inner.serialization_seconds(num_bytes)

    # -- attempt-outcome observers -------------------------------------

    def add_observer(self, observer) -> None:
        """Register an attempt-outcome observer.

        After every attempt this channel resolves, the observer's
        ``observe_attempt(kind, num_bytes, elapsed_seconds, direction)``
        method (or the observer itself, when it is a plain callable) is
        invoked — ``kind`` is ``"ok"`` or ``"dip"`` on success and the
        :class:`TransferError` kind on failure.  This is how a
        :class:`repro.network.linkstate.LinkQualityEstimator` sees the
        outcome of every real transfer without the submission loop
        having to thread it through.  Observers must not raise.
        """
        fn = getattr(observer, "observe_attempt", observer)
        if not callable(fn):
            raise TypeError(
                "observer must be callable or expose observe_attempt()"
            )
        self._observers.append(fn)

    def remove_observer(self, observer) -> None:
        """Detach a previously registered observer (no-op if absent)."""
        fn = getattr(observer, "observe_attempt", observer)
        self._observers = [entry for entry in self._observers if entry != fn]

    def _notify(
        self, kind: str, num_bytes: int, elapsed: float, direction: str
    ) -> None:
        for observer in self._observers:
            observer(kind, int(num_bytes), float(elapsed), direction)

    # -- fault machinery -----------------------------------------------

    def _advance(self) -> str | None:
        """One Gilbert–Elliott step; returns the fault kind drawn, if any.

        Draws are gated on the corresponding probability being non-zero
        so enabling one fault class does not shift another's stream.
        """
        spec = self.spec
        rng = self._rng
        was_bad = self._bad
        if self._bad:
            if float(rng.random()) < spec.outage_exit:
                self._bad = False
        elif spec.outage_enter and float(rng.random()) < spec.outage_enter:
            self._bad = True
        if self._bad != was_bad:
            self._transition()
        if self._bad:
            return "outage"
        if spec.loss and float(rng.random()) < spec.loss:
            return "loss"
        if spec.dip_probability and float(rng.random()) < spec.dip_probability:
            return "dip"
        return None

    def _transition(self) -> None:
        """Emit the structured event for a Gilbert–Elliott state flip."""
        if self._bad:
            self._outage_attempts = 0
            self._outage_seconds = 0.0
            emit_event("channel.outage_enter", channel=self.inner.name)
        else:
            emit_event(
                "channel.outage_exit",
                channel=self.inner.name,
                attempts=self._outage_attempts,
                outage_seconds=round(self._outage_seconds, 6),
            )

    def _account_outage(self, elapsed: float) -> None:
        """Accrue one bad-state attempt into the outage-time accounting."""
        self._outage_attempts += 1
        self._outage_seconds += elapsed
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "channel_outage_seconds_total",
                help="simulated seconds attempts spent probing an outage",
                channel=self.inner.name,
            ).inc(elapsed)

    def _fault_elapsed(self, kind: str, num_bytes: int, direction: str) -> float:
        """Deterministic simulated cost of a failed attempt.

        A lost payload is fully transmitted and then times out waiting
        for the ack (serialization + one RTT); an outage fails fast
        (the radio reports no link after one RTT probe).
        """
        if kind == "outage":
            return self.inner.rtt_ms / 1e3
        if direction == "down":
            serialization = self.inner.response_serialization_seconds(num_bytes)
        else:
            serialization = self.inner.serialization_seconds(num_bytes)
        return serialization + self.inner.rtt_ms / 1e3

    def _raise_fault(
        self, kind: str, num_bytes: int, direction: str, elapsed: float
    ) -> None:
        """Account a failed attempt that took ``elapsed`` seconds, then raise."""
        if kind == "outage":
            self._account_outage(elapsed)
        self._notify(kind, num_bytes, elapsed, direction)
        record_span(
            "network.fault",
            elapsed,
            channel=self.inner.name,
            kind=kind,
            bytes=int(num_bytes),
            direction=direction,
        )
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "network_faults_injected_total",
                help="transfer attempts killed by the fault injector",
                channel=self.inner.name,
                kind=kind,
            ).inc()
            if kind == "loss":
                registry.counter(
                    "network_wasted_bytes_total",
                    help="bytes transmitted on attempts that were lost",
                    channel=self.inner.name,
                ).inc(num_bytes)
        raise TransferError(
            kind, elapsed, direction=direction, channel=self.inner.name
        )

    def _dipped(self) -> UplinkChannel:
        """The wrapped channel dilated to the dip bandwidth."""
        spec = self.spec
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "network_faults_injected_total",
                help="transfer attempts killed by the fault injector",
                channel=self.inner.name,
                kind="dip",
            ).inc()
        downlink = self.inner.downlink_mbps
        return dataclasses.replace(
            self.inner,
            bandwidth_mbps=self.inner.bandwidth_mbps / spec.dip_factor,
            downlink_mbps=None if downlink is None else downlink / spec.dip_factor,
        )

    # -- channel surface with faults -----------------------------------

    def transfer_seconds(
        self, num_bytes: int, rng: np.random.Generator | None = None
    ) -> float:
        """Uplink attempt; raises :class:`TransferError` on a fault."""
        if self.spec.is_null and not self._observers:
            return self.inner.transfer_seconds(num_bytes, rng)
        kind = self._advance()
        if kind in ("loss", "outage"):
            self._raise_fault(
                kind, num_bytes, "up", self._fault_elapsed(kind, num_bytes, "up")
            )
        effective = self._dipped() if kind == "dip" else self.inner
        seconds = effective.transfer_seconds(num_bytes, rng)
        self._notify(kind or "ok", num_bytes, seconds, "up")
        return seconds

    def response_seconds(
        self, num_bytes: int, rng: np.random.Generator | None = None
    ) -> float:
        """Downlink attempt; raises :class:`TransferError` on a fault."""
        if self.spec.is_null and not self._observers:
            return self.inner.response_seconds(num_bytes, rng)
        kind = self._advance()
        if kind in ("loss", "outage"):
            self._raise_fault(
                kind, num_bytes, "down", self._fault_elapsed(kind, num_bytes, "down")
            )
        effective = self._dipped() if kind == "dip" else self.inner
        seconds = effective.response_seconds(num_bytes, rng)
        self._notify(kind or "ok", num_bytes, seconds, "down")
        return seconds

    def round_trip_seconds(
        self,
        upload_bytes: int,
        response_bytes: int = 256,
        server_seconds: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Faultable round trip; either leg may raise :class:`TransferError`."""
        if self.spec.is_null and not self._observers:
            return self.inner.round_trip_seconds(
                upload_bytes, response_bytes, server_seconds, rng
            )
        up = self.transfer_seconds(upload_bytes, rng)
        down = self.response_seconds(response_bytes, rng)
        return up + server_seconds + down

    def attempt_serialization_seconds(self, num_bytes: int) -> float:
        """Serialization-only attempt for capture-stream simulation.

        :func:`repro.network.simulate_stream` models uplink occupancy
        with pure serialization time; this is the fault-raising variant
        it uses when retransmission is enabled.  A lost frame occupies
        the uplink for its full serialization; an outage is detected
        immediately (no air time).
        """
        if self.spec.is_null and not self._observers:
            return self.inner.serialization_seconds(num_bytes)
        kind = self._advance()
        if kind == "outage":
            self._raise_fault(kind, num_bytes, "up", 0.0)
        if kind == "loss":
            serialization = self.inner.serialization_seconds(num_bytes)
            self._raise_fault(kind, num_bytes, "up", serialization)
        effective = self._dipped() if kind == "dip" else self.inner
        seconds = effective.serialization_seconds(num_bytes)
        self._notify(kind or "ok", num_bytes, seconds, "up")
        return seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff under a per-query budget.

    ``backoff_seconds(retry_index)`` grows geometrically from
    ``base_backoff_seconds``; with an rng, a multiplicative jitter in
    ``[1, 1 + jitter]`` decorrelates retry storms.  ``budget_seconds``
    caps the total simulated latency (attempts + backoffs) a query may
    spend before it is abandoned.
    """

    max_attempts: int = 4
    base_backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    budget_seconds: float = 30.0

    def __post_init__(self) -> None:
        check_positive("max_attempts", self.max_attempts)
        check_positive("budget_seconds", self.budget_seconds)
        if self.base_backoff_seconds < 0:
            raise ValueError("base_backoff_seconds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        check_in_range("jitter", self.jitter, 0.0, 1.0)

    def backoff_seconds(
        self, retry_index: int, rng: np.random.Generator | None = None
    ) -> float:
        """Pause before retry number ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError(f"retry_index must be >= 1, got {retry_index}")
        base = self.base_backoff_seconds * self.backoff_multiplier ** (
            retry_index - 1
        )
        if rng is None or self.jitter == 0:
            return base
        return base * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True)
class AttemptRecord:
    """One transfer attempt inside a :func:`submit_payload` ladder walk."""

    kind: str  # "ok" on success, else the TransferError kind
    elapsed_seconds: float  # simulated time the attempt consumed
    payload_bytes: int  # bytes the attempt tried to push
    rung: int  # degradation-ladder index the attempt used

    @property
    def ok(self) -> bool:
        return self.kind in ("ok", "dip")


@dataclass(frozen=True)
class TransferOutcome:
    """What happened to one payload pushed through :func:`submit_payload`.

    Carries the full per-attempt history (``attempt_records``) so callers
    — the adaptive policy above all — never re-derive attempt kinds from
    metrics deltas.  The scalar views (``attempts`` / ``retries`` /
    ``latency_seconds`` / ...) are thin properties over the records.
    """

    status: str  # "delivered" | "degraded" | "abandoned"
    attempt_records: tuple[AttemptRecord, ...]
    backoff_seconds: float = 0.0

    @property
    def delivered(self) -> bool:
        return self.status != "abandoned"

    @property
    def attempts(self) -> int:
        return len(self.attempt_records)

    @property
    def retries(self) -> int:
        return max(0, len(self.attempt_records) - 1)

    @property
    def latency_seconds(self) -> float:
        return (
            sum(record.elapsed_seconds for record in self.attempt_records)
            + self.backoff_seconds
        )

    @property
    def payload_bytes(self) -> int:
        """Bytes of the successful attempt (0 if abandoned)."""
        if not self.delivered or not self.attempt_records:
            return 0
        return self.attempt_records[-1].payload_bytes

    @property
    def wasted_seconds(self) -> float:
        """Simulated time burnt on failed attempts."""
        return sum(
            record.elapsed_seconds
            for record in self.attempt_records
            if not record.ok
        )

    @property
    def wasted_bytes(self) -> int:
        """Bytes fully transmitted on attempts that were then lost.

        Outage attempts fail fast (one RTT radio probe, nothing on the
        air), so only ``kind == "loss"`` attempts burn payload bytes.
        """
        return sum(
            record.payload_bytes
            for record in self.attempt_records
            if record.kind == "loss"
        )

    @property
    def ladder_step(self) -> int:
        """Ladder index of the last attempt."""
        if not self.attempt_records:
            return 0
        return self.attempt_records[-1].rung


def submit_payload(
    channel,
    ladder: list[int],
    policy: RetryPolicy | None = None,
    rng: np.random.Generator | None = None,
    *,
    registry=None,
    leg: str = "up",
    start_step: int = 0,
) -> TransferOutcome:
    """Push a payload through ``channel`` with retries and degradation.

    ``ladder`` lists payload sizes from full quality downward (a single
    entry means no degradation is possible); each failed attempt steps
    one rung down before retrying.  On a fault-free channel the first
    attempt succeeds and the call is exactly one ``transfer_seconds`` —
    no extra metrics, spans, or rng draws — preserving zero-fault
    parity.  Counters (``network_retries_total``,
    ``queries_degraded_total``, ``queries_abandoned_total``) are only
    created once they first increment.
    """
    if not ladder:
        raise ValueError("ladder must contain at least one payload size")
    policy = policy or RetryPolicy()
    registry = registry if registry is not None else current_registry()
    channel_name = getattr(channel, "name", "channel")
    send = channel.response_seconds if leg == "down" else channel.transfer_seconds
    step = min(max(int(start_step), 0), len(ladder) - 1)
    latency = 0.0
    backoff_total = 0.0
    attempts = 0
    records: list[AttemptRecord] = []
    while attempts < policy.max_attempts:
        attempts += 1
        size = int(ladder[step])
        try:
            seconds = send(size, rng)
        except TransferError as fault:
            latency += fault.elapsed_seconds
            records.append(
                AttemptRecord(fault.kind, fault.elapsed_seconds, size, step)
            )
            if attempts >= policy.max_attempts or latency >= policy.budget_seconds:
                break
            pause = policy.backoff_seconds(attempts, rng)
            if latency + pause >= policy.budget_seconds:
                break
            latency += pause
            backoff_total += pause
            record_span(
                "network.backoff",
                pause,
                channel=channel_name,
                attempt=attempts,
            )
            if registry is not None:
                registry.counter(
                    "network_retries_total",
                    help="resubmissions after a failed transfer attempt",
                    channel=channel_name,
                ).inc()
            next_step = min(step + 1, len(ladder) - 1)
            if next_step != step:
                emit_event(
                    "degrade.step",
                    channel=channel_name,
                    step=next_step,
                    payload_bytes=int(ladder[next_step]),
                    attempt=attempts,
                )
            step = next_step
            continue
        latency += seconds
        records.append(AttemptRecord("ok", seconds, size, step))
        status = "degraded" if step > 0 else "delivered"
        if status == "degraded" and registry is not None:
            registry.counter(
                "queries_degraded_total",
                help="queries delivered with a shrunken fingerprint",
                channel=channel_name,
            ).inc()
        return TransferOutcome(
            status=status,
            attempt_records=tuple(records),
            backoff_seconds=backoff_total,
        )
    if registry is not None:
        registry.counter(
            "queries_abandoned_total",
            help="queries that exhausted their retry budget undelivered",
            channel=channel_name,
        ).inc()
    emit_event(
        "retry.exhausted",
        channel=channel_name,
        attempts=attempts,
        latency_seconds=round(latency, 6),
        budget_seconds=policy.budget_seconds,
    )
    return TransferOutcome(
        status="abandoned",
        attempt_records=tuple(records),
        backoff_seconds=backoff_total,
    )
