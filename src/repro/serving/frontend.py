"""The asyncio serving front-end: admit → route → execute → account.

:class:`ServingFrontend` is the multi-venue request path the paper's
server implies but never builds: many clients, many venues, one
admission point.  Each query names a venue; the venue registry's
consistent-hash ring picks the owning shard; a bounded per-shard queue
applies backpressure (``admission="wait"`` parks the caller,
``admission="reject"`` raises :class:`ShardSaturatedError` immediately —
the load-shedding mode); the shard worker executes the venue engine.

Observability: per-shard saturation gauges
(``serving_shard_queue_depth`` / ``serving_shard_saturation``),
admitted/rejected/served/failed counters, and queue-wait, service-time
and per-shard admission-to-completion (``serving_e2e_seconds``)
quantile sketches (mergeable p50/p99/p999 — see :mod:`repro.obs.sketch`)
— all labeled by shard except the queue wait, all in the frontend's
:class:`repro.obs.MetricsRegistry`.  Admission rejects and topology
changes additionally land in the contextual
:class:`repro.obs.EventLog`, and every query outcome feeds the
resolved :class:`repro.obs.SloTracker` (explicit argument, else the
:func:`repro.obs.use_slo_tracker` context) under per-venue and
per-shard scopes.

Parity: with one shard and inline workers (the defaults), queries
execute synchronously in admission order in the calling process, so
driving a workload through the frontend is bit-identical to calling the
engines directly — the acceptance bar the fig13 serving path is held to.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Iterable

from repro.obs import MetricsRegistry, emit_event, resolve_registry
from repro.obs.slo import SloTracker, current_slo_tracker
from repro.serving.registry import VenueRegistry
from repro.serving.shards import InlineShardWorker, ProcessShardWorker

__all__ = ["ServingFrontend", "ShardSaturatedError"]

_ADMISSION_MODES = ("wait", "reject")


class ShardSaturatedError(RuntimeError):
    """A shard's bounded queue was full and the admission policy rejects."""

    def __init__(self, shard_id: str, venue: str, queue_depth: int) -> None:
        super().__init__(
            f"shard {shard_id!r} is saturated ({queue_depth} queries "
            f"queued); query for venue {venue!r} rejected"
        )
        self.shard_id = shard_id
        self.venue = venue


class _ShardState:
    """One shard's worker, queue accounting, and bound instruments."""

    def __init__(self, shard_id: str, worker, registry: MetricsRegistry) -> None:
        self.shard_id = shard_id
        self.worker = worker
        self.depth = 0
        self.m_depth = registry.gauge(
            "serving_shard_queue_depth",
            help="queries queued or executing on this shard",
            shard=shard_id,
        )
        self.m_saturation = registry.gauge(
            "serving_shard_saturation",
            help="shard queue depth over its bound (1.0 = full)",
            shard=shard_id,
        )
        self.m_admitted = registry.counter(
            "serving_queries_admitted_total",
            help="queries admitted past the shard queue bound",
            shard=shard_id,
        )
        self.m_rejected = registry.counter(
            "serving_queries_rejected_total",
            help="queries shed because the shard queue was full",
            shard=shard_id,
        )
        self.m_served = registry.counter(
            "serving_queries_served_total",
            help="queries answered by this shard",
            shard=shard_id,
        )
        self.m_failed = registry.counter(
            "serving_queries_failed_total",
            help="queries whose engine raised",
            shard=shard_id,
        )
        self.m_service = registry.sketch(
            "serving_request_seconds",
            help="engine execution wall-clock per query",
            shard=shard_id,
        )
        self.m_e2e = registry.sketch(
            "serving_e2e_seconds",
            help="admission-to-completion wall-clock per query (sketch)",
            shard=shard_id,
        )

    def set_depth(self, depth: int, queue_depth: int) -> None:
        # Clamp: a release racing a reject-path decrement must never
        # drive the published depth negative or saturation out of [0, 1].
        depth = max(0, int(depth))
        self.depth = depth
        self.m_depth.set(float(depth))
        saturation = depth / queue_depth if queue_depth else 0.0
        self.m_saturation.set(min(max(saturation, 0.0), 1.0))


class ServingFrontend:
    """Admission-controlled async router over sharded venue engines."""

    def __init__(
        self,
        num_shards: int = 1,
        workers: int = 1,
        queue_depth: int = 64,
        admission: str = "wait",
        replicas: int = 64,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        slo: SloTracker | None = None,
        replication_factor: int = 1,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if admission not in _ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {_ADMISSION_MODES}, got {admission!r}"
            )
        self.queue_depth = int(queue_depth)
        self.admission = admission
        self.process_mode = int(workers) > 1
        self._registry = resolve_registry(registry)
        self.slo = slo if slo is not None else current_slo_tracker()
        self.venues = VenueRegistry(
            num_shards,
            replicas=replicas,
            seed=seed,
            replication_factor=replication_factor,
        )
        self._shards: dict[str, _ShardState] = {}
        for shard_id in self.venues.shard_ids:
            self._add_shard_state(shard_id)
        self._m_venues = self._registry.gauge(
            "serving_venues", help="venues currently registered"
        )
        self._m_shards = self._registry.gauge(
            "serving_shards", help="shards on the placement ring"
        )
        self._m_queue_wait = self._registry.sketch(
            "serving_queue_wait_seconds",
            help="admission-to-execution wait per query",
        )
        self._m_shards.set(float(len(self._shards)))
        # Per-event-loop admission semaphores (asyncio primitives bind to
        # the loop that first awaits them; each asyncio.run gets fresh ones).
        self._sems: dict[str, asyncio.Semaphore] = {}
        self._sems_loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        return self._registry

    def _add_shard_state(self, shard_id: str) -> None:
        worker_cls = ProcessShardWorker if self.process_mode else InlineShardWorker
        self._shards[shard_id] = _ShardState(
            shard_id, worker_cls(shard_id), self._registry
        )
        self._shards[shard_id].set_depth(0, self.queue_depth)

    def register_venue(self, name: str, engine: Any) -> str:
        """Place a venue on the ring and attach its engine to every owner.

        With ``replication_factor > 1`` the engine attaches to the whole
        replica set; the return value is the primary shard.
        """
        shard_id = self.venues.register(name, engine)
        for replica in self.venues.shards_for(name):
            self._shards[replica].worker.attach(name, engine)
        self._m_venues.set(float(len(self.venues)))
        return shard_id

    def unregister_venue(self, name: str) -> None:
        replicas = self.venues.shards_for(name)
        self.venues.unregister(name)
        for shard_id in replicas:
            self._shards[shard_id].worker.detach(name)
        self._m_venues.set(float(len(self.venues)))

    def add_shard(self, shard_id: str | None = None) -> list[str]:
        """Grow the ring by one shard; returns the venues that moved.

        Consistent hashing guarantees only venues landing on the new
        shard's arcs move — everything else keeps its warm placement.
        """
        if shard_id is None:
            index = len(self._shards)
            while f"shard-{index}" in self._shards:
                index += 1
            shard_id = f"shard-{index}"
        before = self.venues.placement()
        self.venues.ring.add_shard(shard_id)
        self._add_shard_state(shard_id)
        self._m_shards.set(float(len(self._shards)))
        moved = self._rebalance(before)
        emit_event("shard.add", shard=shard_id, moved=moved)
        return moved

    def remove_shard(self, shard_id: str) -> list[str]:
        """Drain a shard off the ring; its venues fall to ring successors."""
        if len(self._shards) <= 1:
            raise ValueError("cannot remove the last shard")
        before = self.venues.placement()
        self.venues.ring.remove_shard(shard_id)
        state = self._shards.pop(shard_id)
        moved = self._rebalance(before, closing=state)
        state.worker.close(self._registry)
        self._m_shards.set(float(len(self._shards)))
        emit_event("shard.remove", shard=shard_id, moved=moved)
        return moved

    def _rebalance(self, before: dict[str, list[str]], closing=None) -> list[str]:
        # Venue-centric diff of the two placements: a venue "moved" when
        # its replica set changed at all; it attaches on shards it
        # gained and detaches from shards it lost (which keeps the diff
        # correct when replication places one venue on several shards).
        after = self.venues.placement()
        before_sets: dict[str, set[str]] = {}
        for shard_id, names in before.items():
            for name in names:
                before_sets.setdefault(name, set()).add(shard_id)
        after_sets: dict[str, set[str]] = {}
        for shard_id, names in after.items():
            for name in names:
                after_sets.setdefault(name, set()).add(shard_id)
        moved: list[str] = []
        for name in sorted(after_sets):
            old = before_sets.get(name, set())
            new = after_sets[name]
            if old == new:
                continue
            moved.append(name)
            for shard_id in sorted(new - old):
                self._shards[shard_id].worker.attach(
                    name, self.venues.engine(name)
                )
            for shard_id in sorted(old - new):
                old_state = (
                    closing
                    if closing is not None and closing.shard_id == shard_id
                    else self._shards.get(shard_id)
                )
                if old_state is not None:
                    old_state.worker.detach(name)
        return moved

    def placement(self) -> dict[str, list[str]]:
        return self.venues.placement()

    def shard_saturation(self, shard_id: str) -> float:
        state = self._shards[shard_id]
        return state.depth / self.queue_depth

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def _semaphore(self, shard_id: str) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._sems_loop is not loop:
            self._sems = {
                sid: asyncio.Semaphore(self.queue_depth) for sid in self._shards
            }
            self._sems_loop = loop
        elif shard_id not in self._sems:
            self._sems[shard_id] = asyncio.Semaphore(self.queue_depth)
        return self._sems[shard_id]

    async def submit(self, venue: str, payload: Any) -> Any:
        """Admit one query, route it to its venue's shard, await the answer.

        Raises :class:`ShardSaturatedError` under ``admission="reject"``
        when the shard's bounded queue is full; otherwise waits (the
        backpressure propagates to the caller's send loop).  Engine
        exceptions propagate after being counted.
        """
        self.venues.engine(venue)  # unknown venues fail before admission
        if self.venues.replication_factor == 1:
            shard_id = self.venues.shard_for(venue)
        else:
            # Replicated venue: join the shortest replica queue (ties
            # break toward the primary — the replica-list order — so
            # routing stays deterministic).
            shard_id = min(
                self.venues.shards_for(venue),
                key=lambda sid: self._shards[sid].depth,
            )
        state = self._shards[shard_id]
        if self.admission == "reject" and state.depth >= self.queue_depth:
            state.m_rejected.inc()
            emit_event(
                "admission.reject",
                shard=shard_id,
                venue=venue,
                depth=state.depth,
                queue_depth=self.queue_depth,
            )
            self._record_slo(shard_id, venue, None, ok=False)
            raise ShardSaturatedError(shard_id, venue, self.queue_depth)
        waited = time.perf_counter()
        semaphore = self._semaphore(shard_id)
        await semaphore.acquire()
        self._m_queue_wait.observe(time.perf_counter() - waited)
        state.m_admitted.inc()
        state.set_depth(state.depth + 1, self.queue_depth)
        started = time.perf_counter()
        try:
            if self.process_mode:
                result = await asyncio.wrap_future(
                    state.worker.submit(venue, payload)
                )
            else:
                result = state.worker.serve(venue, payload)
        except BaseException:
            state.m_failed.inc()
            self._record_slo(
                shard_id, venue, time.perf_counter() - waited, ok=False
            )
            raise
        else:
            state.m_served.inc()
            state.m_service.observe(time.perf_counter() - started)
            e2e = time.perf_counter() - waited
            state.m_e2e.observe(e2e)
            self._record_slo(shard_id, venue, e2e, ok=True)
            return result
        finally:
            state.set_depth(state.depth - 1, self.queue_depth)
            semaphore.release()

    def _record_slo(
        self, shard_id: str, venue: str, latency: float | None, ok: bool
    ) -> None:
        """Feed one query outcome to the SLO tracker, per-shard and per-venue."""
        if self.slo is None:
            return
        self.slo.record(latency_seconds=latency, ok=ok, shard=shard_id)
        self.slo.record(latency_seconds=latency, ok=ok, venue=venue)

    def call(self, venue: str, payload: Any) -> Any:
        """Synchronous single query (runs a private event loop)."""
        return asyncio.run(self.submit(venue, payload))

    def map(self, venue: str, payloads: Iterable[Any]) -> list[Any]:
        """Serve a payload batch against one venue; results in order."""
        return self.map_many([(venue, payload) for payload in payloads])

    def map_many(self, items: list[tuple[str, Any]]) -> list[Any]:
        """Serve ``(venue, payload)`` pairs concurrently; results in order.

        Inline workers execute sequentially in submission order (the
        parity mode); process workers overlap across shards while this
        thread multiplexes the event loop.
        """

        async def _run() -> list[Any]:
            return await asyncio.gather(
                *(self.submit(venue, payload) for venue, payload in items)
            )

        return asyncio.run(_run())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down shard workers, merging process-mode metrics back."""
        for state in self._shards.values():
            state.worker.close(self._registry)

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
