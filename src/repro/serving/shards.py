"""Shard workers: where a venue's queries actually execute.

A shard is the unit of placement (see
:class:`repro.serving.ConsistentHashRing`) and of isolation: every venue
assigned to a shard is served by that shard's worker, one query at a
time.  Two worker flavors share one dispatch contract:

* :class:`InlineShardWorker` — executes in the calling process, on the
  event-loop thread.  The default (``workers=1``) and the parity mode:
  queries run in admission order, engines report into the ambient
  :class:`repro.obs.MetricsRegistry`/collector directly, and results are
  bit-identical to calling the engine without the serving layer at all.
* :class:`ProcessShardWorker` — a dedicated single-process
  :class:`concurrent.futures.ProcessPoolExecutor` per shard (forked, the
  same start-method policy as :mod:`repro.parallel`).  Engines are built
  *inside* the worker from picklable builder specs — the
  ``chunk_setup`` idiom of :func:`repro.parallel.parallel_map` — under a
  persistent worker-side registry whose state ships back and merges into
  the parent registry at :meth:`close`, in shard order, so counters and
  sketches survive the process boundary.  Venues registered with a
  live engine (no builder) are pickled across; their bound instruments
  then record into the worker's private copy and are not shipped back
  (the same caveat :mod:`repro.parallel` documents for ``shared``
  components).

Engine contract: an engine is any object with a ``serve(payload)``
method; a :class:`repro.core.VisualPrintServer` is accepted directly
(its ``localize`` is the serve method).
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import ExitStack
from typing import Any, Callable

from repro.obs import MetricsRegistry, isolated_trace_state, use_registry

__all__ = ["EngineSpec", "InlineShardWorker", "ProcessShardWorker", "resolve_serve"]


def resolve_serve(engine: Any) -> Callable[[Any], Any]:
    """The callable that answers one query for ``engine``.

    ``engine.serve`` when present, else ``engine.localize`` (so a bare
    :class:`repro.core.VisualPrintServer` is a valid venue engine).
    """
    serve = getattr(engine, "serve", None)
    if serve is None:
        serve = getattr(engine, "localize", None)
    if serve is None:
        raise TypeError(
            f"venue engine {type(engine).__name__} has neither .serve nor "
            ".localize"
        )
    return serve


class EngineSpec:
    """Picklable recipe for constructing a venue engine inside a worker.

    ``builder(*args, **kwargs)`` must return the engine; it runs inside
    the worker's registry scope so instruments the engine creates merge
    back to the parent on :meth:`ProcessShardWorker.close`.
    """

    def __init__(self, builder: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        self.builder = builder
        self.args = args
        self.kwargs = kwargs

    def build(self) -> Any:
        return self.builder(*self.args, **self.kwargs)


class InlineShardWorker:
    """Serve queries synchronously in the calling process."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self._engines: dict[str, Any] = {}

    def attach(self, venue: str, engine: Any) -> None:
        if isinstance(engine, EngineSpec):
            engine = engine.build()
        self._engines[venue] = engine

    def detach(self, venue: str) -> None:
        self._engines.pop(venue, None)

    def engine(self, venue: str) -> Any:
        return self._engines[venue]

    def serve(self, venue: str, payload: Any) -> Any:
        return resolve_serve(self._engines[venue])(payload)

    def submit(self, venue: str, payload: Any) -> Future:
        """Future-shaped serve, matching the process worker's interface."""
        future: Future = Future()
        try:
            future.set_result(self.serve(venue, payload))
        except BaseException as error:  # propagate through the future
            future.set_exception(error)
        return future

    def close(self, registry: MetricsRegistry | None = None) -> None:
        self._engines.clear()


# ----------------------------------------------------------------------
# Process workers
# ----------------------------------------------------------------------

# Worker-process state, installed by _init_shard_worker.
_WORKER_ENGINES: dict[str, Any] = {}
_WORKER_REGISTRY: MetricsRegistry | None = None
_WORKER_SCOPE: ExitStack | None = None


def _init_shard_worker(shard_id: str, specs: dict[str, Any]) -> None:
    """Pool initializer: build this shard's engines under a fresh registry."""
    global _WORKER_REGISTRY, _WORKER_SCOPE
    _WORKER_REGISTRY = MetricsRegistry()
    _WORKER_SCOPE = ExitStack()
    # Forked workers inherit the parent's propagation stacks; isolate so
    # worker spans root cleanly and records land in the worker registry.
    _WORKER_SCOPE.enter_context(isolated_trace_state())
    _WORKER_SCOPE.enter_context(use_registry(_WORKER_REGISTRY))
    _WORKER_ENGINES.clear()
    for venue, spec in specs.items():
        _WORKER_ENGINES[venue] = spec.build() if isinstance(spec, EngineSpec) else spec


def _serve_in_worker(venue: str, payload: Any) -> Any:
    return resolve_serve(_WORKER_ENGINES[venue])(payload)


def _worker_registry_state() -> dict[str, Any]:
    assert _WORKER_REGISTRY is not None
    return _WORKER_REGISTRY.state()


class ProcessShardWorker:
    """One dedicated worker process serving this shard's venues."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self._specs: dict[str, Any] = {}
        self._pool: ProcessPoolExecutor | None = None

    def attach(self, venue: str, engine: Any) -> None:
        if self._pool is not None:
            raise RuntimeError(
                f"shard {self.shard_id!r} already started; register venues "
                "before the first query in process mode"
            )
        self._specs[venue] = engine

    def detach(self, venue: str) -> None:
        if self._pool is not None:
            raise RuntimeError(
                f"shard {self.shard_id!r} already started; cannot detach "
                f"venue {venue!r} from a live process worker"
            )
        self._specs.pop(venue, None)

    def engine(self, venue: str) -> Any:
        return self._specs[venue]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from repro.parallel.pool import _pool_context

            self._pool = ProcessPoolExecutor(
                max_workers=1,
                mp_context=_pool_context(),
                initializer=_init_shard_worker,
                initargs=(self.shard_id, self._specs),
            )
        return self._pool

    def submit(self, venue: str, payload: Any) -> Future:
        return self._ensure_pool().submit(_serve_in_worker, venue, payload)

    def serve(self, venue: str, payload: Any) -> Any:
        return self.submit(venue, payload).result()

    def close(self, registry: MetricsRegistry | None = None) -> None:
        """Shut the worker down, merging its registry into ``registry``."""
        if self._pool is not None:
            if registry is not None:
                try:
                    state = self._pool.submit(_worker_registry_state).result()
                    registry.merge_state(state)
                except Exception:
                    # A crashed worker loses its metrics, never the close.
                    pass
            self._pool.shutdown(wait=True)
            self._pool = None
