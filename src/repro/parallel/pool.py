"""Deterministic process-pool mapping for the offline pipeline.

The server-side workloads of the reproduction — wardriving hundreds of
images into the uniqueness oracle, replaying 500 queries through the
client pipeline, building the Fig. 13 retrieval workload — are
embarrassingly parallel per item.  :func:`parallel_map` runs them
across a process pool while keeping three guarantees the rest of the
codebase relies on:

* **Determinism.**  Results come back in item order, and every form of
  nondeterminism is pinned down: items are dispatched in fixed chunks,
  per-item randomness comes from :func:`shard_seeds` (named
  :func:`repro.util.rng.rng_for` streams, never a shared sequential
  generator), and worker metrics merge in chunk order — so
  ``workers=N`` output is bit-identical to ``workers=1``.
* **In-process fallback.**  ``workers=1`` (the default everywhere)
  runs the exact same chunked code path inline — no fork, no pickling
  of ``shared`` — so library users who never ask for parallelism pay
  nothing and tests exercise one code path.
* **Observability.**  Each chunk executes under a fresh contextual
  :class:`repro.obs.MetricsRegistry` (see :func:`repro.obs.use_registry`);
  the chunk's snapshot is merged back into the parent registry after
  the chunk completes.  Components constructed *inside* the worker
  (e.g. via ``chunk_setup``) therefore report into the parent exactly
  as if they had run serially.  Components constructed in the parent
  and shipped via ``shared`` keep their own bound registries — in a
  worker process those records stay in the worker's copy; construct
  instrumented components in ``chunk_setup`` when their metrics matter.
  Traces get the same treatment: when the caller has a
  :class:`repro.obs.TraceCollector` installed (see
  :func:`repro.obs.use_collector`), each chunk runs under a fresh
  collector whose finished root spans — labeled with the producing
  ``worker`` pid and ``shard`` (chunk) index — are shipped back and
  merged in chunk order, so a ``workers=N`` run retains the same set
  of root spans as ``workers=1``.  Structured events follow suit: with
  a contextual :class:`repro.obs.EventLog` installed (see
  :func:`repro.obs.use_event_log`), each chunk emits into a fresh log
  whose records ship back and merge in chunk order.

Worker functions must be module-level (picklable); heavyweight
read-only context travels once per worker through ``shared`` and is
read back with :func:`get_shared`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from contextlib import ExitStack

from repro.obs import (
    EventLog,
    MetricsRegistry,
    TraceCollector,
    current_collector,
    current_event_log,
    isolated_trace_state,
    resolve_registry,
    use_collector,
    use_event_log,
    use_registry,
)
from repro.util.rng import derive_seed

__all__ = ["default_workers", "get_shared", "parallel_map", "shard_seeds"]

# Per-process shared context, installed by the pool initializer (worker
# processes) or directly by parallel_map (in-process fallback).
_SHARED: Any = None


def get_shared() -> Any:
    """The ``shared`` object passed to the enclosing :func:`parallel_map`.

    Valid only inside a worker function (or ``chunk_setup``) during a
    ``parallel_map`` call that supplied ``shared=...``.
    """
    return _SHARED


def default_workers() -> int:
    """Usable CPU count (cgroup/affinity aware), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def shard_seeds(seed: int, name: str, count: int) -> list[int]:
    """``count`` independent per-item child seeds for one parallel stage.

    The seeding discipline of the parallel layer: a stage that needs
    randomness derives one child seed per item up front
    (``shard_seeds(seed, "stage", n)[i]``) instead of consuming a shared
    generator sequentially, so item ``i`` sees the same stream no matter
    which worker runs it or how items are chunked.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [derive_seed(seed, f"{name}/{index}") for index in range(count)]


def _set_shared(shared: Any) -> None:
    global _SHARED
    _SHARED = shared


def _run_chunk(
    fn: Callable[..., Any],
    chunk: Sequence[Any],
    chunk_setup: Callable[[], Any] | None,
    chunk_index: int = 0,
    collect_traces: bool = False,
    collect_events: bool = False,
) -> tuple[
    list[Any],
    dict[str, Any],
    list[dict[str, Any]] | None,
    dict[str, Any] | None,
]:
    """Run one chunk under fresh contextual registry/collector; return states.

    ``collect_traces`` is set when the *caller* had a collector
    installed: the chunk then gathers its finished root spans, labels
    them with this worker's pid and the chunk index, and returns them
    as picklable state for the parent to merge — otherwise span
    shipping is skipped entirely.  ``collect_events`` does the same for
    the caller's contextual :class:`repro.obs.EventLog`: the chunk runs
    under a fresh log whose records (stamped with this worker's pid and
    the chunk index) ship back for chunk-ordered merging.
    """
    registry = MetricsRegistry()
    collector = TraceCollector(registry=registry) if collect_traces else None
    event_log = EventLog(registry=registry) if collect_events else None
    with ExitStack() as stack:
        # Forked workers inherit the parent's propagation stacks (and the
        # in-process fallback runs on them directly); clear both cases so
        # chunk spans root identically regardless of worker count.
        stack.enter_context(isolated_trace_state())
        stack.enter_context(use_registry(registry))
        if collector is not None:
            stack.enter_context(use_collector(collector))
        if event_log is not None:
            stack.enter_context(use_event_log(event_log))
        if chunk_setup is None:
            results = [fn(item) for item in chunk]
        else:
            context = chunk_setup()
            results = [fn(item, context) for item in chunk]
    trace_state: list[dict[str, Any]] | None = None
    if collector is not None:
        for root in collector.roots:
            root.attributes.setdefault("worker", os.getpid())
            root.attributes.setdefault("shard", chunk_index)
        trace_state = collector.state()
    event_state: dict[str, Any] | None = None
    if event_log is not None:
        for record in event_log.records:
            record.setdefault("worker", os.getpid())
            record.setdefault("shard", chunk_index)
        event_state = event_log.state()
    return results, registry.state(), trace_state, event_state


def _pool_context() -> multiprocessing.context.BaseContext:
    # Fork keeps worker start cheap (no re-import of numpy/scipy) and is
    # available everywhere this repo's CI runs; fall back to the platform
    # default elsewhere.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def parallel_map(
    fn: Callable[..., Any],
    items: Iterable[Any],
    workers: int = 1,
    *,
    shared: Any = None,
    chunk_setup: Callable[[], Any] | None = None,
    chunk_size: int | None = None,
    registry: MetricsRegistry | None = None,
) -> list[Any]:
    """Map ``fn`` over ``items``, optionally across a process pool.

    ``fn(item)`` is called once per item (``fn(item, context)`` when
    ``chunk_setup`` is given — the setup callable runs once per chunk,
    inside the chunk's registry scope, and its return value is passed to
    every call; use it to build per-worker state like a client whose
    instruments must land in the merged registry).  Results return in
    item order.

    ``workers <= 1`` runs everything in-process through the same chunked
    path.  ``shared`` is delivered once per worker process (via the pool
    initializer) and read back with :func:`get_shared`; keep it
    read-only — worker-side mutations never propagate back.

    Metrics recorded into the contextual registry inside each chunk are
    merged (in chunk order, hence deterministically) into ``registry``,
    resolved per :func:`repro.obs.resolve_registry`.  Root spans
    finished inside each chunk merge the same way into the caller's
    contextual :class:`repro.obs.TraceCollector`, when one is installed.
    """
    items = list(items)
    target = resolve_registry(registry)
    collector = current_collector()
    event_log = current_event_log()
    if not items:
        return []
    workers = max(1, min(int(workers), len(items)))
    if chunk_size is None:
        # One chunk per worker: amortizes chunk_setup and keeps the
        # number of registry merges independent of item count.
        chunk_size = math.ceil(len(items) / workers)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunks = [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]

    collect_traces = collector is not None
    collect_events = event_log is not None
    if workers == 1:
        previous = _SHARED
        _set_shared(shared)
        try:
            outcomes = [
                _run_chunk(
                    fn, chunk, chunk_setup, index, collect_traces, collect_events
                )
                for index, chunk in enumerate(chunks)
            ]
        finally:
            _set_shared(previous)
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=_set_shared,
            initargs=(shared,),
        ) as pool:
            futures = [
                pool.submit(
                    _run_chunk,
                    fn,
                    chunk,
                    chunk_setup,
                    index,
                    collect_traces,
                    collect_events,
                )
                for index, chunk in enumerate(chunks)
            ]
            # Collect in submission order regardless of completion order.
            outcomes = [future.result() for future in futures]

    results: list[Any] = []
    for chunk_results, chunk_state, chunk_traces, chunk_events in outcomes:
        results.extend(chunk_results)
        target.merge_state(chunk_state)
        if collector is not None and chunk_traces:
            collector.merge_state(chunk_traces)
        if event_log is not None and chunk_events:
            event_log.merge_state(chunk_events)
    return results
