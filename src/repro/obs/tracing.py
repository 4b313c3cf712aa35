"""Request-scoped tracing: spans, trace contexts, and collection.

A :class:`Span` is one timed region of the pipeline ("frame" →
"sift" / "oracle" / "serialize") carrying OpenTelemetry-style identity
(``trace_id`` / ``span_id`` / ``parent_id``) plus a wall-clock start
timestamp, so spans recorded by *different* components — the client,
the channel model, the oracle, the server, even pool workers in other
processes — can be stitched back into one per-query trace.

Three cooperating pieces:

* :func:`trace_span` — the one way to open a span.  The active-span
  stack is **process-wide** (module level), so a span opened by one
  component while another component's span is active nests under it
  automatically; one query flows through the whole offload path as one
  tree.  (The pipeline parallelizes across processes, never across
  threads, so a single stack per process is exact.)
* :class:`TraceContext` + :func:`use_trace_context` — explicit
  propagation for the *sequential* parts of the path: a driver that
  fingerprints a frame and later pushes the payload through the channel
  model wraps the transfer in ``use_trace_context(root.context)`` so
  the transfer span joins the frame's trace even though the frame span
  already closed (or ran in another process).
* :class:`TraceCollector` + :func:`use_collector` — a contextual sink
  (mirroring :func:`repro.obs.use_registry`) that receives every
  finished local-root span; :mod:`repro.parallel` ships worker
  collectors back to the parent so ``workers=N`` runs lose no trace
  data.  It is the one place finished spans are kept: a span opened
  with no collector installed is timed into its sketch and then
  dropped.

Durations come from ``perf_counter`` (monotonic); cross-process
ordering and export timestamps come from ``start_unix`` (epoch
seconds).  Every span's duration is mirrored into a registry
:class:`repro.obs.sketch.QuantileSketch` named ``span_<name>_seconds``,
so traces and metrics tell one story from one clock reading: the span
is the only timer of the region it covers.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry, current_registry

__all__ = [
    "QueryTrace",
    "Span",
    "TraceCollector",
    "TraceContext",
    "current_collector",
    "current_span",
    "current_trace_context",
    "format_trace",
    "group_traces",
    "isolated_trace_state",
    "record_span",
    "slowest_traces",
    "trace_span",
    "use_collector",
    "use_trace_context",
]

# Monotonic per-process id source.  Ids are "<pid>-<counter>" in hex:
# pool workers fork *after* the parent has minted ids, so the counter
# alone would collide across workers — the pid prefix keeps every id
# globally unique without importing uuid/random (which would perturb
# the repo's seeded RNG discipline if misused).
_ID_COUNTER = itertools.count(1)


def _new_id() -> str:
    return f"{os.getpid():x}-{next(_ID_COUNTER):x}"


def _metric_safe(name: str) -> str:
    """Span name → Prometheus-legal metric-name fragment."""
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _jsonable(value: Any) -> Any:
    """Attribute value → something json.dump accepts (numpy scalars included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        try:
            return value.item()
        except Exception:  # pragma: no cover - exotic array-likes
            return str(value)
    return str(value)


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of a span: what a child needs to link up.

    Frozen and made of two strings, so it pickles across the process
    pool and travels in plain tuples returned by worker functions.
    """

    trace_id: str
    span_id: str


class Span:
    """One timed pipeline region, possibly with child spans."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix",
        "start_seconds",
        "end_seconds",
        "children",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        span_id: str | None = None,
        parent_id: str | None = None,
        start_unix: float | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self.span_id = span_id if span_id is not None else _new_id()
        self.parent_id = parent_id
        self.start_unix = time.time() if start_unix is None else float(start_unix)
        self.start_seconds = time.perf_counter()
        self.end_seconds: float | None = None
        self.children: list["Span"] = []
        self.attributes: dict[str, Any] = {}

    def finish(self, duration_seconds: float | None = None) -> None:
        """Close the span; pass ``duration_seconds`` for simulated time.

        The channel model records *simulated* transfer durations (its
        seconds never elapse on this host), so a span can be finished
        with an explicit duration instead of the wall clock.
        """
        if self.end_seconds is None:
            if duration_seconds is not None:
                # Anchored at zero, as in from_dict: start + duration on
                # the host clock would round the duration by an ulp of
                # the clock reading, which grows with uptime.
                self.start_seconds = 0.0
                self.end_seconds = float(duration_seconds)
            else:
                self.end_seconds = time.perf_counter()

    @property
    def finished(self) -> bool:
        return self.end_seconds is not None

    @property
    def duration_seconds(self) -> float:
        end = self.end_seconds if self.end_seconds is not None else time.perf_counter()
        return end - self.start_seconds

    @property
    def end_unix(self) -> float:
        return self.start_unix + self.duration_seconds

    @property
    def context(self) -> TraceContext:
        """This span's identity, for linking later/out-of-process work."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def child(self, name: str) -> "Span | None":
        """First direct child with ``name``, or ``None``."""
        for child in self.children:
            if child.name == name:
                return child
        return None

    def iter_spans(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_seconds": self.duration_seconds,
            "attributes": {k: _jsonable(v) for k, v in self.attributes.items()},
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        ``perf_counter`` readings are process-local, so the rebuilt span
        anchors its duration at 0 and keeps ``start_unix`` as the only
        cross-process timestamp.
        """
        span = cls(
            payload["name"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start_unix=payload.get("start_unix", 0.0),
        )
        span.start_seconds = 0.0
        span.end_seconds = float(payload["duration_seconds"])
        span.attributes = dict(payload.get("attributes", {}))
        span.children = [cls.from_dict(child) for child in payload.get("children", [])]
        return span

    def __repr__(self) -> str:
        state = f"{self.duration_seconds * 1e3:.2f}ms" if self.finished else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


# ---------------------------------------------------------------------------
# Process-wide propagation state
# ---------------------------------------------------------------------------

# The active-span stack: shared by every span in the process so spans
# from different components nest into one tree.  LIFO discipline is
# guaranteed by the with-blocks that push/pop.
_ACTIVE_SPANS: list[Span] = []

# Explicitly-installed trace contexts (use_trace_context), innermost last.
_CONTEXT_STACK: list[TraceContext] = []

# Installed collectors (use_collector), innermost last.
_COLLECTOR_STACK: list["TraceCollector"] = []


def current_span() -> Span | None:
    """The innermost open span in this process, if any."""
    return _ACTIVE_SPANS[-1] if _ACTIVE_SPANS else None


def current_trace_context() -> TraceContext | None:
    """The innermost explicitly-installed :class:`TraceContext`, if any."""
    return _CONTEXT_STACK[-1] if _CONTEXT_STACK else None


@contextmanager
def use_trace_context(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make spans started inside the block children of ``context``.

    Accepts ``None`` as a no-op so call sites can propagate an optional
    context without branching.
    """
    if context is None:
        yield None
        return
    _CONTEXT_STACK.append(context)
    try:
        yield context
    finally:
        _CONTEXT_STACK.pop()


def current_collector() -> "TraceCollector | None":
    """The innermost installed :class:`TraceCollector`, if any."""
    return _COLLECTOR_STACK[-1] if _COLLECTOR_STACK else None


@contextmanager
def use_collector(collector: "TraceCollector") -> Iterator["TraceCollector"]:
    """Deliver every local-root span finished inside the block to ``collector``."""
    _COLLECTOR_STACK.append(collector)
    try:
        yield collector
    finally:
        _COLLECTOR_STACK.pop()


@contextmanager
def isolated_trace_state() -> Iterator[None]:
    """Run a block under empty propagation stacks (pool-chunk isolation).

    A forked pool worker inherits copies of the parent's open-span /
    context / collector stacks; chunk work must not nest under them (a
    ``workers=1`` run would then differ from ``workers=N``), so
    :mod:`repro.parallel` wraps every chunk — in-process or forked — in
    this guard.  The previous stacks are restored on exit.
    """
    saved_spans = _ACTIVE_SPANS[:]
    saved_contexts = _CONTEXT_STACK[:]
    saved_collectors = _COLLECTOR_STACK[:]
    _ACTIVE_SPANS.clear()
    _CONTEXT_STACK.clear()
    _COLLECTOR_STACK.clear()
    try:
        yield
    finally:
        _ACTIVE_SPANS[:] = saved_spans
        _CONTEXT_STACK[:] = saved_contexts
        _COLLECTOR_STACK[:] = saved_collectors


def _open_span(name: str, attributes: dict[str, Any]) -> tuple[Span, Span | None]:
    """Create a span linked to the active span or the ambient context."""
    parent = current_span()
    if parent is not None:
        span = Span(name, trace_id=parent.trace_id, parent_id=parent.span_id)
        parent.children.append(span)
    else:
        ambient = current_trace_context()
        if ambient is not None:
            span = Span(name, trace_id=ambient.trace_id, parent_id=ambient.span_id)
        else:
            span = Span(name)
    if attributes:
        span.attributes.update(attributes)
    return span, parent


def _deliver_root(span: Span) -> None:
    collector = current_collector()
    if collector is not None:
        collector.collect(span)


def _mirror_duration(span: Span, registry: MetricsRegistry | None) -> None:
    if registry is not None:
        registry.sketch(
            f"span_{_metric_safe(span.name)}_seconds",
            help=f"wall-clock of the {span.name!r} span",
        ).observe(span.duration_seconds)


# ---------------------------------------------------------------------------
# Span creation APIs
# ---------------------------------------------------------------------------


@contextmanager
def trace_span(
    name: str, registry: MetricsRegistry | None = None, **attributes: Any
) -> Iterator[Span]:
    """Time the block as a span named ``name``.

    The span links to the active span, else to the ambient
    :class:`TraceContext`, else starts a new trace; a local root goes to
    the current collector.  The duration mirrors into ``registry``
    (components pass their own; default: the contextual registry, if
    any) as the ``span_<name>_seconds`` sketch.
    """
    span, parent = _open_span(name, attributes)
    _ACTIVE_SPANS.append(span)
    try:
        yield span
    finally:
        _ACTIVE_SPANS.pop()
        span.finish()
        if parent is None:
            _deliver_root(span)
        _mirror_duration(span, registry if registry is not None else current_registry())


def record_span(
    name: str,
    duration_seconds: float,
    registry: MetricsRegistry | None = None,
    **attributes: Any,
) -> Span | None:
    """Record an already-measured (or simulated) region as a span.

    For durations that never elapse on this host — the channel model's
    simulated transfer seconds — where a timed with-block would lie.
    Links to the active span or the ambient :class:`TraceContext`; when
    neither exists and no collector is installed the event has no
    possible consumer and ``None`` is returned without allocating.
    """
    if not (_ACTIVE_SPANS or _CONTEXT_STACK or _COLLECTOR_STACK):
        return None
    span, parent = _open_span(name, attributes)
    span.finish(duration_seconds=duration_seconds)
    if parent is None:
        _deliver_root(span)
    _mirror_duration(span, registry)
    return span


# ---------------------------------------------------------------------------
# Trace assembly
# ---------------------------------------------------------------------------


@dataclass
class QueryTrace:
    """All local-root spans sharing one ``trace_id`` — one query's story.

    A query's tree can arrive in pieces (the frame tree from a pool
    worker, the transfer span from the parent); grouping by trace id
    reassembles the pieces without requiring them to share memory.
    """

    trace_id: str
    roots: list[Span]

    @property
    def start_unix(self) -> float:
        return min(s.start_unix for root in self.roots for s in root.iter_spans())

    @property
    def end_unix(self) -> float:
        # Over all spans, not just roots: a simulated-duration child
        # (e.g. a transfer recorded while its root is still open) can
        # end after its parent and must count toward the extent.
        return max(s.end_unix for root in self.roots for s in root.iter_spans())

    @property
    def duration_seconds(self) -> float:
        """The query's busy time: summed per-root extents.

        The legs of one query can run far apart in wall-clock — a driver
        fingerprints every frame first, then replays the transfers — so
        the raw ``end_unix - start_unix`` extent would be dominated by
        idle gaps between legs, not by the query's own cost.  Summing
        each root's extent (which still includes simulated child
        durations that outlast their parent) ranks queries by what they
        actually spent.
        """
        return sum(
            max(s.end_unix for s in root.iter_spans()) - root.start_unix
            for root in self.roots
        )

    @property
    def num_spans(self) -> int:
        return sum(1 for root in self.roots for _ in root.iter_spans())

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "duration_seconds": self.duration_seconds,
            "num_spans": self.num_spans,
            "roots": [root.to_dict() for root in self.roots],
        }


def group_traces(roots: Iterator[Span] | list[Span]) -> list[QueryTrace]:
    """Group root spans by ``trace_id``, preserving first-seen order."""
    grouped: dict[str, list[Span]] = {}
    for root in roots:
        grouped.setdefault(root.trace_id, []).append(root)
    return [QueryTrace(trace_id=tid, roots=spans) for tid, spans in grouped.items()]


def slowest_traces(traces: list[QueryTrace], k: int) -> list[QueryTrace]:
    """The ``k`` slowest traces, slowest first; ties keep first-seen order.

    Slowness is :attr:`QueryTrace.duration_seconds`, the query's busy
    time: *simulated* spans (the channel model's transfer seconds) count
    as they would on a real uplink, idle wall-clock between a query's
    legs does not.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sorted(traces, key=lambda trace: -trace.duration_seconds)[:k]


def _format_span(span: Span, depth: int, lines: list[str]) -> None:
    attrs = ""
    if span.attributes:
        inner = ", ".join(f"{k}={v}" for k, v in span.attributes.items())
        attrs = f"  [{inner}]"
    lines.append(
        f"{'  ' * depth}{span.name} {span.duration_seconds * 1e3:.3f} ms{attrs}"
    )
    for child in span.children:
        _format_span(child, depth + 1, lines)


def format_trace(trace: QueryTrace) -> str:
    """Human-readable span-tree rendering of one query trace."""
    lines = [
        f"trace {trace.trace_id}: {trace.duration_seconds * 1e3:.3f} ms, "
        f"{trace.num_spans} spans in {len(trace.roots)} roots"
    ]
    for root in trace.roots:
        _format_span(root, 1, lines)
    return "\n".join(lines)


class TraceCollector:
    """Contextual sink for finished local-root spans.

    Install with :func:`use_collector` around a run; every component's
    root spans land here.  ``state()`` / ``merge_state()`` mirror the
    :class:`MetricsRegistry` cross-process protocol: a pool worker
    returns ``collector.state()`` (plain dicts, picklable) and the
    parent merges it back in deterministic chunk order.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        max_roots: int = 100_000,
    ) -> None:
        self.registry = registry
        self.max_roots = int(max_roots)
        self.roots: list[Span] = []
        self.roots_dropped = 0

    def collect(self, root: Span) -> None:
        self.roots.append(root)
        if len(self.roots) > self.max_roots:
            dropped = len(self.roots) - self.max_roots
            del self.roots[:dropped]
            self.roots_dropped += dropped
            if self.registry is not None:
                self.registry.counter(
                    "trace_collector_roots_dropped_total",
                    help="root spans trimmed from a bounded TraceCollector",
                ).inc(dropped)

    def spans(self) -> Iterator[Span]:
        """Every retained span (roots and descendants), depth-first."""
        for root in self.roots:
            yield from root.iter_spans()

    def traces(self) -> list[QueryTrace]:
        """Retained roots grouped into per-query traces."""
        return group_traces(self.roots)

    def clear(self) -> None:
        self.roots.clear()

    def state(self) -> list[dict[str, Any]]:
        """Picklable snapshot of the retained roots (for merge_state)."""
        return [root.to_dict() for root in self.roots]

    def merge_state(self, state: list[dict[str, Any]]) -> None:
        """Fold a worker collector's :meth:`state` into this collector."""
        for payload in state:
            self.collect(Span.from_dict(payload))
