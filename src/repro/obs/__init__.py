"""``repro.obs`` — the observability layer of the reproduction.

Dependency-free metrics (:class:`Counter` / :class:`Gauge` /
:class:`QuantileSketch` in a :class:`MetricsRegistry`), request-scoped
tracing (:class:`Span` trees opened with :func:`trace_span`, carrying
``trace_id`` identity, propagated via :class:`TraceContext` and kept by
a :class:`TraceCollector`; :func:`slowest_traces` picks the tail out of
it), exporters (JSON / Prometheus text / Chrome trace-event JSON /
NDJSON), and a metrics snapshot differ (:func:`diff_metrics`) behind the
``metrics-diff`` CLI gate.  The offload pipeline — client, oracle,
server, uplink — reports into whichever registry is current (see
:func:`use_registry`), which is how ``python -m repro <experiment>
--metrics-json out.json`` captures one coherent snapshot across every
stage; ``--trace-out trace.json`` does the same for spans.

Typical use::

    from repro.obs import MetricsRegistry, TraceCollector, use_collector, use_registry

    registry = MetricsRegistry()
    collector = TraceCollector(registry=registry)
    with use_registry(registry), use_collector(collector):
        ...  # build clients/servers, run frames
    print(registry.to_prometheus())
    registry.write_json("metrics.json")
    write_chrome_trace(collector.roots, "trace.json")
"""

from repro.obs.diff import (
    MetricViolation,
    diff_metrics,
    format_report,
    scalar_samples,
)
from repro.obs.events import (
    EventLog,
    current_event_log,
    emit_event,
    use_event_log,
)
from repro.obs.export import (
    chrome_trace_events,
    parse_prometheus,
    render_prometheus,
    span_records,
    write_chrome_trace,
    write_ndjson,
)
from repro.obs.metrics import (
    DEFAULT_MAX_LABEL_SETS,
    Counter,
    Gauge,
    MetricsRegistry,
    current_registry,
    get_global_registry,
    use_registry,
)
from repro.obs.sketch import DEFAULT_QUANTILES, QuantileSketch
from repro.obs.slo import (
    SloObjective,
    SloTracker,
    current_slo_tracker,
    default_objectives,
    use_slo_tracker,
)
from repro.obs.top import parse_metric_key, render_dashboard, run_top
from repro.obs.tracing import (
    QueryTrace,
    Span,
    TraceCollector,
    TraceContext,
    current_collector,
    current_span,
    current_trace_context,
    format_trace,
    group_traces,
    isolated_trace_state,
    record_span,
    slowest_traces,
    trace_span,
    use_collector,
    use_trace_context,
)

__all__ = [
    "Counter",
    "DEFAULT_MAX_LABEL_SETS",
    "DEFAULT_QUANTILES",
    "EventLog",
    "Gauge",
    "MetricViolation",
    "MetricsRegistry",
    "QuantileSketch",
    "QueryTrace",
    "SloObjective",
    "SloTracker",
    "Span",
    "TraceCollector",
    "TraceContext",
    "chrome_trace_events",
    "current_collector",
    "current_event_log",
    "current_registry",
    "current_slo_tracker",
    "current_span",
    "current_trace_context",
    "default_objectives",
    "diff_metrics",
    "emit_event",
    "format_report",
    "format_trace",
    "get_global_registry",
    "group_traces",
    "isolated_trace_state",
    "parse_metric_key",
    "parse_prometheus",
    "record_span",
    "render_dashboard",
    "render_prometheus",
    "resolve_registry",
    "run_top",
    "scalar_samples",
    "slowest_traces",
    "span_records",
    "trace_span",
    "use_collector",
    "use_event_log",
    "use_registry",
    "use_slo_tracker",
    "use_trace_context",
    "write_chrome_trace",
    "write_ndjson",
]


def resolve_registry(registry: "MetricsRegistry | None") -> "MetricsRegistry":
    """Explicit registry > contextual registry > a fresh private one.

    The resolution rule every instrumented component applies at
    construction time, so tests get isolated registries by default
    while experiment drivers share one via :func:`use_registry`.
    """
    if registry is not None:
        return registry
    contextual = current_registry()
    if contextual is not None:
        return contextual
    return MetricsRegistry()
