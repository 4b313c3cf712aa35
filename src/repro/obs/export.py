"""Exporters: Prometheus text, Chrome trace-event JSON, NDJSON spans.

``render_prometheus`` emits the version-0.0.4 text format (``# HELP`` /
``# TYPE`` headers, every sketch as a ``summary`` — ``{quantile=...}``
samples plus ``_sum`` / ``_count`` — escaped help text and label
values).  The test-only parser in ``tests/prometheus_reference.py``
reads that format back into flat samples, so tests prove the export
round-trips a registry exactly.

``chrome_trace_events`` / ``write_chrome_trace`` render root spans as
Chrome trace-event JSON ("X" complete events, microsecond ``ts`` /
``dur``) loadable in ``chrome://tracing`` and Perfetto; ``pid`` is the
producing worker process and ``tid`` a per-trace lane, so every query
renders as its own row.  ``write_ndjson`` emits the same spans as a
flat structured event log, one JSON object per line.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Span

__all__ = [
    "chrome_trace_events",
    "render_prometheus",
    "span_records",
    "write_chrome_trace",
    "write_json",
    "write_ndjson",
]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def render_prometheus(registry: "MetricsRegistry") -> str:
    """Registry → Prometheus text exposition format."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    samples_by_family: dict[str, list[str]] = {}
    # Emit HELP/TYPE once per metric family, then that family's samples.
    for instrument in registry.instruments():
        if instrument.name not in seen_headers:
            seen_headers.add(instrument.name)
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {_escape_help(instrument.help)}")
            kind = "summary" if instrument.kind == "sketch" else instrument.kind
            lines.append(f"# TYPE {instrument.name} {kind}")
            samples_by_family[instrument.name] = []
            lines.append(f"__SAMPLES__{instrument.name}")
    for name, labels, value in registry.samples():
        family = name
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in samples_by_family:
                family = name[: -len(suffix)]
                break
        target = samples_by_family.get(name, samples_by_family.get(family))
        target.append(f"{name}{_render_labels(labels)} {_format_value(value)}")
    out: list[str] = []
    for line in lines:
        if line.startswith("__SAMPLES__"):
            out.extend(samples_by_family[line[len("__SAMPLES__"):]])
        else:
            out.append(line)
    return "\n".join(out) + "\n" if out else ""


def write_json(registry: "MetricsRegistry", path: str) -> None:
    """Convenience alias for :meth:`MetricsRegistry.write_json`."""
    registry.write_json(path)


# ---------------------------------------------------------------------------
# Trace exporters
# ---------------------------------------------------------------------------


def _span_pid(root: "Span") -> int:
    """Chrome ``pid`` lane: the worker that produced the root span.

    Worker-collected roots carry a ``worker`` attribute (set by
    :mod:`repro.parallel` on merge-back); parent-side roots fall back to
    this process's pid.
    """
    worker = root.attributes.get("worker")
    try:
        return int(worker)
    except (TypeError, ValueError):
        return os.getpid()


def chrome_trace_events(roots: Iterable["Span"]) -> list[dict[str, Any]]:
    """Root spans → Chrome trace-event "X" (complete) events.

    Timestamps derive from ``start_unix`` (the only clock comparable
    across processes), rebased to the earliest span so the trace opens
    at t=0; ``ts`` and ``dur`` are microseconds per the trace-event
    spec.  Each ``trace_id`` gets its own ``tid`` lane, so one query
    renders as one row with its client/channel/oracle/server spans.
    """
    roots = list(roots)
    if not roots:
        return []
    base = min(span.start_unix for root in roots for span in root.iter_spans())
    lanes: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for root in roots:
        pid = _span_pid(root)
        tid = lanes.setdefault(root.trace_id, len(lanes) + 1)
        for span in root.iter_spans():
            payload = span.to_dict()
            args = dict(payload["attributes"])
            args["trace_id"] = span.trace_id
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": (span.start_unix - base) * 1e6,
                    "dur": max(span.duration_seconds, 0.0) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    return events


def write_chrome_trace(roots: Iterable["Span"], path: str) -> None:
    """Write root spans as a ``chrome://tracing``/Perfetto-loadable file."""
    roots = list(roots)
    base = (
        min(span.start_unix for root in roots for span in root.iter_spans())
        if roots
        else 0.0
    )
    payload = {
        "traceEvents": chrome_trace_events(roots),
        "displayTimeUnit": "ms",
        "metadata": {"base_unix_seconds": base},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def span_records(roots: Iterable["Span"]) -> list[dict[str, Any]]:
    """Root spans → flat per-span records (the NDJSON line payloads)."""
    records: list[dict[str, Any]] = []
    for root in roots:
        for span in root.iter_spans():
            payload = span.to_dict()
            payload.pop("children")
            payload["type"] = "span"
            records.append(payload)
    return records


def write_ndjson(roots: Iterable["Span"], path: str) -> None:
    """Write root spans as newline-delimited JSON, one span per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in span_records(roots):
            handle.write(json.dumps(record))
            handle.write("\n")
