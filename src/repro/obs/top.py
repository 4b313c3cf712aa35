"""``repro top`` — a live plain-text/curses view of a serving fleet.

Renders a metrics snapshot (the :meth:`repro.obs.MetricsRegistry.to_dict`
JSON that ``--metrics-json`` / ``--watch-json`` write) plus an optional
NDJSON event log into a terminal dashboard: fleet totals, a per-shard
table (queue depth, saturation, admitted/rejected/served/failed,
e2e latency quantiles from the streaming sketch), SLO budget/burn
gauges, client-side frame quantiles, and the most recent events.

Everything is a pure function of the snapshot dict —
:func:`render_dashboard` takes JSON in, returns a string — so the CLI
loop is just "read file, render, repaint", testable without a terminal.
The curses path is a thin repaint wrapper; plain mode (no curses, not a
tty, or ``--plain``) prints the same frame.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

__all__ = ["parse_metric_key", "render_dashboard", "run_top"]


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """``'name{k=v,k2=v2}'`` → ``('name', {'k': 'v', 'k2': 'v2'})``.

    Inverse of the key rendering in :meth:`MetricsRegistry.to_dict`
    (label values in this codebase never contain ``,`` or ``}``).
    """
    if "{" not in key:
        return key, {}
    name, _, body = key.partition("{")
    labels: dict[str, str] = {}
    for part in body.rstrip("}").split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value
    return name, labels


def _find(
    section: dict[str, Any], name: str, **want: str
) -> list[tuple[dict[str, str], dict[str, Any]]]:
    """All entries of ``name`` whose labels include ``want``; sorted."""
    out = []
    for key, entry in section.items():
        entry_name, labels = parse_metric_key(key)
        if entry_name != name:
            continue
        if any(labels.get(k) != v for k, v in want.items()):
            continue
        out.append((labels, entry))
    return sorted(out, key=lambda pair: sorted(pair[0].items()))


def _value(section: dict[str, Any], name: str, **want: str) -> float:
    found = _find(section, name, **want)
    return float(found[0][1]["value"]) if found else 0.0


def _fmt_seconds(seconds: float) -> str:
    if seconds <= 0.0:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _bar(fraction: float, width: int = 10) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def _shard_rows(snapshot: dict[str, Any]) -> list[str]:
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    sketches = snapshot.get("sketches", {})
    shards = sorted(
        labels["shard"]
        for labels, _ in _find(gauges, "serving_shard_queue_depth")
        if "shard" in labels
    )
    if not shards:
        return []
    rows = [
        f"  {'shard':<10} {'depth':>5} {'saturation':>12} {'admit':>7} "
        f"{'reject':>7} {'served':>7} {'failed':>7} "
        f"{'p50':>8} {'p99':>8} {'p999':>8}"
    ]
    for shard in shards:
        saturation = _value(gauges, "serving_shard_saturation", shard=shard)
        e2e = _find(sketches, "serving_e2e_seconds", shard=shard)
        p50 = p99 = p999 = 0.0
        if e2e:
            entry = e2e[0][1]
            p50, p99, p999 = entry["p50"], entry["p99"], entry["p999"]
        rows.append(
            f"  {shard:<10} "
            f"{_value(gauges, 'serving_shard_queue_depth', shard=shard):>5.0f} "
            f"{_bar(saturation)} {saturation * 100:>3.0f}% "
            f"{_value(counters, 'serving_queries_admitted_total', shard=shard):>7.0f} "
            f"{_value(counters, 'serving_queries_rejected_total', shard=shard):>7.0f} "
            f"{_value(counters, 'serving_queries_served_total', shard=shard):>7.0f} "
            f"{_value(counters, 'serving_queries_failed_total', shard=shard):>7.0f} "
            f"{_fmt_seconds(p50):>8} {_fmt_seconds(p99):>8} {_fmt_seconds(p999):>8}"
        )
    return rows


def _slo_rows(snapshot: dict[str, Any]) -> list[str]:
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    budgets = _find(gauges, "slo_budget_remaining")
    if not budgets:
        return []
    rows = [
        f"  {'objective':<14} {'scope':<26} {'budget left':>12} "
        f"{'burn(fast)':>11} {'burn(slow)':>11} {'alerts':>7}"
    ]
    for labels, entry in budgets:
        objective = labels.get("objective", "?")
        scope = ",".join(
            f"{k}={v}" for k, v in sorted(labels.items()) if k != "objective"
        ) or "(fleet)"
        scoped = {k: v for k, v in labels.items()}
        burn_fast = _value(gauges, "slo_burn_rate", window="fast", **scoped)
        burn_slow = _value(gauges, "slo_burn_rate", window="slow", **scoped)
        alerts = _value(counters, "slo_burn_alerts_total", **scoped)
        remaining = float(entry["value"])
        flag = " !" if remaining < 0.0 or alerts else ""
        rows.append(
            f"  {objective:<14} {scope:<26} {remaining:>11.1%} "
            f"{burn_fast:>11.2f} {burn_slow:>11.2f} {alerts:>7.0f}{flag}"
        )
    return rows


def _client_rows(snapshot: dict[str, Any]) -> list[str]:
    sketches = snapshot.get("sketches", {})
    counters = snapshot.get("counters", {})
    frames = _find(sketches, "span_frame_seconds")
    if not frames:
        return []
    entry = frames[0][1]
    # Channel-labeled counters: sum every label set.
    degraded = sum(
        float(e["value"]) for _, e in _find(counters, "queries_degraded_total")
    )
    abandoned = sum(
        float(e["value"]) for _, e in _find(counters, "queries_abandoned_total")
    )
    return [
        f"  frames={entry['count']:.0f} "
        f"p50={_fmt_seconds(entry['p50'])} p99={_fmt_seconds(entry['p99'])} "
        f"p999={_fmt_seconds(entry['p999'])} "
        f"degraded={degraded:.0f} abandoned={abandoned:.0f}"
    ]


def _event_rows(events: list[dict[str, Any]], count: int = 8) -> list[str]:
    rows = []
    for record in events[-count:]:
        detail = " ".join(
            f"{k}={v}"
            for k, v in record.items()
            if k not in ("seq", "ts", "kind", "trace_id", "span_id")
        )
        trace = record.get("trace_id")
        suffix = f" [trace {trace}]" if trace else ""
        rows.append(f"  #{record.get('seq', '?'):>4} {record['kind']:<20} {detail}{suffix}")
    return rows


def render_dashboard(
    snapshot: dict[str, Any],
    events: list[dict[str, Any]] | None = None,
    title: str = "repro top",
) -> str:
    """One dashboard frame as a string (pure function of its inputs)."""
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    served = sum(
        float(e["value"]) for _, e in _find(counters, "serving_queries_served_total")
    )
    rejected = sum(
        float(e["value"])
        for _, e in _find(counters, "serving_queries_rejected_total")
    )
    failed = sum(
        float(e["value"]) for _, e in _find(counters, "serving_queries_failed_total")
    )
    alerts = sum(
        float(e["value"]) for _, e in _find(counters, "slo_burn_alerts_total")
    )
    lines = [
        f"=== {title} " + "=" * max(1, 66 - len(title)),
        f"  venues={_value(gauges, 'serving_venues'):.0f} "
        f"shards={_value(gauges, 'serving_shards'):.0f} "
        f"served={served:.0f} rejected={rejected:.0f} failed={failed:.0f} "
        f"burn_alerts={alerts:.0f}",
    ]
    shard_rows = _shard_rows(snapshot)
    if shard_rows:
        lines.append("--- shards " + "-" * 60)
        lines.extend(shard_rows)
    slo_rows = _slo_rows(snapshot)
    if slo_rows:
        lines.append("--- slo " + "-" * 63)
        lines.extend(slo_rows)
    client_rows = _client_rows(snapshot)
    if client_rows:
        lines.append("--- client " + "-" * 60)
        lines.extend(client_rows)
    if events:
        lines.append("--- events " + "-" * 60)
        lines.extend(_event_rows(events))
    return "\n".join(lines)


def _load_events(path: str | None) -> list[dict[str, Any]]:
    if path is None or not Path(path).exists():
        return []
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail line of a file being appended to
    return records


def run_top(
    metrics_path: str,
    events_path: str | None = None,
    interval_seconds: float = 2.0,
    iterations: int | None = None,
    plain: bool = False,
) -> int:
    """Watch ``metrics_path`` and repaint the dashboard until interrupted.

    ``iterations`` bounds the number of frames (``None`` = run until
    Ctrl-C); ``plain`` forces the print path even on a tty.  Returns a
    shell exit code.
    """
    import sys

    use_curses = not plain and sys.stdout.isatty()
    screen = None
    if use_curses:
        try:
            import curses

            screen = curses.initscr()
            curses.noecho()
            curses.cbreak()
        except Exception:
            screen = None

    def frame() -> str:
        try:
            with open(metrics_path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            return f"=== repro top ===\n  waiting for {metrics_path} ({error})"
        return render_dashboard(
            snapshot,
            events=_load_events(events_path),
            title=f"repro top — {metrics_path}",
        )

    painted = 0
    try:
        while iterations is None or painted < iterations:
            text = frame()
            if screen is not None:
                screen.erase()
                try:
                    screen.addstr(0, 0, text + "\n\n  (Ctrl-C to quit)")
                except Exception:
                    pass  # terminal smaller than the frame
                screen.refresh()
            else:
                print(text, flush=True)
            painted += 1
            if iterations is not None and painted >= iterations:
                break
            time.sleep(interval_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        if screen is not None:
            import curses

            curses.nocbreak()
            curses.echo()
            curses.endwin()
    return 0
