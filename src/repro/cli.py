"""Command-line interface: ``python -m repro <experiment> [--fast]``.

Runs one paper-figure driver (or all of them) and prints the series the
paper reports.  ``--fast`` shrinks workloads for a quick look.

Every experiment runs inside a :func:`repro.obs.use_registry` scope, so
clients, oracles, servers, and the channel model all report into one
:class:`repro.obs.MetricsRegistry`.  ``--metrics-json PATH`` writes the
snapshot as JSON (and prints a compact metrics summary);
``--metrics-prom PATH`` writes the Prometheus text rendering.

Tracing rides the same scope: any of ``--trace-out`` (Chrome
trace-event JSON for ``chrome://tracing``/Perfetto), ``--trace-ndjson``
(structured event log), or ``--flight-recorder K`` (print the K slowest
query traces with full span trees) installs a
:class:`repro.obs.TraceCollector` around the run — worker spans ship
back through :mod:`repro.parallel`, so ``--workers N`` loses nothing.

``python -m repro metrics-diff BASELINE CURRENT`` is the perf gate: it
compares two ``--metrics-json`` snapshots against tolerance thresholds
and exits nonzero on regression (see :mod:`repro.obs.diff`).

``python -m repro verify-state PATH`` is the integrity gate: it audits
saved server state (an ``.npz`` file or a snapshot-store directory),
exits nonzero on any corruption, and with ``--rebuild-venue`` can
reconstruct unrecoverable state from a fresh wardrive (see
:mod:`repro.store.fsck`).

``python -m repro loadtest`` runs the open-loop fleet load test
(:mod:`repro.loadgen`): millions of simulated users with Poisson/bursty
arrivals, mobility sessions, and Zipf venue popularity replayed against
the serving layer's shard queues (hot-venue replication included) in
simulated time, reporting p50/p99/p999 latency, shed fraction, and
sustained queries/sec/core to ``--out`` (default ``BENCH_loadgen.json``).

``python -m repro serve --state DIR`` boots the multi-venue
:class:`repro.serving.ServingFrontend` over saved venue state (one
snapshot store per venue) and drives synthetic localization queries
through it; it shares the observability flags above, plus
``--shards``/``--workers``/``--queue-depth``/``--admission`` for the
serving topology and ``--bootstrap N`` to synthesize venues first.

SLOs and events ride the same shared flags: ``--slo-report PATH``
tracks the default latency/availability objectives (see
:mod:`repro.obs.slo`) over every served query and writes the
budget/burn report; ``--events-ndjson PATH`` records structured events
(admission rejects, degradation steps, retry exhaustion, snapshot
quarantines, topology changes) with trace correlation.  ``python -m
repro top METRICS.json`` is the live dashboard over a snapshot being
rewritten by a running fleet, and ``python -m repro slo-report PATH``
renders budget/burn tables from either artifact (``--fail-on-alerts``
makes it a CI gate).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator

from repro.obs import (
    EventLog,
    MetricsRegistry,
    SloTracker,
    TraceCollector,
    default_objectives,
    diff_metrics,
    format_report,
    format_trace,
    parse_metric_key,
    run_top,
    slowest_traces,
    use_collector,
    use_event_log,
    use_registry,
    use_slo_tracker,
    write_chrome_trace,
    write_ndjson,
)

from repro.evaluation.experiments import (
    adaptive_offload,
    fig2_fps,
    fig3_keypoints,
    fig5_feature_ratio,
    fig6_dimension_stats,
    fig13_precision_recall,
    fig14_upload,
    fig15_memory,
    fig16_latency,
    fig18_energy,
    fig19_localization,
    fig20_error_axes,
    latency_e2e,
    takeaways_exp,
)

__all__ = ["main"]

_EXPERIMENTS = {
    "adaptive": adaptive_offload,
    "latency": latency_e2e,
    "fig2": fig2_fps,
    "fig3": fig3_keypoints,
    "fig5": fig5_feature_ratio,
    "fig6": fig6_dimension_stats,
    "fig13": fig13_precision_recall,
    "fig14": fig14_upload,
    "fig15": fig15_memory,
    "fig16": fig16_latency,
    "fig18": fig18_energy,
    "fig19": fig19_localization,
    "fig20": fig20_error_axes,
    "takeaways": takeaways_exp,
}

# Experiments whose run()/main() accept a workers= fan-out parameter.
_WORKERS_AWARE = {"fig13", "fig14", "fig16", "latency"}

# Experiments whose run()/main() accept faults= / retry= (chaos runs).
_FAULT_AWARE = {"fig13", "fig14", "fig16", "latency"}

# Experiments whose run() accepts serving= (route queries through a
# ServingFrontend with that many shards; bit-identical to the direct path).
_SERVING_AWARE = {"fig13", "fig16"}

_FAST_PARAMS: dict[str, dict] = {
    "adaptive": dict(queries=240),
    "fig2": dict(num_frames=6, image_size=160),
    "fig3": dict(num_images=12, image_size=160),
    "fig5": dict(num_images=12, image_size=160),
    "fig6": dict(num_scenes=6, num_distractors=10, image_size=160, cache_dir=None),
    "fig13": dict(
        num_scenes=10,
        num_distractors=30,
        views_per_scene=3,
        image_size=224,
        small_count=60,
        large_count=150,
        random_count=150,
        include_bruteforce=False,
        cache_dir=None,
    ),
    "fig14": dict(duration_seconds=20.0, image_size=192, fingerprint_size=30),
    "fig16": dict(num_frames=6, image_size=224),
    "fig18": dict(duration_seconds=10.0),
    "fig19": dict(venues=("office",), queries_per_venue=8),
    "fig20": dict(venues=("office",), queries_per_venue=8),
}


def _print_summary(result: object, indent: str = "  ") -> None:
    """Compact recursive rendering of a driver's result dict."""
    import numpy as np

    if not isinstance(result, dict):
        print(f"{indent}{result}")
        return
    for key, value in result.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_summary(value, indent + "  ")
        elif isinstance(value, np.ndarray) and value.size > 6:
            print(
                f"{indent}{key}: n={value.size} median={np.median(value):.3g} "
                f"p90={np.percentile(value, 90):.3g}"
            )
        else:
            print(f"{indent}{key}: {value}")


def _print_metrics_summary(registry: MetricsRegistry) -> None:
    """Compact per-instrument rendering of a run's metrics registry."""
    print("=== metrics " + "=" * 49)
    for instrument in registry.instruments():
        label = instrument.name
        if instrument.labels:
            label += (
                "{"
                + ",".join(f"{k}={v}" for k, v in sorted(instrument.labels.items()))
                + "}"
            )
        if instrument.kind == "sketch":
            quantiles = instrument.quantiles()
            print(
                f"  {label}: n={instrument.count} "
                f"p50={quantiles[0.5]:.4g} p99={quantiles[0.99]:.4g} "
                f"p999={quantiles[0.999]:.4g} sum={instrument.sum:.4g}"
            )
        else:
            print(f"  {label}: {instrument.value:.6g}")


def _run_metrics_diff(argv: list[str]) -> int:
    """The ``metrics-diff`` subcommand: gate CURRENT against BASELINE."""
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics-diff",
        description="Compare two --metrics-json snapshots; exit 1 on regression.",
    )
    parser.add_argument("baseline", help="baseline metrics JSON (the contract)")
    parser.add_argument("current", help="current metrics JSON to check")
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.25,
        help="relative tolerance per scalar (default 0.25)",
    )
    parser.add_argument(
        "--abs-tol",
        type=float,
        default=0.0,
        help="absolute tolerance per scalar (default 0)",
    )
    parser.add_argument(
        "--include",
        action="append",
        metavar="GLOB",
        default=None,
        help="restrict the contract to baseline scalars matching GLOB "
        "(repeatable; default: every baseline scalar)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.current, "r", encoding="utf-8") as handle:
        current = json.load(handle)
    num_checked, violations = diff_metrics(
        baseline,
        current,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        include=args.include,
    )
    print(format_report(num_checked, violations))
    return 1 if violations else 0


def _run_verify_state(argv: list[str]) -> int:
    """The ``verify-state`` subcommand: fsck for saved server state."""
    parser = argparse.ArgumentParser(
        prog="python -m repro verify-state",
        description="Audit a saved-state .npz file or a SnapshotStore "
        "directory; exit 0 only when every generation verifies.",
    )
    parser.add_argument(
        "path", help="state file (.npz) or snapshot-store directory to audit"
    )
    parser.add_argument(
        "--rebuild-venue",
        default=None,
        metavar="VENUE",
        help="if nothing verifies, re-wardrive this venue (e.g. 'office') "
        "and commit a fresh generation",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the rebuild wardrive (default 0)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of the human rendering",
    )
    args = parser.parse_args(argv)
    # Imported lazily: the store stack is not needed for experiment runs.
    from repro.store.fsck import verify_state

    report = verify_state(
        args.path, rebuild_venue=args.rebuild_venue, seed=args.seed
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _run_top(argv: list[str]) -> int:
    """The ``top`` subcommand: live dashboard over a metrics snapshot."""
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Watch a --metrics-json snapshot (being rewritten by a "
        "running fleet) as a live serving dashboard: per-shard saturation "
        "and latency quantiles, SLO budgets/burn, recent events.",
    )
    parser.add_argument("metrics", help="metrics JSON path to watch")
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="NDJSON event log to tail alongside (an --events-ndjson output)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="repaint period (default 2.0)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="paint N frames then exit (default: run until Ctrl-C)",
    )
    parser.add_argument(
        "--plain",
        action="store_true",
        help="print frames to stdout instead of the curses UI",
    )
    args = parser.parse_args(argv)
    return run_top(
        args.metrics,
        events_path=args.events,
        interval_seconds=args.interval,
        iterations=args.iterations,
        plain=args.plain,
    )


def _render_slo_report(report: dict) -> str:
    """Human rendering of an ``slo_report.json`` (SloTracker.report())."""
    lines = []
    for objective in report.get("objectives", ()):
        header = (
            f"objective {objective['name']} ({objective['kind']}, "
            f"target {objective['target']:.3%}"
        )
        if objective.get("threshold_seconds") is not None:
            header += f" within {objective['threshold_seconds']:g}s"
        header += f", window {objective['window_seconds']:g}s)"
        lines.append(header)
        scopes = objective.get("scopes", ())
        if not scopes:
            lines.append("  (no recorded events)")
            continue
        lines.append(
            f"  {'scope':<28} {'events':>7} {'bad':>5} {'err':>7} "
            f"{'burn':>7} {'budget left':>12} {'alerts':>7}"
        )
        for scope in scopes:
            scope_label = ",".join(
                f"{k}={v}" for k, v in sorted(scope["scope"].items())
            ) or "(fleet)"
            flag = " !" if scope["alerting"] or scope["alerts_fired"] else ""
            lines.append(
                f"  {scope_label:<28} {scope['window_events']:>7} "
                f"{scope['window_bad']:>5} {scope['error_rate']:>6.2%} "
                f"{scope['burn_rate']:>7.2f} {scope['budget_remaining']:>11.1%} "
                f"{scope['alerts_fired']:>7}{flag}"
            )
    lines.append(f"alerts fired: {report.get('alerts_fired', 0)}")
    return "\n".join(lines)


def _run_slo_report(argv: list[str]) -> int:
    """The ``slo-report`` subcommand: budget/burn tables from JSON."""
    parser = argparse.ArgumentParser(
        prog="python -m repro slo-report",
        description="Render SLO budget/burn tables from an slo_report.json "
        "(a --slo-report artifact) or from a --metrics-json snapshot "
        "containing slo_* gauges.",
    )
    parser.add_argument(
        "path", help="slo_report.json or metrics JSON snapshot to render"
    )
    parser.add_argument(
        "--fail-on-alerts",
        action="store_true",
        help="exit 1 when any burn alert fired (the CI smoke gate)",
    )
    args = parser.parse_args(argv)
    with open(args.path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    print("=== slo report " + "=" * 46)
    if "objectives" in data:
        print(_render_slo_report(data))
        alerts = int(data.get("alerts_fired", 0))
    else:
        from repro.obs.top import _slo_rows

        rows = _slo_rows(data)
        if rows:
            print("\n".join(rows))
        else:
            print("  no SLO gauges in this snapshot (run with --slo-report)")
        alerts = int(
            sum(
                float(entry["value"])
                for key, entry in data.get("counters", {}).items()
                if parse_metric_key(key)[0] == "slo_burn_alerts_total"
            )
        )
        print(f"alerts fired: {alerts}")
    return 1 if args.fail_on_alerts and alerts else 0


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (experiment subcommands + serve)."""
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write the run's metrics registry to PATH as JSON "
        "and print a metrics summary",
    )
    parser.add_argument(
        "--metrics-prom",
        metavar="PATH",
        default=None,
        help="write the run's metrics registry to PATH in Prometheus text format",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the run's query traces to PATH as Chrome trace-event "
        "JSON (load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--trace-ndjson",
        metavar="PATH",
        default=None,
        help="write the run's spans to PATH as newline-delimited JSON",
    )
    parser.add_argument(
        "--flight-recorder",
        type=int,
        default=0,
        metavar="K",
        help="retain and print the K slowest query traces with full span trees",
    )
    parser.add_argument(
        "--slo-report",
        metavar="PATH",
        default=None,
        help="track SLOs (latency + availability, default objectives) "
        "during the run and write the budget/burn report to PATH as JSON",
    )
    parser.add_argument(
        "--events-ndjson",
        metavar="PATH",
        default=None,
        help="record structured events (admission rejects, degradation "
        "steps, retry exhaustion, quarantines, topology changes) and "
        "write them to PATH as newline-delimited JSON",
    )


@contextlib.contextmanager
def _obs_session(args) -> Iterator[MetricsRegistry]:
    """Run the body under the sinks the shared obs flags ask for.

    Builds the run's registry and whichever trace collector, event log
    and SLO tracker the flags need, installs them as the contextual
    defaults (the event log before the SLO tracker, so burn alerts the
    tracker raises land in the log), and writes every requested artifact
    once the body exits normally.  A body that raises writes nothing.
    """
    registry = MetricsRegistry()
    collector = (
        TraceCollector(registry=registry)
        if args.trace_out or args.trace_ndjson or args.flight_recorder > 0
        else None
    )
    events = EventLog(registry=registry) if args.events_ndjson else None
    slo = (
        SloTracker(default_objectives(), registry=registry)
        if args.slo_report
        else None
    )
    with contextlib.ExitStack() as stack:
        stack.enter_context(use_registry(registry))
        if collector is not None:
            stack.enter_context(use_collector(collector))
        if events is not None:
            stack.enter_context(use_event_log(events))
        if slo is not None:
            stack.enter_context(use_slo_tracker(slo))
        yield registry
    if collector is not None:
        _write_traces(args, collector)
    if args.metrics_json or args.metrics_prom:
        _print_metrics_summary(registry)
    if args.metrics_json:
        registry.write_json(args.metrics_json)
        print(f"metrics JSON written to {args.metrics_json}")
    if args.metrics_prom:
        with open(args.metrics_prom, "w", encoding="utf-8") as handle:
            handle.write(registry.to_prometheus())
        print(f"metrics Prometheus text written to {args.metrics_prom}")
    if slo is not None:
        slo.write_json(args.slo_report)
        print(
            f"SLO report ({slo.alerts_fired} burn alerts) "
            f"written to {args.slo_report}"
        )
    if events is not None:
        events.write_ndjson(args.events_ndjson)
        print(
            f"event NDJSON ({len(events)} events, {events.dropped} dropped) "
            f"written to {args.events_ndjson}"
        )


def _write_traces(args, collector: TraceCollector) -> None:
    """Emit the span artifacts and the flight recorder the flags ask for."""
    num_spans = sum(1 for _ in collector.spans())
    traces = collector.traces()
    if args.trace_out:
        write_chrome_trace(collector.roots, args.trace_out)
        print(
            f"chrome trace ({len(traces)} traces, "
            f"{num_spans} spans) written to {args.trace_out}"
        )
    if args.trace_ndjson:
        write_ndjson(collector.roots, args.trace_ndjson)
        print(f"span NDJSON ({num_spans} spans) written to {args.trace_ndjson}")
    if args.flight_recorder > 0:
        k = args.flight_recorder
        slowest = slowest_traces(traces, k)
        print("=== flight recorder " + "=" * 41)
        print(
            f"  {len(slowest)}/{k} slowest traces retained, "
            f"{max(0, len(traces) - k)} evicted"
        )
        for trace in slowest:
            for line in format_trace(trace).splitlines():
                print(f"  {line}")


def _bootstrap_venues(root, count: int, seed: int) -> list[str]:
    """Create ``count`` small synthetic venues under ``root``, one store each.

    Each venue (:func:`repro.serving.synthetic.synthetic_venue_server`)
    is committed through its generational snapshot store, so a
    bootstrapped state directory is indistinguishable from one produced
    by real ingest + save.
    """
    from repro.core.persistence import ServerStateStore
    from repro.serving.synthetic import synthetic_venue_server
    from repro.util.rng import rng_for

    names = []
    for index in range(count):
        name = f"venue-{index}"
        server = synthetic_venue_server(rng_for(seed, f"serve/bootstrap/{name}"))
        ServerStateStore(root / name).save(server)
        names.append(name)
    return names


def _run_serve(argv: list[str]) -> int:
    """The ``serve`` subcommand: boot the frontend over saved venue state."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Boot the multi-venue ServingFrontend over saved venue "
        "state (one snapshot store per venue under --state) and drive "
        "synthetic localization queries through it.",
    )
    parser.add_argument(
        "--state",
        required=True,
        metavar="DIR",
        help="venue state root: one snapshot-store directory per venue",
    )
    parser.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        metavar="N",
        help="first create N small synthetic venues under --state "
        "(default: serve whatever venues already exist there)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="shards on the consistent-hash ring (default 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="1 = inline shard execution (deterministic); >1 = one "
        "process per shard, engines restored from --state in-worker",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=8,
        metavar="N",
        help="synthetic localization queries to serve, round-robin "
        "across venues (default 8)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="bounded per-shard admission queue (default 64)",
    )
    parser.add_argument(
        "--admission",
        choices=("wait", "reject"),
        default="wait",
        help="backpressure policy when a shard queue fills (default wait)",
    )
    parser.add_argument(
        "--channel",
        default="lte",
        metavar="NAME",
        help="uplink preset to price each query's upload on (default lte)",
    )
    parser.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(parser)
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.network import resolve_channel
    from repro.serving import ServingFrontend, load_venue_server
    from repro.serving.synthetic import synthetic_query
    from repro.util.rng import rng_for

    channel = resolve_channel(args.channel)
    root = Path(args.state)
    if args.bootstrap <= 0:
        names = sorted(
            p.name
            for p in root.iterdir()
            if p.is_dir() and any(p.glob("gen-*"))
        ) if root.is_dir() else []
        if not names:
            print(f"no venues found under {root} (try --bootstrap N)")
            return 2
    with _obs_session(args) as registry:
        if args.bootstrap > 0:
            names = _bootstrap_venues(root, args.bootstrap, args.seed)
            print(f"bootstrapped {len(names)} venue(s) under {root}")
        frontend = ServingFrontend(
            num_shards=args.shards,
            workers=args.workers,
            queue_depth=args.queue_depth,
            admission=args.admission,
            seed=args.seed,
            registry=registry,
        )
        # The parent restores every venue once: inline shards serve
        # these copies directly; process shards rebuild their own from
        # the store (EngineSpec), and the parent copies only feed
        # query synthesis.
        servers = {
            name: load_venue_server(root, name, registry=registry)
            for name in names
        }
        for name in names:
            if args.workers > 1:
                frontend.register_venue(
                    name, frontend.venues.spec_for_stored_venue(name, root)
                )
            else:
                frontend.register_venue(name, servers[name])
        rng = rng_for(args.seed, "serve/queries")
        items = []
        for index in range(args.queries):
            name = names[index % len(names)]
            items.append((name, synthetic_query(servers[name], rng)))
        answers = frontend.map_many(items)
        transfer_rng = rng_for(args.seed, "serve/uplink")
        for (_, fingerprint), _answer in zip(items, answers):
            channel.transfer_seconds(fingerprint.upload_bytes, transfer_rng)
        localized = sum(1 for answer in answers if answer.matched_points > 0)
        print(
            f"served {len(answers)} queries over {len(names)} venue(s) on "
            f"{args.shards} shard(s) (workers={args.workers}, "
            f"channel={args.channel}): {localized} localized"
        )
        for shard_id, venues in sorted(frontend.placement().items()):
            print(f"  {shard_id}: {', '.join(venues) if venues else '(empty)'}")
        frontend.close()
    return 0


def _run_loadtest(argv: list[str]) -> int:
    """The ``loadtest`` subcommand: open-loop fleet load test in sim time."""
    parser = argparse.ArgumentParser(
        prog="python -m repro loadtest",
        description="Simulate an open-loop fleet of users (Poisson arrivals, "
        "burst envelope, mobility sessions, Zipf venue popularity) against "
        "the serving layer's shard queues with hot-venue replication, and "
        "report tail latency, shed fraction, and per-core throughput.",
    )
    parser.add_argument(
        "--users", type=int, default=20000, help="simulated devices (default 20000)"
    )
    parser.add_argument(
        "--venues", type=int, default=100, help="deployed venues (default 100)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=60.0,
        metavar="SEC",
        help="simulated run length (default 60)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=0.05,
        metavar="QPS",
        help="mean per-user query rate in the calm state (default 0.05)",
    )
    parser.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        metavar="S",
        help="venue popularity exponent, P(rank k) ~ (k+1)^-S (default 1.1)",
    )
    parser.add_argument(
        "--session-queries",
        type=float,
        default=4.0,
        metavar="N",
        help="mean queries per mobility session (default 4)",
    )
    parser.add_argument(
        "--burst-multiplier",
        type=float,
        default=1.0,
        metavar="X",
        help="flash-crowd rate multiplier while bursting (default 1 = off)",
    )
    parser.add_argument(
        "--burst-dwell",
        type=float,
        default=0.0,
        metavar="SEC",
        help="mean burst-state dwell; 0 disables the envelope (default 0)",
    )
    parser.add_argument(
        "--calm-dwell",
        type=float,
        default=60.0,
        metavar="SEC",
        help="mean calm-state dwell between bursts (default 60)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard queues (default 4)"
    )
    parser.add_argument(
        "--replication-factor",
        type=int,
        default=1,
        metavar="R",
        help="shards serving each venue; >1 spreads hot venues (default 1)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="bounded per-shard admission queue (default 64)",
    )
    parser.add_argument(
        "--channel",
        default=None,
        metavar="NAME",
        help="price each query's uplink on this channel preset before "
        "admission (Python-loop cost: use at thousands scale, not millions)",
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        metavar="P",
        help="per-attempt uplink loss probability (needs --channel)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="shape the uplink leg with the predictive link-quality "
        "policy (entry rung / retry budget before each query; needs "
        "--channel)",
    )
    parser.add_argument(
        "--calibrate",
        action="store_true",
        help="measure real service times through a live frontend instead of "
        "the seeded synthetic model (wall-clock: not bit-identical)",
    )
    parser.add_argument(
        "--service-mean",
        type=float,
        default=0.02,
        metavar="SEC",
        help="mean of the synthetic lognormal service model (default 0.02)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="arrival-generation worker processes (bit-identical to serial)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI scale: cap the simulated duration at 5 s",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_loadgen.json",
        help="write the load-test report JSON here (default BENCH_loadgen.json)",
    )
    _add_obs_arguments(parser)
    args = parser.parse_args(argv)

    from repro.core import ServerConfig
    from repro.loadgen import (
        TrafficModel,
        calibrate_service_seconds,
        run_loadtest,
        synthetic_service_seconds,
    )

    duration = min(args.duration, 5.0) if args.fast else args.duration
    model = TrafficModel(
        users=args.users,
        venues=args.venues,
        duration_seconds=duration,
        rate_per_user=args.rate,
        zipf_exponent=args.zipf,
        session_queries=args.session_queries,
        burst_multiplier=args.burst_multiplier,
        burst_dwell_seconds=args.burst_dwell,
        calm_dwell_seconds=args.calm_dwell,
    )
    cluster = ServerConfig(
        num_shards=args.shards,
        queue_depth=args.queue_depth,
        replication_factor=args.replication_factor,
        seed=args.seed,
    )
    channel = None
    if args.channel is not None:
        from repro.network import resolve_channel
        from repro.network.faults import FaultyChannel

        channel = FaultyChannel(
            resolve_channel(args.channel), loss=args.loss, seed=args.seed
        )
    if args.adaptive and channel is None:
        print("--adaptive needs --channel")
        return 2
    if args.calibrate:
        service_samples = calibrate_service_seconds(seed=args.seed)
    else:
        service_samples = synthetic_service_seconds(
            seed=args.seed, mean_seconds=args.service_mean
        )

    with _obs_session(args) as registry:
        report = run_loadtest(
            model,
            cluster,
            seed=args.seed,
            workers=args.workers,
            service_samples=service_samples,
            channel=channel,
            adaptive=args.adaptive,
            registry=registry,
        )
        latency = report["latency_seconds"]
        print(
            f"offered {report['offered']} queries from {args.users} users over "
            f"{duration:g} s sim: served {report['served']}, "
            f"shed {report['shed']} ({report['shed_fraction']:.1%}), "
            f"abandoned {report['abandoned']}"
        )
        print(
            f"latency p50/p99/p999: {latency['p50'] * 1e3:.1f} / "
            f"{latency['p99'] * 1e3:.1f} / {latency['p999'] * 1e3:.1f} ms"
        )
        print(
            f"sustained {report['queries_per_second']:.1f} qps on "
            f"{args.shards} shard(s) x{args.replication_factor} replication "
            f"= {report['queries_per_second_per_core']:.1f} qps/core, "
            f"hot venue share {report['hot_venue_share']:.1%}"
        )
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"load-test report written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Dispatch the snapshot-comparison subcommand before the experiment
    # parser: it takes file paths, not an experiment name.
    if argv and argv[0] == "metrics-diff":
        return _run_metrics_diff(argv[1:])
    if argv and argv[0] == "verify-state":
        return _run_verify_state(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "loadtest":
        return _run_loadtest(argv[1:])
    if argv and argv[0] == "top":
        return _run_top(argv[1:])
    if argv and argv[0] == "slo-report":
        return _run_slo_report(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce a figure from 'Low Bandwidth Offload for Mobile AR'.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shrink workloads for a quick (less faithful) run",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="process-pool width for experiments with parallel hot paths "
        f"({', '.join(sorted(_WORKERS_AWARE))}); results are bit-identical "
        "to --workers 1 (0 = all available cores)",
    )
    parser.add_argument(
        "--serving",
        type=int,
        default=None,
        metavar="SHARDS",
        help="route query loops through a ServingFrontend with SHARDS "
        f"shards ({', '.join(sorted(_SERVING_AWARE))}); inline workers, "
        "bit-identical to the direct path",
    )
    faults_group = parser.add_argument_group(
        "fault injection",
        "wrap the experiment's channel in a seeded FaultyChannel and "
        f"retry under a backoff policy ({', '.join(sorted(_FAULT_AWARE))})",
    )
    faults_group.add_argument(
        "--channel-loss",
        type=float,
        default=None,
        metavar="P",
        help="per-attempt packet-loss probability in the good link state",
    )
    faults_group.add_argument(
        "--channel-outage",
        type=float,
        default=None,
        metavar="P",
        help="per-attempt probability of entering a transient outage "
        "(Gilbert–Elliott good→bad transition)",
    )
    faults_group.add_argument(
        "--retry-attempts",
        type=int,
        default=None,
        metavar="N",
        help="max transfer attempts per query (default 4)",
    )
    faults_group.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help="base exponential-backoff pause before the first retry "
        "(default 0.05)",
    )
    faults_group.add_argument(
        "--retry-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query simulated latency budget before abandoning "
        "(default 30)",
    )
    _add_obs_arguments(parser)
    args = parser.parse_args(argv)

    workers = args.workers
    if workers == 0:
        from repro.parallel import default_workers

        workers = default_workers()

    # Any fault/retry flag opts the run into the recovery path; the
    # spec defaults unset probabilities to 0 so e.g. --retry-attempts
    # alone retries over a fault-free channel (and stays bit-identical
    # to a plain run — zero-fault parity).
    fault_args = (
        args.channel_loss,
        args.channel_outage,
        args.retry_attempts,
        args.retry_backoff,
        args.retry_budget,
    )
    fault_kwargs: dict = {}
    if any(value is not None for value in fault_args):
        from repro.network import FaultSpec, RetryPolicy

        policy_overrides = {}
        if args.retry_attempts is not None:
            policy_overrides["max_attempts"] = args.retry_attempts
        if args.retry_backoff is not None:
            policy_overrides["base_backoff_seconds"] = args.retry_backoff
        if args.retry_budget is not None:
            policy_overrides["budget_seconds"] = args.retry_budget
        fault_kwargs = {
            "faults": FaultSpec(
                loss=args.channel_loss or 0.0,
                outage_enter=args.channel_outage or 0.0,
            ),
            "retry": RetryPolicy(**policy_overrides),
        }

    # A silently ignored --serving would look like a passing parity run
    # that never exercised the serving layer; `all` is exempt (the flag
    # applies to whichever experiments in the sweep support it).
    if (
        args.serving is not None
        and args.experiment != "all"
        and args.experiment not in _SERVING_AWARE
    ):
        print(
            f"--serving is not supported by {args.experiment} "
            f"(supported: {', '.join(sorted(_SERVING_AWARE))})"
        )
        return 2

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    with _obs_session(args):
        for name in names:
            module = _EXPERIMENTS[name]
            extra = {"workers": workers} if name in _WORKERS_AWARE else {}
            if name in _FAULT_AWARE:
                extra.update(fault_kwargs)
            if args.serving is not None and name in _SERVING_AWARE:
                extra["serving"] = args.serving
            print(f"=== {name} " + "=" * max(1, 60 - len(name)))
            if args.fast and name in _FAST_PARAMS:
                result = module.run(**_FAST_PARAMS[name], **extra)
                _print_summary(result)
            else:
                module.main(**extra)
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
