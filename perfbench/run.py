"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload lossy_ingest_mix --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics: the set-up three times
(reporting the median), then the open loop in segments with a
closed-loop burst before, between and after them.  ``--trace 1`` sets
up once and drives the same seeded traffic (``--seconds`` / 2 of it)
twice, untraced then traced, and reports the per-layer metrics plus the
tracing overhead between the two passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.  ``--profile-out PATH`` additionally
writes the measured per-request engine service times as a JSON profile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

#: How each metric is measured.  wall = host wall clock, wall+sim = wall
#: clock including simulated link seconds slept for real, sim =
#: simulated seconds, count = counted.  Names and units come from
#: ``BENCHMARK.json``.
TAGS = {
    "setup_s": "wall",
    "query_p50_ms": "wall+sim",
    "query_tail_ms": "wall+sim",
    "slo_met_frac": "wall+sim",
    "answered_frac": "count",
    "peak_qps": "wall",
    "uplink_bytes_per_query": "count",
    "rss_peak_mb": "count",
    "client.sift_share": "wall",
    "client.oracle_ms": "wall",
    "client.serialize_ms": "wall",
    "client.kept_frac": "count",
    "network.uplink_sim_p50_ms": "sim",
    "network.uplink_sim_tail_ms": "sim",
    "network.attempts_per_query": "count",
    "network.wasted_bytes_per_query": "count",
    "network.delivered_frac": "count",
    "network.degraded_frac": "count",
    "network.submit_us": "wall",
    "serving.queue_wait_mean_ms": "wall",
    "serving.queued_frac": "wall",
    "serving.dispatch_ms": "wall",
    "serving.busy_frac": "wall",
    "lsh.query_ms": "wall",
    "lsh.matches_per_query": "count",
    "localization.cluster_share": "wall",
    "localization.solve_share": "wall",
    "localization.clustered_frac": "count",
    "localization.converged_per_query": "count",
    "server.engine_ms": "wall",
    "server.self_ms": "wall",
    "server.ingest_share": "wall",
    "wardrive.session_s": "wall",
    "setup.build_s": "wall",
    "store.save_s": "wall",
    "store.load_s": "wall",
    "setup.boot_s": "wall",
    "driver.lag_tail_ms": "wall",
    "trace.overhead_frac": "wall",
    "trace.unaccounted_frac": "wall",
}


def declared(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _single_threaded_blas() -> None:
    """One BLAS thread per process: the driver and the worker each own a CPU.

    Left at its default, OpenBLAS starts a thread per CPU in both
    processes, and the two pools contend for the host's CPUs.  Must run
    before numpy is imported.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile-out", type=Path, default=None)
    return parser.parse_args(argv)


def _require_program() -> Path:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {src}/repro; run from a full checkout"
        )
    sys.path[:0] = [str(src), str(ROOT)]
    return src


def _run(args: argparse.Namespace, src: Path) -> tuple[dict, list[str], dict]:
    """Returns (metrics, problems, details) for one run."""
    from perfbench import driver, report
    from perfbench.engines import peak_rss_kib
    from perfbench.spans import SpanLog
    from perfbench.workloads import WORKLOADS, load_surveys, make_inputs, scene_library

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_build" / "perfbench"
    work = scratch / f"run-{os.getpid()}"
    surveys = library = None
    if workload.kind == "venue":
        surveys = load_surveys(src / "repro", scratch / "cache")
    else:
        library = scene_library()
    # A traced run drives its traffic twice, so each pass gets half the time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    spares = 0 if args.trace else workload.bursts * workload.burst_size
    inputs = make_inputs(workload, args.seed, seconds, surveys, library, spares)
    deployments = []
    details: dict = {}
    try:
        if not args.trace:
            timings = []
            for repeat in range(SETUP_REPEATS):
                if deployments:
                    deployments.pop().close()
                deployments.append(driver.set_up(workload, work / f"setup{repeat}", surveys))
                timings.append(deployments[-1].timings)
            deployment = deployments[-1]
            bursts = driver.prepare_bursts(workload, deployment, inputs)
            records, saturation = driver.offer_between_bursts(
                workload, deployment, inputs, args.seed, bursts
            )
            replays = [r for burst, _ in saturation for r in burst]
            peak = report.peak_rate(saturation)
            rss = peak_rss_kib() + driver.worker_private_kib(workload, deployment)
            problems = report.check(records, workload.kind, deployment.bounds)
            problems += [
                f"saturation: {p}"
                for p in report.check(replays, workload.kind, deployment.bounds)
            ]
            metrics = report.end_to_end(
                records,
                workload.slo_ms / 1e3,
                [t["setup_s"] for t in timings],
                peak,
                rss,
            )
            details.update(
                setups=[round(t["setup_s"], 3) for t in timings],
                burst_rates=[round(len(report.answered(b)) / s, 3) for b, s in saturation],
                engine_seconds=[
                    r.engine_end - r.engine_start
                    for r in report.answered(records + replays)
                    if r.kind == "read"
                ],
            )
        else:
            deployment = driver.set_up(workload, work / "setup", surveys)
            deployments.append(deployment)
            untraced = driver.offer(workload, deployment, inputs, args.seed)
            deployments.pop().close()
            frontend, _ = driver.boot(workload, work / "setup", traced=True)
            traced_deployment = driver.Deployment(
                frontend, deployment.oracles, deployment.configs, deployment.bounds, {}
            )
            deployments.append(traced_deployment)
            records = driver.offer(workload, traced_deployment, inputs, args.seed, SpanLog())
            problems = report.check(untraced, workload.kind, deployment.bounds)
            problems += report.check(records, workload.kind, deployment.bounds)
            metrics = report.per_layer(records, workload.kind)
            metrics["trace.overhead_frac"] = (
                report.work_seconds(records) / report.work_seconds(untraced) - 1.0
            )
            timings = deployment.timings
            metrics.update(
                {
                    "wardrive.session_s": (
                        statistics.median(inputs.wardrive_s) if inputs.wardrive_s else 0.0
                    ),
                    "setup.build_s": timings["build_s"],
                    "store.save_s": timings["save_s"],
                    "store.load_s": timings["load_s"],
                    "setup.boot_s": timings["boot_s"],
                }
            )
            if metrics["trace.unaccounted_frac"] > report.BUDGET_TOLERANCE:
                problems.append(
                    "layer self times leave "
                    f"{metrics['trace.unaccounted_frac']:.1%} of end-to-end time unexplained"
                )
            details["layers"] = _layer_table(records)
    finally:
        for deployment in deployments:
            deployment.close()
        shutil.rmtree(work, ignore_errors=True)
    reads = report.reads(records)
    counts = report.outcome_counts(reads)
    writes = report.outcome_counts([r for r in records if r.kind == "write"])
    latency = report.latency_summary(records)
    details.update(
        counts=counts,
        writes=writes,
        latency=latency,
        accuracy=report.accuracy(records, workload.kind),
        failed_frac=(counts["shed"] + counts["failed"] + counts["abandoned"]) / counts["offered"],
        attempted=len(records),
        failed=counts["shed"] + counts["failed"] + writes["shed"] + writes["failed"],
    )
    return metrics, problems, details


def _layer_table(records) -> dict[str, float]:
    """Mean self time per layer along the blocking path, in ms."""
    from perfbench import report

    done = report.answered(report.reads(records))
    waits = report.queue_waits(records)
    parts = [report.layer_times(r, waits[r.index]) for r in done]
    table = {name: sum(p[name] for p in parts) / len(parts) * 1e3 for name in parts[0]}
    table["end_to_end"] = sum(r.latency for r in done) / len(done) * 1e3
    return table


def _print_report(args, metrics: dict, problems: list[str], details: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} host_cpus={os.cpu_count()}")
    counts = details["counts"]
    print(
        f"reads offered {counts['offered']}: answered {counts['answered']}, "
        f"shed {counts['shed']}, failed {counts['failed']}, abandoned {counts['abandoned']}"
        f"  (failed_frac {details['failed_frac']:.4f})"
    )
    if details["writes"]["offered"]:
        print(f"writes: {details['writes']}")
    latency = details["latency"]
    if latency["tail_percentile"]:
        print(
            f"latency sample {latency['count']} offered reads (unanswered = late): tail = "
            f"p{latency['tail_percentile']} (highest percentile with >= 10 beyond)"
        )
    for name, value in details["accuracy"].items():
        print(f"  {name:<34} {value:>14.4f} {'m' if name.endswith('_m') else '1':<6} [count]")
    units = declared(args.trace)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {units[name]:<6} [{TAGS[name]}]")
    if "layers" in details:
        print("blocking-path self times, mean ms per answered read:")
        for name, value in details["layers"].items():
            print(f"  {name:<34} {value:>14.4f}")
    if "setups" in details:
        print(f"set-up repeats (s): {details['setups']}")
        print(f"closed-loop burst rates (1/s): {details['burst_rates']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")


def _write_profile(path: Path, args, details: dict) -> None:
    samples = sorted(details["engine_seconds"])
    profile = {
        "workload": args.workload,
        "tag": "wall",
        "unit": "s",
        "what": "per-request engine service time measured inside the shard worker",
        "host_cpus": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "samples": [round(s, 6) for s in samples],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(profile, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = _require_program()
    _single_threaded_blas()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    metrics, problems, details = _run(args, src)
    problems += [f"{name} could not be measured" for name, v in metrics.items() if not math.isfinite(v)]
    units = declared(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(set(metrics) ^ set(units))} "
            "differ from what BENCHMARK.json declares"
        )
    _print_report(args, metrics, problems, details)
    if args.profile_out is not None and not args.trace:
        _write_profile(args.profile_out, args, details)
    result = {
        "correct": not problems,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
