"""Benchmark configuration.

Each ``bench_*.py`` regenerates one paper artifact through its
``repro.evaluation.experiments`` driver and prints the same rows/series
the paper reports, while pytest-benchmark times the run.  Results use
reduced-but-representative workload sizes so the whole suite finishes in
minutes; pass ``--full-scale`` for the paper-scale workloads recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.parallel import default_workers

# The parity benches time the library against the test-only references
# in tests/*_reference.py, imported as the ``tests`` package from the
# repository root.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

# Session-wide trajectory rows, keyed by output filename; each non-empty
# entry is written at session end so future PRs can track the curves.
_TRAJECTORIES: dict[str, dict[str, dict]] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--full-scale",
        action="store_true",
        default=False,
        help="run paper-scale workloads (slow; used for EXPERIMENTS.md)",
    )


@pytest.fixture(scope="session")
def full_scale(request) -> bool:
    return request.config.getoption("--full-scale")


@pytest.fixture(autouse=True)
def metrics_registry():
    """Fresh contextual registry per benchmark.

    Components a benchmark constructs report into this registry (see
    :func:`repro.obs.use_registry`), keeping runs isolated from each
    other and giving benchmark bodies a registry to assert against.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry


@pytest.fixture(scope="session")
def parallel_trajectory() -> dict[str, dict]:
    """Mutable dict the parallel benchmarks fill with timing rows."""
    return _TRAJECTORIES.setdefault("BENCH_parallel.json", {})


@pytest.fixture(scope="session")
def obs_trace_trajectory() -> dict[str, dict]:
    """Mutable dict the tracing-overhead benchmark fills with timing rows."""
    return _TRAJECTORIES.setdefault("BENCH_obs_trace.json", {})


@pytest.fixture(scope="session")
def faults_trajectory() -> dict[str, dict]:
    """Mutable dict the fault-injection benchmarks fill with rows."""
    return _TRAJECTORIES.setdefault("BENCH_faults.json", {})


@pytest.fixture(scope="session")
def store_trajectory() -> dict[str, dict]:
    """Mutable dict the snapshot-store benchmarks fill with rows."""
    return _TRAJECTORIES.setdefault("BENCH_store.json", {})


@pytest.fixture(scope="session")
def serving_trajectory() -> dict[str, dict]:
    """Mutable dict the serving-layer benchmarks fill with rows."""
    return _TRAJECTORIES.setdefault("BENCH_serving.json", {})


@pytest.fixture(scope="session")
def sift_trajectory() -> dict[str, dict]:
    """Mutable dict the SIFT hot-path benchmarks fill with rows."""
    return _TRAJECTORIES.setdefault("BENCH_sift.json", {})


@pytest.fixture(scope="session")
def lsh_trajectory() -> dict[str, dict]:
    """Mutable dict the LSH lookup benchmarks fill with rows."""
    return _TRAJECTORIES.setdefault("BENCH_lsh.json", {})


@pytest.fixture(scope="session")
def localize_trajectory() -> dict[str, dict]:
    """Mutable dict the venue read-path benchmark fills with rows."""
    return _TRAJECTORIES.setdefault("BENCH_localize.json", {})


@pytest.fixture(scope="session")
def loadgen_trajectory() -> dict[str, dict]:
    """Mutable dict the fleet load-test benchmarks fill with rows."""
    return _TRAJECTORIES.setdefault("BENCH_loadgen.json", {})


def pytest_sessionfinish(session, exitstatus):
    """Emit one BENCH_*.json per trajectory the session filled.

    Wall-clock numbers are host-dependent; ``host_cpus`` records how
    much parallel hardware produced them, so a 1-core CI runner's
    pool-overhead numbers aren't mistaken for a regression against a
    16-core workstation's.
    """
    repo_root = Path(__file__).resolve().parent.parent
    for filename, rows in _TRAJECTORIES.items():
        if not rows:
            continue
        payload = {
            "host_cpus": default_workers(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "benchmarks": dict(sorted(rows.items())),
        }
        out_path = repo_root / filename
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
