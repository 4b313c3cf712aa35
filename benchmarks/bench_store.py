"""Durable-state trajectory: snapshot-store cost.

Two measurements land in BENCH_store.json:

* ``generational_roundtrip`` — :class:`ServerStateStore` save+load
  wall-clock per generation (atomic staging, fsyncs, manifest, full
  verification on the way back in).
* ``rollback_scan`` — loading with the newest generation corrupted: the
  price of detecting the bad generation and falling back to last-good.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core import VisualPrintConfig, VisualPrintServer
from repro.core.persistence import ServerStateStore
from repro.store import StorageFaultInjector
from repro.util.rng import rng_for
from repro.wardrive.environment import random_sift_descriptor

_NUM_DESCRIPTORS = 3000
_REPEATS = 5


def _benchmark_server() -> VisualPrintServer:
    rng = rng_for(2016, "bench/store")
    config = VisualPrintConfig(descriptor_capacity=50_000, fingerprint_size=10)
    server = VisualPrintServer(
        config, bounds=(np.zeros(3), np.array([30.0, 30.0, 3.0]))
    )
    descriptors = np.array(
        [random_sift_descriptor(rng) for _ in range(_NUM_DESCRIPTORS)]
    )
    server.ingest(descriptors, rng.uniform(0, 30, (_NUM_DESCRIPTORS, 3)))
    return server


def _min_seconds(run, repeats: int = _REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def test_generational_roundtrip(store_trajectory, tmp_path, benchmark):
    server = _benchmark_server()
    root = tmp_path / "store"

    def roundtrip():
        ServerStateStore(root).save(server)
        return ServerStateStore(root).load()

    restored, loaded = benchmark.pedantic(roundtrip, rounds=_REPEATS, iterations=1)
    roundtrip_seconds = benchmark.stats.stats.min
    assert loaded.rolled_back == 0
    assert np.array_equal(
        restored.oracle.counting.counters, server.oracle.counting.counters
    )
    store_trajectory["generational_roundtrip"] = {
        "descriptors": _NUM_DESCRIPTORS,
        "roundtrip_seconds": round(roundtrip_seconds, 5),
        "generations_kept": ServerStateStore(root).store.keep_generations,
    }
    print()
    print(f"  generational save+load: {roundtrip_seconds * 1e3:.1f} ms")


def test_rollback_scan(store_trajectory, tmp_path, benchmark):
    server = _benchmark_server()
    root = tmp_path / "store"
    store = ServerStateStore(root)
    store.save(server)
    newest = store.save(server)
    clean_seconds = _min_seconds(lambda: ServerStateStore(root).load())
    StorageFaultInjector(seed=3).corrupt_file(
        root / f"gen-{newest:06d}" / "counters.npy"
    )

    def rolled_back_load():
        return ServerStateStore(root).load()

    _restored, loaded = benchmark.pedantic(
        rolled_back_load, rounds=_REPEATS, iterations=1
    )
    rollback_seconds = benchmark.stats.stats.min
    assert loaded.rolled_back == 1
    store_trajectory["rollback_scan"] = {
        "descriptors": _NUM_DESCRIPTORS,
        "clean_load_seconds": round(clean_seconds, 5),
        "rollback_load_seconds": round(rollback_seconds, 5),
        "rollback_penalty_ratio": round(
            rollback_seconds / max(clean_seconds, 1e-9), 2
        ),
    }
    print()
    print(
        f"  rollback load: {rollback_seconds * 1e3:.1f} ms "
        f"({rollback_seconds / max(clean_seconds, 1e-9):.2f}x clean)"
    )


def test_trajectory_is_json_serializable(store_trajectory):
    json.dumps(store_trajectory)
