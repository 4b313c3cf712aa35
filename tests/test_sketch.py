"""Tests for the streaming quantile sketch (repro.obs.sketch).

Covers: relative-accuracy bounds against exact numpy quantiles, the
zero bucket, merge correctness and order independence, registry
integration (accessor, state round-trip, JSON/Prometheus rendering, a
snapshot identical across ``PYTHONHASHSEED`` values), bit-identical serial vs
``workers=N`` merge-back through :func:`repro.parallel.parallel_map`,
and the hypothesis property holding merged quantiles to the rank-error
bound of sorted-sample ground truth.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_QUANTILES,
    MetricsRegistry,
    QuantileSketch,
    use_registry,
)
from repro.parallel import parallel_map
from repro.util.rng import rng_for
from tests.prometheus_reference import parse_prometheus


def _exact(values, q: float) -> float:
    """The ground-truth sample quantile under the sketch's rank convention."""
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[int(q * (len(ordered) - 1))])


def _assert_same_sketch(a: QuantileSketch, b: QuantileSketch) -> None:
    """Bucket-exact equality; the float ``sum`` only to the last ulp.

    Bucket counts merge by integer addition (exactly order-independent);
    the running float sum is subject to addition order, so partitioned
    runs may differ from serial in the final bit.
    """
    a_state, b_state = a.state(), b.state()
    a_sum, b_sum = a_state.pop("sum"), b_state.pop("sum")
    assert a_state == b_state
    assert a_sum == pytest.approx(b_sum, rel=1e-12)


# ---------------------------------------------------------------------------
# Worker bodies must be module-level so the pool can pickle them.
# ---------------------------------------------------------------------------


def _observe_latency(value: float) -> float:
    from repro.obs import resolve_registry

    resolve_registry(None).sketch("wk_latency_seconds").observe(value)
    return value


class TestQuantileSketch:
    def test_quantiles_within_relative_accuracy(self):
        rng = rng_for(7, "test-sketch/lognormal")
        values = rng.lognormal(mean=-3.0, sigma=1.2, size=5000)
        sketch = QuantileSketch("latency", relative_accuracy=0.01)
        for value in values:
            sketch.observe(value)
        for q in DEFAULT_QUANTILES:
            exact = _exact(values, q)
            assert sketch.quantile(q) == pytest.approx(exact, rel=0.01)

    def test_quantiles_batch_matches_scalar(self):
        rng = rng_for(8, "test-sketch/batch")
        sketch = QuantileSketch("latency")
        for value in rng.uniform(1e-4, 10.0, size=400):
            sketch.observe(value)
        batch = sketch.quantiles((0.1, 0.5, 0.99))
        for q, value in batch.items():
            assert value == sketch.quantile(q)

    def test_empty_sketch_reports_zero(self):
        sketch = QuantileSketch("latency")
        assert sketch.count == 0
        assert sketch.quantile(0.99) == 0.0
        assert sketch.to_dict()["p50"] == 0.0

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch("latency").observe(-0.1)

    def test_invalid_quantile_rejected(self):
        sketch = QuantileSketch("latency")
        sketch.observe(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            sketch.quantiles((0.5, -0.1))

    def test_invalid_relative_accuracy_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch("latency", relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch("latency", relative_accuracy=1.0)

    def test_zero_bucket(self):
        sketch = QuantileSketch("latency")
        for _ in range(9):
            sketch.observe(0.0)
        sketch.observe(5.0)
        assert sketch.count == 10
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(5.0, rel=0.01)

    def test_mean_min_max(self):
        sketch = QuantileSketch("latency")
        for value in (1.0, 2.0, 3.0):
            sketch.observe(value)
        assert sketch.mean == pytest.approx(2.0)
        d = sketch.to_dict()
        assert d["min"] == 1.0 and d["max"] == 3.0

    def test_reset(self):
        sketch = QuantileSketch("latency")
        sketch.observe(1.0)
        sketch.reset()
        assert sketch.count == 0 and sketch.num_buckets == 0


class TestSketchMerge:
    def test_merge_equals_serial(self):
        rng = rng_for(9, "test-sketch/merge")
        values = rng.lognormal(mean=-2.0, sigma=1.0, size=2000)
        serial = QuantileSketch("latency")
        for value in values:
            serial.observe(value)
        left = QuantileSketch("latency")
        right = QuantileSketch("latency")
        for value in values[:700]:
            left.observe(value)
        for value in values[700:]:
            right.observe(value)
        merged = QuantileSketch("latency")
        merged.merge_state(left.state())
        merged.merge_state(right.state())
        _assert_same_sketch(merged, serial)

    def test_merge_order_independent(self):
        rng = rng_for(10, "test-sketch/order")
        parts = [rng.uniform(1e-4, 5.0, size=300) for _ in range(4)]
        sketches = []
        for part in parts:
            sketch = QuantileSketch("latency")
            for value in part:
                sketch.observe(value)
            sketches.append(sketch)
        forward = QuantileSketch("latency")
        for sketch in sketches:
            forward.merge_state(sketch.state())
        backward = QuantileSketch("latency")
        for sketch in reversed(sketches):
            backward.merge_state(sketch.state())
        assert forward.state() == backward.state()

    def test_merge_accuracy_mismatch_rejected(self):
        coarse = QuantileSketch("latency", relative_accuracy=0.05)
        fine = QuantileSketch("latency", relative_accuracy=0.01)
        coarse.observe(1.0)
        with pytest.raises(ValueError):
            fine.merge_state(coarse.state())

    @settings(deadline=None, max_examples=40)
    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e4),
            min_size=2,
            max_size=300,
        ),
        num_parts=st.integers(min_value=1, max_value=5),
    )
    def test_merged_quantiles_within_rank_error_of_ground_truth(
        self, values, num_parts
    ):
        """Split → sketch each part → merge: every reported quantile stays
        within the sketch's relative accuracy of the exact sorted-sample
        value at that rank, and matches the serial sketch exactly."""
        serial = QuantileSketch("latency")
        for value in values:
            serial.observe(value)
        merged = QuantileSketch("latency")
        for chunk in np.array_split(np.asarray(values), num_parts):
            part = QuantileSketch("latency")
            for value in chunk:
                part.observe(value)
            merged.merge_state(part.state())
        _assert_same_sketch(merged, serial)
        for q in DEFAULT_QUANTILES:
            exact = _exact(values, q)
            assert merged.quantile(q) == pytest.approx(exact, rel=0.011)


_SNAPSHOT_SCRIPT = """
import json
from repro.obs import MetricsRegistry
worker = MetricsRegistry()
for i in range(5000):
    worker.sketch("span_query_seconds", venue=f"v{i % 7}").observe(((i * 7919) % 5000) / 1000.0)
registry = MetricsRegistry()
registry.sketch("span_query_seconds", venue="v0").observe(0.5)
registry.merge_state(worker.state())
print(json.dumps([registry.to_dict(), registry.to_prometheus()]))
"""


class TestRegistrySketch:
    def test_snapshot_identical_across_hash_seeds(self):
        # Labelled sketches merged from a worker state, rendered as JSON
        # and Prometheus text: nothing may depend on the per-process str
        # hash salt.
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            completed = subprocess.run(
                [sys.executable, "-c", _SNAPSHOT_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0][0]["sketches"]["span_query_seconds{venue=v0}"]["count"] == 716

    def test_accessor_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.sketch("e2e_seconds", shard="s0")
        b = registry.sketch("e2e_seconds", shard="s0")
        assert a is b

    def test_state_round_trip(self):
        registry = MetricsRegistry()
        registry.sketch("e2e_seconds").observe(0.25)
        other = MetricsRegistry()
        other.merge_state(registry.state())
        assert other.sketch("e2e_seconds").count == 1
        assert other.sketch("e2e_seconds").quantile(0.5) == pytest.approx(
            0.25, rel=0.01
        )

    def test_to_dict_sketches_section(self):
        registry = MetricsRegistry()
        registry.sketch("e2e_seconds", shard="s0").observe(0.1)
        snapshot = registry.to_dict()
        entry = snapshot["sketches"]["e2e_seconds{shard=s0}"]
        assert entry["count"] == 1
        assert entry["p99"] == pytest.approx(0.1, rel=0.01)

    def test_prometheus_renders_quantile_samples(self):
        registry = MetricsRegistry()
        sketch = registry.sketch("e2e_seconds")
        for value in (0.1, 0.2, 0.3):
            sketch.observe(value)
        samples = parse_prometheus(registry.to_prometheus())
        names = {name for name, _, _ in samples}
        assert "e2e_seconds" in names
        assert "e2e_seconds_count" in names
        count = next(v for n, l, v in samples if n == "e2e_seconds_count")
        assert count == 3.0

    def test_disabled_registry_noops(self):
        registry = MetricsRegistry(enabled=False)
        sketch = registry.sketch("e2e_seconds")
        sketch.observe(1.0)
        assert "sketches" not in registry.to_dict() or not registry.to_dict().get(
            "sketches"
        )


class TestParallelSketchMerge:
    def _run(self, workers: int) -> MetricsRegistry:
        rng = rng_for(11, "test-sketch/parallel")
        values = list(rng.lognormal(mean=-2.5, sigma=1.0, size=60))
        registry = MetricsRegistry()
        with use_registry(registry):
            parallel_map(_observe_latency, values, workers=workers)
        return registry

    def test_serial_and_pooled_states_identical(self):
        serial = self._run(workers=1)
        pooled = self._run(workers=3)
        _assert_same_sketch(
            serial.sketch("wk_latency_seconds"),
            pooled.sketch("wk_latency_seconds"),
        )
        assert serial.sketch("wk_latency_seconds").count == 60

    def test_pooled_quantiles_match_ground_truth(self):
        rng = rng_for(11, "test-sketch/parallel")
        values = list(rng.lognormal(mean=-2.5, sigma=1.0, size=60))
        pooled = self._run(workers=4).sketch("wk_latency_seconds")
        for q in DEFAULT_QUANTILES:
            assert pooled.quantile(q) == pytest.approx(_exact(values, q), rel=0.011)
