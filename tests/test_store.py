"""Tests for the crash-safe snapshot store and the integrity ladder.

Covers the four legs of the state-integrity model (DESIGN.md §10):
atomic checksummed generations with last-good rollback
(:class:`repro.store.SnapshotStore`), seeded storage fault injection
(:class:`repro.store.StorageFaultInjector`), swap-in validation of
downloaded oracle payloads (the refresher's quarantine path), and the
``verify-state`` fsck.  The hypothesis property at the bottom is the
headline invariant: any single injected fault is either *detected* or
the restore is *byte-identical* — corrupted state is never silently
served.
"""

from __future__ import annotations

import gzip
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bloom import (
    CountingBloomFilter,
    SnapshotCorruptError,
    VerificationBloomFilter,
    deserialize_counting,
    deserialize_verification,
    serialize_counting,
    serialize_verification,
)
from repro.core import VisualPrintConfig, VisualPrintServer
from repro.core.oracle import UniquenessOracle
from repro.core.persistence import ServerStateStore
from repro.core.updates import (
    OracleRefresher,
    apply_delta,
    apply_snapshot,
    choose_refresh_payload,
    diff_counting_filters,
)
from repro.obs import MetricsRegistry, use_registry
from repro.store import (
    CHECKSUM_ALGO,
    SnapshotStore,
    StorageFaultInjector,
    StorageFaultSpec,
    checksum_bytes,
    checksum_named,
    verify_state,
)
from repro.wardrive.environment import random_sift_descriptor


def _small_server(rng, num_descriptors: int = 80) -> VisualPrintServer:
    config = VisualPrintConfig(descriptor_capacity=2048, fingerprint_size=10)
    bounds = (np.zeros(3), np.array([10.0, 10.0, 3.0]))
    server = VisualPrintServer(config, bounds=bounds)
    descriptors = np.array(
        [random_sift_descriptor(rng) for _ in range(num_descriptors)]
    )
    positions = rng.uniform(0, 10, (num_descriptors, 3))
    server.ingest(descriptors, positions)
    return server


class TestSnapshotStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        sections = {"a.bin": b"alpha" * 100, "b.bin": b"\x00\xff" * 50}
        generation = store.save(sections, metadata={"note": "first"})
        loaded = store.load()
        assert loaded.generation == generation
        assert loaded.sections == sections
        assert loaded.metadata == {"note": "first"}
        assert loaded.rolled_back == 0

    def test_generations_and_retention(self, tmp_path):
        store = SnapshotStore(tmp_path / "store", keep_generations=2)
        for index in range(4):
            store.save({"s.bin": bytes([index]) * 16})
        assert store.generations() == [3, 4]
        assert store.load().sections["s.bin"] == bytes([3]) * 16

    def test_section_name_validation(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.save({})
        with pytest.raises(ValueError):
            store.save({"../escape": b"x"})
        with pytest.raises(ValueError):
            store.save({"MANIFEST.json": b"x"})

    def test_rollback_to_last_good(self, tmp_path):
        registry = MetricsRegistry()
        store = SnapshotStore(tmp_path / "store", registry=registry)
        store.save({"s.bin": b"good" * 64})
        store.save({"s.bin": b"newer" * 64})
        StorageFaultInjector(seed=3).corrupt_file(
            tmp_path / "store" / "gen-000002" / "s.bin"
        )
        loaded = store.load()
        assert loaded.generation == 1
        assert loaded.sections["s.bin"] == b"good" * 64
        assert loaded.rolled_back == 1
        assert loaded.skipped[0].generation == 2
        assert registry.counter("store_rollbacks_total").value == 1
        assert (
            registry.counter("store_loads_total", outcome="rolled_back").value
            == 1
        )

    def test_every_generation_corrupt_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.save({"s.bin": b"x" * 256})
        injector = StorageFaultInjector(seed=5)
        injector.corrupt_file(tmp_path / "store" / "gen-000001" / "s.bin")
        with pytest.raises(SnapshotCorruptError, match="every generation"):
            store.load()

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(SnapshotCorruptError):
            SnapshotStore(tmp_path / "store").load()

    def test_manifest_tamper_detected(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.save({"s.bin": b"x" * 64}, metadata={"k": 1})
        manifest_path = tmp_path / "store" / "gen-000001" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metadata"]["k"] = 2  # lie without updating manifest_crc
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2))
        report = store.verify_generation(1)
        assert not report.ok
        with pytest.raises(SnapshotCorruptError):
            store.load()

    def test_truncated_section_detected_by_length(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.save({"s.bin": b"y" * 512})
        section = tmp_path / "store" / "gen-000001" / "s.bin"
        section.write_bytes(section.read_bytes()[:100])
        report = store.verify_generation(1)
        assert not report.ok
        assert any("length" in p for p in report.problems)

    def test_stale_rename_leaves_previous_generation_current(self, tmp_path):
        registry = MetricsRegistry()
        store = SnapshotStore(tmp_path / "store", registry=registry)
        store.save({"s.bin": b"committed"})
        with use_registry(registry):
            store.fault_injector = StorageFaultInjector(
                stale_rename=1.0, seed=1
            )
            store.save({"s.bin": b"lost-to-crash"})
        assert store.generations() == [1]
        assert store.load().sections["s.bin"] == b"committed"
        assert (
            registry.counter(
                "snapshot_faults_injected_total", kind="stale_rename"
            ).value
            == 1
        )
        # The staged directory is swept by the next (healthy) save.
        store.fault_injector = None
        store.save({"s.bin": b"recovered"})
        assert not list(Path(tmp_path / "store").glob(".tmp-*"))
        assert store.load().sections["s.bin"] == b"recovered"

    def test_mangled_write_is_always_detected(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = SnapshotStore(
                tmp_path / "store",
                fault_injector=StorageFaultInjector(bit_flip=1.0, seed=2),
                registry=registry,
            )
            store.save({"s.bin": b"z" * 300})
        report = store.verify_generation(1)
        assert not report.ok  # manifest CRCs are of the true bytes
        assert registry.counter("store_snapshots_corrupt_total").value >= 1


class TestStorageFaultInjector:
    def test_null_spec_is_identity(self):
        injector = StorageFaultInjector()
        data = b"payload" * 20
        assert injector.mangle(data, "x") == (data, None)
        assert injector.drop_rename("x") is False
        assert injector.faults_injected == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StorageFaultSpec(bit_flip=1.5)
        with pytest.raises(ValueError):
            StorageFaultSpec(max_bit_flips=0)
        with pytest.raises(ValueError):
            StorageFaultInjector(StorageFaultSpec(), bit_flip=0.5)

    def test_deterministic_given_seed(self):
        a = StorageFaultInjector(bit_flip=0.5, truncate=0.5, seed=11)
        b = StorageFaultInjector(bit_flip=0.5, truncate=0.5, seed=11)
        data = bytes(range(256)) * 4
        for _ in range(20):
            assert a.mangle(data, "x") == b.mangle(data, "x")

    def test_gating_isolates_streams(self):
        # Enabling truncation must not shift the bit-flip draw sequence.
        flips_only = StorageFaultInjector(bit_flip=0.4, seed=9)
        flips_and_tears = StorageFaultInjector(
            bit_flip=0.4, torn_write=0.0, seed=9
        )
        data = b"q" * 128
        for _ in range(30):
            assert flips_only.mangle(data, "x") == flips_and_tears.mangle(
                data, "x"
            )

    def test_corrupt_file_changes_bytes(self, tmp_path):
        target = tmp_path / "victim.bin"
        original = bytes(range(256))
        for kind in ("bit_flip", "truncate", "torn_write"):
            target.write_bytes(original)
            StorageFaultInjector(seed=4).corrupt_file(target, kind=kind)
            assert target.read_bytes() != original
        with pytest.raises(ValueError):
            StorageFaultInjector(seed=4).corrupt_file(target, kind="stale_rename")

    def test_faults_counted_in_registry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            injector = StorageFaultInjector(truncate=1.0, seed=6)
            injector.mangle(b"w" * 64, "x")
        assert (
            registry.counter(
                "snapshot_faults_injected_total", kind="truncate"
            ).value
            == 1
        )
        assert injector.faults_injected == 1


class TestContainerHardening:
    def test_counting_body_length_mismatch_rejected(self):
        bloom = CountingBloomFilter(num_counters=256, num_hashes=4)
        bloom.add(np.arange(160, dtype=np.uint8).reshape(10, 16))
        raw = gzip.decompress(serialize_counting(bloom).payload)
        for cut in (1, 37):
            with pytest.raises(SnapshotCorruptError, match="body"):
                deserialize_counting(gzip.compress(raw[:-cut]))

    def test_counting_header_validation(self):
        def _craft(header: dict, body: bytes = b"") -> bytes:
            blob = json.dumps(header).encode("utf-8")
            return gzip.compress(
                b"VPBF" + struct.pack("<BI", 1, len(blob)) + blob + body
            )

        with pytest.raises(SnapshotCorruptError, match="magic"):
            deserialize_counting(gzip.compress(b"NOPE" + b"\x00" * 16))
        with pytest.raises(SnapshotCorruptError, match="num_counters"):
            deserialize_counting(_craft({"num_counters": -1}))
        with pytest.raises(SnapshotCorruptError, match="max 16"):
            deserialize_counting(
                _craft(
                    {
                        "num_counters": 8,
                        "num_hashes": 2,
                        "bits_per_counter": 32,
                    }
                )
            )
        with pytest.raises(SnapshotCorruptError, match="GZIP"):
            deserialize_counting(b"not gzip at all")

    def test_verification_roundtrip(self):
        bloom = VerificationBloomFilter(num_bits=4096, num_hashes=3, seed=77)
        rng = np.random.default_rng(0)
        bloom.add(rng.integers(0, 256, (50, 16)))
        snapshot = serialize_verification(bloom)
        restored = deserialize_verification(snapshot, seed=77)
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes
        assert restored.packed_bytes() == bloom.packed_bytes()

    def test_verification_body_length_mismatch_rejected(self):
        bloom = VerificationBloomFilter(num_bits=4096, num_hashes=3)
        raw = gzip.decompress(serialize_verification(bloom).payload)
        with pytest.raises(SnapshotCorruptError, match="body"):
            deserialize_verification(gzip.compress(raw[:-5]))


class TestRestoreApis:
    def test_restore_counts_validation(self, rng):
        oracle = UniquenessOracle(VisualPrintConfig(descriptor_capacity=2048))
        good = np.zeros(oracle.counting.num_counters, dtype=np.uint16)
        with pytest.raises(SnapshotCorruptError, match="shape"):
            oracle.restore_counts(good[:-1])
        with pytest.raises(SnapshotCorruptError, match="integers"):
            oracle.restore_counts(good.astype(np.float64))
        bad = good.copy().astype(np.int64)
        bad[0] = oracle.counting.saturation + 1
        with pytest.raises(SnapshotCorruptError, match="outside"):
            oracle.restore_counts(bad)
        with pytest.raises(SnapshotCorruptError, match="negative"):
            oracle.restore_counts(good, inserted_count=-1)
        with pytest.raises(SnapshotCorruptError, match="verification"):
            oracle.restore_counts(good, verification_bits=b"\x00")

    def test_restore_counts_roundtrip(self, rng):
        config = VisualPrintConfig(descriptor_capacity=2048)
        source = UniquenessOracle(config)
        descriptors = np.array([random_sift_descriptor(rng) for _ in range(60)])
        source.insert(descriptors)
        clone = UniquenessOracle(config)
        clone.restore_counts(
            source.counting.counters,
            verification_bits=source.verification.packed_bytes(),
            inserted_count=60,
        )
        assert np.array_equal(clone.counting.counters, source.counting.counters)
        for a, b in zip(
            clone.lookup_batch(descriptors), source.lookup_batch(descriptors)
        ):
            assert a.count == b.count and a.present == b.present

    def test_restore_state_validation(self, rng):
        server = VisualPrintServer(VisualPrintConfig(descriptor_capacity=2048))
        descriptors = np.ones((5, 128), dtype=np.float32)
        positions = np.zeros((5, 3))
        with pytest.raises(SnapshotCorruptError, match="misaligned"):
            server.restore_state(descriptors, positions[:-1])
        with pytest.raises(SnapshotCorruptError, match="2-D"):
            server.restore_state(descriptors.ravel(), positions)
        with pytest.raises(SnapshotCorruptError, match="3"):
            server.restore_state(descriptors, np.zeros((5, 2)))
        bad = positions.copy()
        bad[0, 0] = np.nan
        with pytest.raises(SnapshotCorruptError, match="finite"):
            server.restore_state(descriptors, bad)
        with pytest.raises(SnapshotCorruptError, match="bounds"):
            server.restore_state(
                descriptors, positions, bounds=(np.zeros(2), np.ones(3))
            )
        assert server.num_mappings == 0  # nothing was mutated


def _oversaturated_delta(base: CountingBloomFilter) -> bytes:
    """A well-formed VPDT delta writing 65535 into counter 0."""
    raw = struct.pack(
        "<4sIIIIIq",
        b"VPDT",
        2,
        base.num_counters,
        1,
        base.num_hashes,
        base.bits_per_counter,
        base.hash_seed,
    )
    raw += np.array([0], dtype="<u4").tobytes()
    raw += np.array([65535], dtype="<u2").tobytes()
    return gzip.compress(raw)


def _flip_crc_bit(payload: bytes) -> bytes:
    """Flip one bit of the GZIP trailer's CRC32: always detectable."""
    damaged = bytearray(payload)
    damaged[-5] ^= 0x10
    return bytes(damaged)


class _Substitute:
    """Download fault hook that delivers ``payload`` in place of the real one."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def mangle(self, data: bytes, label: str = "") -> tuple[bytes, str]:
        return self.payload, "substitute"


class TestRefresherRejection:
    def _oracle_pair(self, rng):
        config = VisualPrintConfig(descriptor_capacity=2048)
        client = UniquenessOracle(config)
        server = UniquenessOracle(config)
        server.insert(
            np.array([random_sift_descriptor(rng) for _ in range(40)])
        )
        return client, server

    def test_zero_faults_applies_cleanly(self, rng):
        client, server = self._oracle_pair(rng)
        refresher = OracleRefresher(client, registry=MetricsRegistry())
        report = refresher.refresh(server)
        assert report.status == "applied"
        assert np.array_equal(client.counting.counters, server.counting.counters)
        assert refresher.quarantined == []

    def test_corrupt_download_is_quarantined(self, rng):
        client, server = self._oracle_pair(rng)
        registry = MetricsRegistry()
        refresher = OracleRefresher(
            client,
            registry=registry,
            fault_injector=StorageFaultInjector(bit_flip=1.0, seed=13),
        )
        before = client.counting.counters.copy()
        report = refresher.refresh(server, now_seconds=30.0)
        assert report.status == "rejected"
        assert np.array_equal(client.counting.counters, before)  # stale serve
        assert len(refresher.quarantined) == 1
        assert refresher.quarantined[0].kind == report.kind
        rejected = registry.counter(
            "oracle_snapshots_rejected_total", kind=report.kind
        )
        assert rejected.value == 1
        assert registry.gauge("oracle_staleness_seconds").value == 30.0
        wasted = registry.counter(
            "network_wasted_bytes_total", channel="download"
        )
        assert wasted.value == report.payload_bytes

    def test_quarantine_ring_is_bounded(self, rng):
        client, server = self._oracle_pair(rng)
        refresher = OracleRefresher(
            client,
            registry=MetricsRegistry(),
            fault_injector=StorageFaultInjector(bit_flip=1.0, seed=17),
            quarantine_limit=2,
        )
        for _ in range(5):
            assert refresher.refresh(server).status == "rejected"
        assert len(refresher.quarantined) == 2

    def _assert_refresher_rejects(self, client, server, payload):
        before = client.counting.counters.copy()
        refresher = OracleRefresher(
            client, registry=MetricsRegistry(), fault_injector=_Substitute(payload)
        )
        report = refresher.refresh(server)
        assert report.status == "rejected"
        assert np.array_equal(client.counting.counters, before)
        assert len(refresher.quarantined) == 1
        return report

    def test_mismatched_geometry_snapshot_rejected(self, rng):
        base = CountingBloomFilter(num_counters=512, num_hashes=4)
        base.add(rng.integers(0, 256, (30, 16)))
        before = base.counters.copy()
        for other in (
            CountingBloomFilter(num_counters=1024, num_hashes=4),
            CountingBloomFilter(num_counters=512, num_hashes=5),
            CountingBloomFilter(num_counters=512, num_hashes=4, bits_per_counter=8),
        ):
            payload = serialize_counting(other).payload
            with pytest.raises(SnapshotCorruptError, match="active filter"):
                apply_snapshot(base, payload)
            assert np.array_equal(base.counters, before)
        # The refresher refuses the same payload on its snapshot path.
        client, server = self._oracle_pair(rng)
        client.counting.counters = server.counting.counters.copy()
        server.insert(np.array([random_sift_descriptor(rng) for _ in range(400)]))
        wrong = serialize_counting(
            CountingBloomFilter(num_counters=512, num_hashes=4)
        ).payload
        report = self._assert_refresher_rejects(client, server, wrong)
        assert report.kind == "snapshot"

    def test_oversaturated_delta_rejected_not_clamped(self, rng):
        base = CountingBloomFilter(num_counters=512, num_hashes=4)
        base.add(rng.integers(0, 256, (30, 16)))
        before = base.counters.copy()
        with pytest.raises(SnapshotCorruptError, match="saturation"):
            apply_delta(base, _oversaturated_delta(base))
        assert np.array_equal(base.counters, before)
        client, server = self._oracle_pair(rng)
        report = self._assert_refresher_rejects(
            client, server, _oversaturated_delta(client.counting)
        )
        assert report.kind == "delta"

    def test_bit_flipped_payload_rejected(self, rng):
        old = CountingBloomFilter(num_counters=512, num_hashes=4)
        old.add(rng.integers(0, 256, (30, 16)))
        new = CountingBloomFilter(num_counters=512, num_hashes=4)
        new.counters = old.counters.copy()
        new.add(rng.integers(0, 256, (20, 16)))
        before = old.counters.copy()
        with pytest.raises(SnapshotCorruptError, match="GZIP"):
            apply_delta(old, _flip_crc_bit(diff_counting_filters(old, new).payload))
        assert np.array_equal(old.counters, before)
        with pytest.raises(SnapshotCorruptError, match="GZIP"):
            apply_snapshot(old, _flip_crc_bit(serialize_counting(new).payload))
        assert np.array_equal(old.counters, before)
        client, server = self._oracle_pair(rng)
        kind, payload = choose_refresh_payload(client, server)
        report = self._assert_refresher_rejects(
            client, server, _flip_crc_bit(payload)
        )
        assert report.kind == kind

    def test_delta_roundtrip_through_validation(self):
        rng = np.random.default_rng(21)
        old = CountingBloomFilter(num_counters=512, num_hashes=4)
        old.add(rng.integers(0, 256, (30, 16)))
        new = CountingBloomFilter(num_counters=512, num_hashes=4)
        new.counters = old.counters.copy()
        new.add(rng.integers(0, 256, (20, 16)))
        apply_delta(old, diff_counting_filters(old, new).payload)
        assert np.array_equal(old.counters, new.counters)
        apply_snapshot(old, serialize_counting(new).payload)
        assert np.array_equal(old.counters, new.counters)


class TestServerStateStore:
    def test_roundtrip_preserves_oracle_and_lookup(self, rng, tmp_path):
        server = _small_server(rng)
        probes = np.array([random_sift_descriptor(rng) for _ in range(20)])
        store = ServerStateStore(tmp_path / "state")
        generation = store.save(server)
        restored, loaded = ServerStateStore(tmp_path / "state").load()
        assert loaded.generation == generation
        assert np.array_equal(
            restored.oracle.counting.counters, server.oracle.counting.counters
        )
        assert np.array_equal(restored.positions, server.positions)
        assert restored.num_mappings == server.num_mappings
        for a, b in zip(
            restored.oracle.lookup_batch(probes),
            server.oracle.lookup_batch(probes),
        ):
            assert a.count == b.count and a.present == b.present

    def test_rollback_recovers_previous_server(self, rng, tmp_path):
        server = _small_server(rng)
        store = ServerStateStore(tmp_path / "state")
        store.save(server)
        counters_before = server.oracle.counting.counters.copy()
        more = np.array([random_sift_descriptor(rng) for _ in range(30)])
        server.ingest(more, rng.uniform(0, 10, (30, 3)))
        store.save(server)
        StorageFaultInjector(seed=8).corrupt_file(
            tmp_path / "state" / "gen-000002" / "counters.npy"
        )
        restored, loaded = ServerStateStore(tmp_path / "state").load()
        assert loaded.rolled_back == 1
        assert np.array_equal(
            restored.oracle.counting.counters, counters_before
        )

    def test_integrity_checked(self, rng, tmp_path):
        server = _small_server(rng)
        root = tmp_path / "state"
        ServerStateStore(root).save(server)
        restored, _ = ServerStateStore(root).load()
        assert np.array_equal(
            restored.oracle.counting.counters, server.oracle.counting.counters
        )
        StorageFaultInjector(seed=10).corrupt_file(
            root / "gen-000001" / "counters.npy"
        )
        with pytest.raises(SnapshotCorruptError):
            ServerStateStore(root).load()


class TestVerifyState:
    def test_missing_path(self, tmp_path):
        report = verify_state(tmp_path / "absent")
        assert report.kind == "missing" and report.exit_code == 1

    def test_plain_file_is_not_a_store(self, tmp_path):
        path = tmp_path / "state.npz"
        path.write_bytes(b"not a store")
        report = verify_state(path, rebuild_venue="office")
        assert report.kind == "file" and report.exit_code == 1
        assert report.problems == ["not a snapshot-store directory"]
        assert not report.rebuilt
        assert path.read_bytes() == b"not a store"

    def test_store_clean_then_corrupt(self, rng, tmp_path):
        root = tmp_path / "state"
        ServerStateStore(root).save(_small_server(rng))
        assert verify_state(root).exit_code == 0
        StorageFaultInjector(seed=12).corrupt_file(
            root / "gen-000001" / "descriptors.npy"
        )
        report = verify_state(root)
        assert report.exit_code == 1 and not report.recoverable

    def test_store_recoverable_via_rollback(self, rng, tmp_path):
        server = _small_server(rng)
        store = ServerStateStore(tmp_path / "state")
        store.save(server)
        store.save(server)
        assert verify_state(tmp_path / "state").exit_code == 0
        StorageFaultInjector(seed=14).corrupt_file(
            tmp_path / "state" / "gen-000002" / "descriptors.npy"
        )
        report = verify_state(tmp_path / "state")
        assert report.exit_code == 1
        assert report.recoverable
        assert report.restored_generation == 1

    def test_cli_verify_state_exit_codes(self, rng, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "state"
        ServerStateStore(root).save(_small_server(rng))
        assert main(["verify-state", str(root)]) == 0
        capsys.readouterr()
        StorageFaultInjector(seed=15).corrupt_file(
            root / "gen-000001" / "counters.npy"
        )
        assert main(["verify-state", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        path = tmp_path / "state.npz"
        path.write_bytes(b"not a store")
        assert main(["verify-state", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["problems"] == ["not a snapshot-store directory"]


class TestChecksum:
    def test_named_dispatch_matches_default(self):
        data = b"the manifest is the contract"
        assert checksum_bytes(data) == checksum_named(CHECKSUM_ALGO, data)
        with pytest.raises(ValueError):
            checksum_named("md5-of-wishes", data)


# ----------------------------------------------------------------------
# The headline property: one fault => detected, or restore is identical.
# ----------------------------------------------------------------------

_TEMPLATE: dict = {}


def _template_store(tmp_path_factory) -> tuple[Path, VisualPrintServer, np.ndarray]:
    """Build one saved server and reuse it across hypothesis examples."""
    if not _TEMPLATE:
        rng = np.random.default_rng(2016)
        config = VisualPrintConfig(descriptor_capacity=2048, fingerprint_size=10)
        server = VisualPrintServer(
            config, bounds=(np.zeros(3), np.array([10.0, 10.0, 3.0]))
        )
        descriptors = np.array(
            [random_sift_descriptor(rng) for _ in range(60)]
        )
        server.ingest(descriptors, rng.uniform(0, 10, (60, 3)))
        root = tmp_path_factory.mktemp("store-template")
        ServerStateStore(root / "state").save(server)
        probes = np.array([random_sift_descriptor(rng) for _ in range(15)])
        _TEMPLATE["root"] = root / "state"
        _TEMPLATE["server"] = server
        _TEMPLATE["probes"] = probes
    return _TEMPLATE["root"], _TEMPLATE["server"], _TEMPLATE["probes"]


_SECTIONS = (
    "config.json",
    "descriptors.npy",
    "positions.npy",
    "bounds.npy",
    "counters.npy",
    "verification.bin",
    "meta.json",
    "MANIFEST.json",
)


class TestSingleFaultProperty:
    @given(
        section=st.sampled_from(_SECTIONS),
        kind=st.sampled_from(("bit_flip", "truncate", "torn_write")),
        seed=st.integers(0, 2**31),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_single_fault_detected_or_identical(
        self, tmp_path_factory, section, kind, seed
    ):
        template, server, probes = _template_store(tmp_path_factory)
        workdir = tmp_path_factory.mktemp("fault")
        root = workdir / "state"
        shutil.copytree(template, root)
        target = root / "gen-000001" / section
        before = target.read_bytes()
        StorageFaultInjector(seed=seed).corrupt_file(target, kind=kind)
        changed = target.read_bytes() != before
        try:
            restored, _loaded = ServerStateStore(root).load()
        except SnapshotCorruptError:
            return  # detected: the rollback ladder had nowhere to go
        # Not detected: the restore must be bit-identical to the source.
        if changed and section != "MANIFEST.json":
            pytest.fail(f"undetected corruption of {section} via {kind}")
        assert np.array_equal(
            restored.oracle.counting.counters,
            server.oracle.counting.counters,
        )
        assert np.array_equal(restored.positions, server.positions)
        for a, b in zip(
            restored.oracle.lookup_batch(probes),
            server.oracle.lookup_batch(probes),
        ):
            assert a.count == b.count and a.present == b.present
