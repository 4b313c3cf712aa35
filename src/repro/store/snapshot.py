"""Crash-safe, integrity-verified, generational snapshot store.

Durable state in this system (the server's keypoint table, the oracle's
filters) is only useful if it is *trustworthy*: a bit-flipped counter
silently inverts uniqueness decisions, which is worse than losing the
file outright.  :class:`SnapshotStore` therefore never trusts the disk:

* **Atomic commits** — each generation is staged in a ``.tmp-*``
  directory (every section file fsynced), its manifest written last,
  and the whole directory renamed into place.  Readers only ever see a
  fully-written generation or none at all; a crash mid-save leaves a
  stale temp directory that the next save sweeps up.
* **Per-section checksums** — the manifest records every section's byte
  length and CRC (CRC32C where the accelerator package exists, zlib
  CRC32 otherwise — the manifest names the algorithm), plus a CRC over
  the manifest itself.
* **Generational retention with last-good rollback** — ``save`` keeps
  the newest ``keep_generations`` generations; ``load`` walks newest to
  oldest and returns the first generation that verifies, counting each
  skipped one in ``store_rollbacks_total``.  Only when *no* generation
  verifies does it raise :class:`SnapshotCorruptError` — the caller's
  cue to rebuild from wardrive.

A :class:`repro.store.StorageFaultInjector` can be threaded into the
write path, corrupting the bytes that "hit the disk" while the manifest
keeps the true digests — which is exactly what makes every detection
path deterministically testable.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bloom.container import SnapshotCorruptError
from repro.obs import MetricsRegistry, resolve_registry, trace_span
from repro.store.faults import StorageFaultInjector
from repro.store.integrity import CHECKSUM_ALGO, checksum_bytes, checksum_named

__all__ = [
    "LoadedSnapshot",
    "SectionReport",
    "SnapshotStore",
    "VerifyReport",
]

MANIFEST_NAME = "MANIFEST.json"
_FORMAT_VERSION = 1
_GEN_PATTERN = re.compile(r"^gen-(\d{6})$")
_TMP_PREFIX = ".tmp-"
_SECTION_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _fsync_path(path: Path) -> None:
    """fsync a file or directory, ignoring filesystems that refuse."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class SectionReport:
    """Integrity verdict for one section of one generation."""

    name: str
    ok: bool
    expected_bytes: int
    actual_bytes: int
    expected_crc: int
    actual_crc: int | None
    error: str = ""


@dataclass(frozen=True)
class VerifyReport:
    """Integrity verdict for one generation."""

    generation: int
    ok: bool
    sections: tuple[SectionReport, ...] = ()
    error: str = ""  # manifest-level failure, when sections never ran

    @property
    def problems(self) -> list[str]:
        out = [self.error] if self.error else []
        out.extend(
            f"section {s.name!r}: {s.error}" for s in self.sections if not s.ok
        )
        return out


@dataclass(frozen=True)
class LoadedSnapshot:
    """A verified generation's contents."""

    generation: int
    sections: dict[str, bytes]
    metadata: dict
    rolled_back: int  # newer generations skipped because they failed verification
    skipped: tuple[VerifyReport, ...] = field(default=())


class SnapshotStore:
    """Directory of checksummed, atomically-committed state generations."""

    def __init__(
        self,
        root: str | Path,
        keep_generations: int = 3,
        fault_injector: StorageFaultInjector | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if keep_generations < 1:
            raise ValueError(
                f"keep_generations must be >= 1, got {keep_generations}"
            )
        self.root = Path(root)
        self.keep_generations = int(keep_generations)
        self.fault_injector = fault_injector
        self._registry = resolve_registry(registry)
        self._m_saves = self._registry.counter(
            "store_saves_total", help="snapshot generations committed"
        )
        self._m_rollbacks = self._registry.counter(
            "store_rollbacks_total",
            help="generations skipped by load() because they failed verification",
        )
        self._m_corrupt = self._registry.counter(
            "store_snapshots_corrupt_total",
            help="generation verifications that found corruption",
        )
        self._m_generations = self._registry.gauge(
            "store_generations", help="verifiable generations currently retained"
        )
        self._m_loads = {
            outcome: self._registry.counter(
                "store_loads_total",
                help="snapshot loads by outcome",
                outcome=outcome,
            )
            for outcome in ("ok", "rolled_back", "unrecoverable")
        }

    @property
    def metrics(self) -> MetricsRegistry:
        return self._registry

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def _generation_dir(self, generation: int) -> Path:
        return self.root / f"gen-{generation:06d}"

    def generations(self) -> list[int]:
        """Committed generation numbers, oldest first."""
        if not self.root.is_dir():
            return []
        found = []
        for entry in self.root.iterdir():
            match = _GEN_PATTERN.match(entry.name)
            if match and entry.is_dir():
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_generation(self) -> int | None:
        generations = self.generations()
        return generations[-1] if generations else None

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------

    def _write_file(self, path: Path, data: bytes, label: str) -> None:
        if self.fault_injector is not None:
            data, _ = self.fault_injector.mangle(data, label)
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def save(
        self, sections: dict[str, bytes], metadata: dict | None = None
    ) -> int:
        """Commit one generation; returns its number.

        The manifest digests are computed from the *true* bytes before
        the fault injector sees them, so anything the injector corrupts
        is detectable afterwards — the manifest is the contract, the
        files are the suspects.
        """
        if not sections:
            raise ValueError("a snapshot needs at least one section")
        for name in sections:
            if not _SECTION_PATTERN.match(name) or name == MANIFEST_NAME:
                raise ValueError(f"invalid section name {name!r}")
        with trace_span("store.save", registry=self._registry, sections=len(sections)):
            self.root.mkdir(parents=True, exist_ok=True)
            self._sweep_temp_dirs()
            generation = (self.latest_generation() or 0) + 1
            tmp_dir = self.root / f"{_TMP_PREFIX}{generation:06d}"
            if tmp_dir.exists():
                shutil.rmtree(tmp_dir)
            tmp_dir.mkdir()
            manifest: dict = {
                "format_version": _FORMAT_VERSION,
                "generation": generation,
                "algo": CHECKSUM_ALGO,
                "created_unix": time.time(),
                "metadata": metadata or {},
                "sections": {
                    name: {"bytes": len(data), "crc": checksum_bytes(data)}
                    for name, data in sections.items()
                },
            }
            for name, data in sections.items():
                self._write_file(tmp_dir / name, data, label=f"section/{name}")
            body = json.dumps(manifest, sort_keys=True)
            manifest["manifest_crc"] = checksum_bytes(body.encode("utf-8"))
            self._write_file(
                tmp_dir / MANIFEST_NAME,
                json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8"),
                label="manifest",
            )
            _fsync_path(tmp_dir)
            if self.fault_injector is not None and self.fault_injector.drop_rename(
                f"gen-{generation:06d}"
            ):
                # Crash between fsync and rename: the staged directory
                # stays behind (ignored by readers, swept by the next
                # save) and the previous generation remains current.
                return generation
            os.rename(tmp_dir, self._generation_dir(generation))
            _fsync_path(self.root)
            self._m_saves.inc()
            self._prune()
            self._m_generations.set(len(self.generations()))
        return generation

    def _sweep_temp_dirs(self) -> None:
        for entry in self.root.iterdir():
            if entry.name.startswith(_TMP_PREFIX) and entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)

    def _prune(self) -> None:
        for generation in self.generations()[: -self.keep_generations]:
            shutil.rmtree(self._generation_dir(generation), ignore_errors=True)

    # ------------------------------------------------------------------
    # Verify / load
    # ------------------------------------------------------------------

    def _read_manifest(self, generation: int) -> dict:
        path = self._generation_dir(generation) / MANIFEST_NAME
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise SnapshotCorruptError(f"manifest unreadable: {error}")
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotCorruptError(f"manifest unparseable: {error}")
        if not isinstance(manifest, dict):
            raise SnapshotCorruptError("manifest is not a JSON object")
        if manifest.get("format_version") != _FORMAT_VERSION:
            raise SnapshotCorruptError(
                f"unsupported manifest format {manifest.get('format_version')!r}"
            )
        algo = manifest.get("algo")
        declared = manifest.get("manifest_crc")
        if not isinstance(declared, int):
            raise SnapshotCorruptError("manifest_crc missing")
        body = {k: v for k, v in manifest.items() if k != "manifest_crc"}
        try:
            actual = checksum_named(
                algo, json.dumps(body, sort_keys=True).encode("utf-8")
            )
        except (TypeError, ValueError) as error:
            raise SnapshotCorruptError(f"manifest checksum unverifiable: {error}")
        if actual != declared:
            raise SnapshotCorruptError(
                f"manifest self-checksum mismatch "
                f"(declared {declared}, computed {actual})"
            )
        sections = manifest.get("sections")
        if not isinstance(sections, dict) or not sections:
            raise SnapshotCorruptError("manifest lists no sections")
        return manifest

    def _verify_sections(
        self, generation: int, manifest: dict, keep_bytes: bool
    ) -> tuple[list[SectionReport], dict[str, bytes]]:
        gen_dir = self._generation_dir(generation)
        algo = manifest["algo"]
        reports: list[SectionReport] = []
        contents: dict[str, bytes] = {}
        for name, expect in sorted(manifest["sections"].items()):
            expected_bytes = int(expect.get("bytes", -1))
            expected_crc = int(expect.get("crc", -1))
            try:
                data = (gen_dir / name).read_bytes()
            except OSError as error:
                reports.append(
                    SectionReport(
                        name=name,
                        ok=False,
                        expected_bytes=expected_bytes,
                        actual_bytes=0,
                        expected_crc=expected_crc,
                        actual_crc=None,
                        error=f"unreadable: {error}",
                    )
                )
                continue
            actual_crc = checksum_named(algo, data)
            if len(data) != expected_bytes:
                error = (
                    f"length mismatch (manifest {expected_bytes}, "
                    f"file {len(data)})"
                )
            elif actual_crc != expected_crc:
                error = (
                    f"checksum mismatch (manifest {expected_crc}, "
                    f"file {actual_crc})"
                )
            else:
                error = ""
                if keep_bytes:
                    contents[name] = data
            reports.append(
                SectionReport(
                    name=name,
                    ok=not error,
                    expected_bytes=expected_bytes,
                    actual_bytes=len(data),
                    expected_crc=expected_crc,
                    actual_crc=actual_crc,
                    error=error,
                )
            )
        return reports, contents

    def verify_generation(self, generation: int) -> VerifyReport:
        """Audit one generation without loading it."""
        report, _ = self._verify_and_read(generation, keep_bytes=False)
        return report

    def _verify_and_read(
        self, generation: int, keep_bytes: bool
    ) -> tuple[VerifyReport, tuple[dict, dict[str, bytes]] | None]:
        try:
            manifest = self._read_manifest(generation)
        except SnapshotCorruptError as error:
            self._m_corrupt.inc()
            return VerifyReport(generation=generation, ok=False, error=str(error)), None
        sections, contents = self._verify_sections(generation, manifest, keep_bytes)
        ok = all(section.ok for section in sections)
        if not ok:
            self._m_corrupt.inc()
            return (
                VerifyReport(generation=generation, ok=False, sections=tuple(sections)),
                None,
            )
        return (
            VerifyReport(generation=generation, ok=True, sections=tuple(sections)),
            (manifest, contents),
        )

    def verify(self) -> list[VerifyReport]:
        """Audit every retained generation, oldest first."""
        with trace_span("store.verify", registry=self._registry):
            return [self.verify_generation(g) for g in self.generations()]

    def load(self) -> LoadedSnapshot:
        """Return the newest generation that verifies, rolling back past
        any that do not.

        Raises :class:`SnapshotCorruptError` when no generation (or none
        at all) survives verification — unrecoverable; rebuild upstream.
        """
        with trace_span("store.load", registry=self._registry) as span:
            generations = self.generations()
            skipped: list[VerifyReport] = []
            for generation in reversed(generations):
                report, verified = self._verify_and_read(generation, keep_bytes=True)
                if verified is None:
                    skipped.append(report)
                    self._m_rollbacks.inc()
                    continue
                manifest, contents = verified
                outcome = "rolled_back" if skipped else "ok"
                self._m_loads[outcome].inc()
                span.set("generation", generation)
                span.set("rolled_back", len(skipped))
                return LoadedSnapshot(
                    generation=generation,
                    sections=contents,
                    metadata=manifest.get("metadata", {}),
                    rolled_back=len(skipped),
                    skipped=tuple(skipped),
                )
            self._m_loads["unrecoverable"].inc()
            if not generations:
                raise SnapshotCorruptError(
                    f"no snapshot generations under {self.root}"
                )
            problems = "; ".join(
                f"gen {r.generation}: {'; '.join(r.problems) or 'corrupt'}"
                for r in skipped
            )
            raise SnapshotCorruptError(
                f"every generation under {self.root} failed verification "
                f"({problems})"
            )
