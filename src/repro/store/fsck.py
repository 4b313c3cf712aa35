"""``repro verify-state`` — an fsck for saved server state.

Audits a generational :class:`repro.store.SnapshotStore` directory (the
layout :class:`repro.core.persistence.ServerStateStore` writes) and
reports three tiers:

* **clean** — every retained generation verifies and restores into a
  structurally-valid server;
* **recoverable** — the newest generation is damaged but an older one
  verifies: the rollback ladder will serve last-good state;
* **unrecoverable** — nothing verifies.  With a rebuild venue given,
  the auditor re-wardrives the venue from scratch and commits a fresh
  generation — the paper's data is reconstructible, so unrecoverable
  state is an availability event, not a data-loss event.

A path that exists but is not a directory is not a store: it is
reported as one problem and never rebuilt over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["FsckReport", "verify_state"]


@dataclass
class FsckReport:
    """Outcome of one :func:`verify_state` audit."""

    path: str
    kind: str  # "store" | "file" | "missing"
    ok: bool = False
    recoverable: bool = False
    restored_generation: int | None = None
    rebuilt: bool = False
    problems: list[str] = field(default_factory=list)
    generation_summaries: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 only for a fully-clean audit; corruption is always nonzero."""
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "ok": self.ok,
            "recoverable": self.recoverable,
            "restored_generation": self.restored_generation,
            "rebuilt": self.rebuilt,
            "problems": list(self.problems),
            "generations": list(self.generation_summaries),
        }

    def render(self) -> str:
        lines = [f"verify-state: {self.path} [{self.kind}]"]
        lines.extend(f"  {summary}" for summary in self.generation_summaries)
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        if self.ok:
            lines.append("  state OK")
        elif self.rebuilt:
            lines.append(
                f"  state was UNRECOVERABLE — rebuilt from wardrive as "
                f"generation {self.restored_generation}"
            )
        elif self.recoverable:
            lines.append(
                f"  state CORRUPT — recoverable via rollback to "
                f"generation {self.restored_generation}"
            )
        else:
            lines.append("  state UNRECOVERABLE")
        return "\n".join(lines)


def _rebuild_from_wardrive(path: Path, venue: str, seed: int) -> int:
    """Re-wardrive ``venue`` and commit the result as a fresh generation."""
    # Imported lazily: persistence imports repro.store at module level.
    from repro.core.config import VisualPrintConfig
    from repro.core.persistence import ServerStateStore
    from repro.core.server import VisualPrintServer
    from repro.wardrive import IndoorEnvironment, WardriveSession

    environment = IndoorEnvironment.build(venue, seed=seed)
    mapping = WardriveSession(environment, seed=seed).run()
    config = VisualPrintConfig(
        descriptor_capacity=max(mapping.descriptors.shape[0], 1024)
    )
    server = VisualPrintServer(config)
    server.ingest(mapping.descriptors, mapping.positions)
    return ServerStateStore(path).save(server)


def _audit_store(path: Path, report: FsckReport) -> None:
    from repro.bloom.container import SnapshotCorruptError
    from repro.core.persistence import ServerStateStore
    from repro.store.snapshot import SnapshotStore

    store = SnapshotStore(path)
    generations = store.generations()
    if not generations:
        report.problems.append("no committed generations")
        return
    clean = True
    for verdict in store.verify():
        status = "ok" if verdict.ok else "CORRUPT"
        report.generation_summaries.append(
            f"generation {verdict.generation}: {status}"
        )
        if not verdict.ok:
            clean = False
            report.problems.extend(
                f"generation {verdict.generation}: {problem}"
                for problem in verdict.problems
            )
    try:
        # Full restore, not just CRCs: structural validation (geometry,
        # alignment, saturation bounds) runs inside restore_state /
        # restore_counts and can fail on damage the checksums cover but
        # a hand-edited manifest would not.
        _, loaded = ServerStateStore(path).load()
    except SnapshotCorruptError as error:
        report.problems.append(str(error))
        return
    report.restored_generation = loaded.generation
    report.recoverable = True
    report.ok = clean and loaded.rolled_back == 0


def verify_state(
    path: str | Path,
    rebuild_venue: str | None = None,
    seed: int = 0,
) -> FsckReport:
    """Audit saved server state; optionally rebuild when unrecoverable."""
    path = Path(path)
    if path.is_dir():
        report = FsckReport(path=str(path), kind="store")
        _audit_store(path, report)
    elif path.exists():
        report = FsckReport(path=str(path), kind="file")
        report.problems.append("not a snapshot-store directory")
    else:
        report = FsckReport(path=str(path), kind="missing")
        report.problems.append("path does not exist")
    if (
        not report.recoverable
        and report.kind in ("store", "missing")
        and rebuild_venue is not None
    ):
        generation = _rebuild_from_wardrive(path, rebuild_venue, seed)
        report.rebuilt = True
        report.recoverable = True
        report.restored_generation = generation
        report.generation_summaries.append(
            f"generation {generation}: rebuilt from wardrive venue "
            f"{rebuild_venue!r}"
        )
    return report
