"""``repro.store`` — crash-safe, integrity-verified snapshot storage.

The network layer hardens the offload pipeline's transfer leg; this
package hardens its durable-state leg, the server's persisted state:

* :class:`SnapshotStore` — atomic generational commits (temp dir +
  fsync + rename, manifest written last) with per-section CRCs and
  automatic rollback to the newest generation that verifies;
* :class:`StorageFaultInjector` / :class:`StorageFaultSpec` — seeded
  bit flips, truncations, torn writes, and stale renames, mirroring
  :class:`repro.network.faults.FaultyChannel` so every corruption path
  is deterministically testable;
* :func:`verify_state` — the ``repro verify-state`` fsck, with
  rebuild-from-wardrive for unrecoverable state.

The client's downloaded oracle is checked on the other side of the
wire: :func:`repro.core.updates.apply_delta` and
:func:`repro.core.updates.apply_snapshot` parse and check a refresh
payload in full before they touch the active filter.

Failure accounting: ``snapshot_faults_injected_total`` (what the chaos
rig did), ``store_snapshots_corrupt_total`` / ``store_rollbacks_total``
(what verification caught), ``oracle_snapshots_rejected_total`` (what
the client refused to swap in).  The invariant the chaos suite holds is
that corrupted bytes are *never* swapped in: every injected fault ends
in detect→rollback, detect→stale-serve, or detect→rebuild.
"""

from repro.bloom.container import SnapshotCorruptError
from repro.store.faults import FAULT_KINDS, StorageFaultInjector, StorageFaultSpec
from repro.store.fsck import FsckReport, verify_state
from repro.store.integrity import (
    CHECKSUM_ALGO,
    available_algorithms,
    checksum_bytes,
    checksum_named,
)
from repro.store.snapshot import (
    LoadedSnapshot,
    SectionReport,
    SnapshotStore,
    VerifyReport,
)

__all__ = [
    "CHECKSUM_ALGO",
    "FAULT_KINDS",
    "FsckReport",
    "LoadedSnapshot",
    "SectionReport",
    "SnapshotCorruptError",
    "SnapshotStore",
    "StorageFaultInjector",
    "StorageFaultSpec",
    "VerifyReport",
    "available_algorithms",
    "checksum_bytes",
    "checksum_named",
    "verify_state",
]
