"""CI corruption smoke: save a server, flip bytes, prove the ladder holds.

Runs next to the lossy fig13 smoke and gates the durability story:

1. save a wardriven server to a generational
   :class:`repro.core.persistence.ServerStateStore`;
2. ``repro verify-state`` must exit 0 on it while clean, and nonzero on
   a plain file, which is not a store;
3. flip bytes in the newest generation with
   :class:`repro.store.StorageFaultInjector`;
4. ``repro verify-state`` must now exit nonzero;
5. the store must still *load* — rollback to the last-good generation
   recovers a server whose oracle counters match the saved state;
6. ``--rebuild-venue`` must reconstruct an unrecoverable store.

Usage: ``PYTHONPATH=src python ci/corruption_smoke.py [workdir]``
Exits nonzero on the first broken invariant.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core import VisualPrintConfig, VisualPrintServer
from repro.core.persistence import ServerStateStore
from repro.store import SnapshotCorruptError, StorageFaultInjector
from repro.util.rng import rng_for
from repro.wardrive.environment import random_sift_descriptor

_CHECKS: list[str] = []


def check(label: str, ok: bool) -> None:
    _CHECKS.append(f"  {'ok' if ok else 'FAIL'}  {label}")
    print(_CHECKS[-1], flush=True)
    if not ok:
        print("corruption smoke FAILED", flush=True)
        sys.exit(1)


def verify_state_exit(path: Path, *extra: str) -> int:
    result = subprocess.run(
        [sys.executable, "-m", "repro", "verify-state", str(path), *extra],
        capture_output=True,
        text=True,
    )
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    return result.returncode


def main(workdir: Path) -> int:
    rng = rng_for(2016, "ci/corruption-smoke")
    server = VisualPrintServer(
        VisualPrintConfig(descriptor_capacity=4096, fingerprint_size=10),
        bounds=(np.zeros(3), np.array([10.0, 10.0, 3.0])),
    )
    descriptors = np.array([random_sift_descriptor(rng) for _ in range(150)])
    server.ingest(descriptors, rng.uniform(0, 10, (150, 3)))
    saved_counters = server.oracle.counting.counters.copy()

    store_root = workdir / "store"
    store = ServerStateStore(store_root)
    store.save(server)
    newest = store.save(server)

    check("clean store verifies", verify_state_exit(store_root) == 0)
    plain_file = workdir / "state.npz"
    plain_file.write_bytes(b"not a snapshot store")
    check("plain file exits nonzero", verify_state_exit(plain_file) != 0)

    injector = StorageFaultInjector(seed=7)
    injector.corrupt_file(
        store_root / f"gen-{newest:06d}" / "counters.npy", kind="bit_flip"
    )

    check("corrupt store exits nonzero", verify_state_exit(store_root) != 0)

    restored, loaded = ServerStateStore(store_root).load()
    check("rollback skipped the corrupt generation", loaded.rolled_back == 1)
    check(
        "rollback recovered bit-identical counters",
        bool(np.array_equal(restored.oracle.counting.counters, saved_counters)),
    )

    # Burn the remaining generation too: the store must refuse to load,
    # and --rebuild-venue must reconstruct it from a fresh wardrive.
    injector.corrupt_file(
        store_root / f"gen-{newest - 1:06d}" / "MANIFEST.json", kind="truncate"
    )
    try:
        ServerStateStore(store_root).load()
        check("unrecoverable store refuses to load", False)
    except SnapshotCorruptError:
        check("unrecoverable store refuses to load", True)
    check(
        "rebuild-from-wardrive commits a fresh generation",
        verify_state_exit(store_root, "--rebuild-venue", "office", "--seed", "3")
        != 0,  # nonzero: corrupt generations remain on disk...
    )
    rebuilt, loaded = ServerStateStore(store_root).load()
    check("rebuilt store loads", rebuilt.num_mappings > 0)

    print("corruption smoke OK")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(main(Path(sys.argv[1])))
    with tempfile.TemporaryDirectory(prefix="corruption-smoke-") as tmp:
        sys.exit(main(Path(tmp)))
