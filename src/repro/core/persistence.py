"""Server-state persistence.

A production VisualPrint cloud service survives restarts: the
keypoint-to-3D table and the oracle are its only state.
:class:`ServerStateStore` keeps them in the generational
:class:`repro.store.SnapshotStore` layout — atomic commits, manifest
checksums, retention, and automatic rollback to the newest generation
that verifies.  A restore yields an *equivalent* server (identical
oracle counts and lookup results, verified in the test suite); every
integrity failure raises :class:`repro.bloom.SnapshotCorruptError`
instead of restoring a silently-wrong server.  ``repro verify-state``
audits the same layout.

Restores route through the public :meth:`VisualPrintServer.restore_state`
and :meth:`UniquenessOracle.restore_counts` APIs — persistence does not
reach into private server state.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.bloom.container import SnapshotCorruptError
from repro.core.config import VisualPrintConfig
from repro.core.server import VisualPrintServer
from repro.lsh.projections import E2LSHParams
from repro.store.snapshot import LoadedSnapshot, SnapshotStore

__all__ = ["ServerStateStore"]

_STORE_STATE_VERSION = 1


def _config_to_json(config: VisualPrintConfig) -> bytes:
    config_dict = asdict(config)
    config_dict["lsh"] = asdict(config.lsh)
    return json.dumps(config_dict).encode("utf-8")


def _config_from_json(payload: bytes) -> VisualPrintConfig:
    try:
        config_dict = json.loads(payload.decode("utf-8"))
        lsh = E2LSHParams(**config_dict.pop("lsh"))
        return VisualPrintConfig(lsh=lsh, **config_dict)
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError, KeyError) as error:
        raise SnapshotCorruptError(f"saved configuration unparseable: {error}")


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def _npy_from_bytes(data: bytes, section: str) -> np.ndarray:
    try:
        return np.load(io.BytesIO(data), allow_pickle=False)
    except (ValueError, OSError, EOFError) as error:
        raise SnapshotCorruptError(f"section {section!r} unparseable: {error}")


class ServerStateStore:
    """Generational, rollback-capable persistence for a VisualPrint server.

    Thin layer over :class:`repro.store.SnapshotStore`: each ``save``
    commits one checksummed generation; ``load`` restores the newest
    generation that verifies (rolling back past damaged ones) through
    the public restore APIs.
    """

    def __init__(
        self,
        root: str | Path,
        keep_generations: int = 3,
        fault_injector=None,
        registry=None,
    ) -> None:
        self.store = SnapshotStore(
            root,
            keep_generations=keep_generations,
            fault_injector=fault_injector,
            registry=registry,
        )
        self._registry = registry

    def save(self, server: VisualPrintServer) -> int:
        """Commit the server's state as a new generation; returns its number."""
        low, high = server.bounds()
        # The index may keep byte-valued rows as uint8; the section is
        # float32 either way.
        rows = server.descriptors.astype(np.float32, copy=False)
        sections = {
            "config.json": _config_to_json(server.config),
            "descriptors.npy": _npy_bytes(rows),
            "positions.npy": _npy_bytes(server.positions),
            "bounds.npy": _npy_bytes(np.vstack([low, high])),
            "counters.npy": _npy_bytes(server.oracle.counting.counters),
            "verification.bin": server.oracle.verification.packed_bytes(),
            "meta.json": json.dumps(
                {
                    "state_version": _STORE_STATE_VERSION,
                    "inserted_count": server.oracle.inserted_count,
                    "num_mappings": server.num_mappings,
                },
                sort_keys=True,
            ).encode("utf-8"),
        }
        return self.store.save(
            sections, metadata={"state_version": _STORE_STATE_VERSION}
        )

    def load(self) -> tuple[VisualPrintServer, LoadedSnapshot]:
        """Restore the newest verifiable generation.

        Returns ``(server, loaded)`` — ``loaded.rolled_back`` says how
        many damaged generations were skipped.  Raises
        :class:`SnapshotCorruptError` when nothing restores.
        """
        loaded = self.store.load()
        sections = loaded.sections
        required = (
            "config.json",
            "descriptors.npy",
            "positions.npy",
            "bounds.npy",
            "counters.npy",
            "verification.bin",
            "meta.json",
        )
        missing = [name for name in required if name not in sections]
        if missing:
            raise SnapshotCorruptError(
                f"generation {loaded.generation} misses sections: "
                f"{', '.join(missing)}"
            )
        try:
            meta = json.loads(sections["meta.json"].decode("utf-8"))
            inserted = int(meta["inserted_count"])
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ) as error:
            raise SnapshotCorruptError(f"section 'meta.json' unparseable: {error}")
        config = _config_from_json(sections["config.json"])
        bounds_array = _npy_from_bytes(sections["bounds.npy"], "bounds.npy")
        if bounds_array.shape != (2, 3):
            raise SnapshotCorruptError(
                f"section 'bounds.npy' has shape {bounds_array.shape}, needs (2, 3)"
            )
        server = VisualPrintServer(
            config,
            bounds=(bounds_array[0].copy(), bounds_array[1].copy()),
            registry=self._registry,
        )
        server.restore_state(
            _npy_from_bytes(sections["descriptors.npy"], "descriptors.npy"),
            _npy_from_bytes(sections["positions.npy"], "positions.npy"),
        )
        server.oracle.restore_counts(
            _npy_from_bytes(sections["counters.npy"], "counters.npy"),
            verification_bits=sections["verification.bin"],
            inserted_count=inserted,
        )
        return server, loaded
