"""The fingerprint: the only thing VisualPrint puts on the uplink.

A fingerprint is the top-k most-unique keypoints of a frame — pixel
coordinates plus integer descriptors — serialized with the standard
keypoint wire format.  At k = 200 this is ≈ 30-50 KB, versus ≈ 500 KB
for the lossless frame it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.keypoint import KeypointSet
from repro.features.serialize import (
    deserialize_keypoints,
    serialize_keypoints,
    serialized_size,
)

__all__ = ["Fingerprint", "degradation_keep_counts", "degradation_ladder"]


def degradation_keep_counts(
    count: int, floor: int = 16, max_steps: int = 2
) -> list[int]:
    """Keypoint budgets for progressively smaller resubmissions.

    Starts at the full fingerprint and halves up to ``max_steps`` times,
    never dropping below ``floor`` keypoints — below that a fingerprint
    stops carrying enough unique features to vote a scene (cf. the
    Fig. 13 small-count regime).  Keypoints are stored most-unique
    first, so "the first k" is exactly "the k most unique".
    """
    counts = [int(count)]
    while counts[-1] // 2 >= floor and len(counts) <= max_steps:
        counts.append(counts[-1] // 2)
    return counts


def degradation_ladder(
    count: int, floor: int = 16, max_steps: int = 2
) -> list[int]:
    """Wire sizes (bytes) of the :func:`degradation_keep_counts` rungs.

    The ladder a payload walks in :func:`repro.network.submit_payload`:
    the fixed-width wire format prices each rung without serializing it.
    """
    return [
        serialized_size(keep)
        for keep in degradation_keep_counts(count, floor=floor, max_steps=max_steps)
    ]


@dataclass(frozen=True)
class Fingerprint:
    """A concise, upload-ready scene signature."""

    keypoints: KeypointSet
    uniqueness_counts: np.ndarray  # (k,) oracle count per kept keypoint
    frame_index: int = 0

    def __post_init__(self) -> None:
        if self.uniqueness_counts.shape != (len(self.keypoints),):
            raise ValueError("one uniqueness count per keypoint required")

    def __len__(self) -> int:
        return len(self.keypoints)

    def to_bytes(self, compress: bool = False) -> bytes:
        """Wire encoding (what Fig. 14 counts as uploaded data)."""
        return serialize_keypoints(self.keypoints, compress=compress)

    @property
    def upload_bytes(self) -> int:
        """Uncompressed wire size — O(1), the records are fixed width."""
        return serialized_size(len(self.keypoints))

    def truncate(self, count: int) -> "Fingerprint":
        """The same fingerprint keeping only its ``count`` most-unique keypoints.

        Keypoints are stored in uniqueness-rank order, so truncation is
        a prefix — this is the degradation move the client makes under
        network backpressure.  The result is a zero-copy view sharing
        storage with ``self`` (see :meth:`KeypointSet.head`).
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count >= len(self):
            return self
        return Fingerprint(
            keypoints=self.keypoints.head(count),
            uniqueness_counts=self.uniqueness_counts[:count],
            frame_index=self.frame_index,
        )

    @classmethod
    def from_bytes(cls, payload: bytes, frame_index: int = 0) -> "Fingerprint":
        keypoints = deserialize_keypoints(payload)
        return cls(
            keypoints=keypoints,
            uniqueness_counts=np.zeros(len(keypoints), dtype=np.int64),
            frame_index=frame_index,
        )
