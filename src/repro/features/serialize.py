"""Keypoint wire format.

Figure 5 measures "SIFT feature size (in bytes) ratio to image size",
uncompressed and after "heavy GZIP compression"; Figure 14's fingerprint
upload (about 51.2 KB for 200 keypoints with framing) uses the same
record layout.  Each record is:

======== ======= ==========================================
field    bytes   encoding
======== ======= ==========================================
x, y     8       two float32 pixel coordinates
scale    4       float32
angle    4       float32 radians
descr    128     128 x uint8 (the integer SIFT descriptor)
======== ======= ==========================================

144 bytes per keypoint — "extracted keypoints typically require at least
as much space as the image itself" once thousands are present.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np

from repro.features.keypoint import DESCRIPTOR_DIM, KeypointSet

__all__ = [
    "keypoint_record_bytes",
    "serialize_keypoints",
    "serialize_keypoints_into",
    "serialized_size",
    "deserialize_keypoints",
]

_HEADER = struct.Struct("<4sI")
_MAGIC = b"VPKP"


def keypoint_record_bytes() -> int:
    """Bytes per serialized keypoint record."""
    return 4 * 4 + DESCRIPTOR_DIM


def serialized_size(count: int) -> int:
    """Uncompressed wire bytes for a ``count``-keypoint payload.

    Lets degradation planning price a shrunken fingerprint without
    serializing it: header plus ``count`` fixed-width records.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return _HEADER.size + count * keypoint_record_bytes()


def serialize_keypoints(keypoints: KeypointSet, compress: bool = False) -> bytes:
    """Pack a keypoint set into its wire format (optionally GZIP'd).

    Encodes through :func:`serialize_keypoints_into` into a fresh buffer,
    so the wire format has one encoder.
    """
    buffer = bytearray()
    serialize_keypoints_into(keypoints, buffer)
    if compress:
        return gzip.compress(buffer, compresslevel=9, mtime=0)
    return bytes(buffer)


def serialize_keypoints_into(
    keypoints: KeypointSet,
    buffer: bytearray,
    scratch: np.ndarray | None = None,
) -> int:
    """Serialize into a caller-owned ``bytearray``; returns payload size.

    The one encoder of the wire format: the header is packed in place,
    the float metadata and uint8 descriptors are written through
    ``np.frombuffer`` views straight into ``buffer``, and the only
    intermediate is the (optional, reusable) float32 ``scratch`` used
    for rint/clip before the uint8 narrowing.  The buffer is grown once
    to the high-water mark and then reused; valid bytes are
    ``buffer[:returned_size]``.
    """
    count = len(keypoints)
    size = serialized_size(count)
    if len(buffer) < size:
        buffer.extend(bytes(size - len(buffer)))
    _HEADER.pack_into(buffer, 0, _MAGIC, count)
    if count == 0:
        return size
    meta = np.frombuffer(
        buffer, dtype="<f4", count=count * 4, offset=_HEADER.size
    ).reshape(count, 4)
    meta[:, 0:2] = keypoints.positions
    meta[:, 2] = keypoints.scales
    meta[:, 3] = keypoints.orientations
    if scratch is None or scratch.shape != (count, DESCRIPTOR_DIM):
        scratch = np.empty((count, DESCRIPTOR_DIM), dtype=np.float32)
    np.rint(keypoints.descriptors, out=scratch)
    np.clip(scratch, 0, 255, out=scratch)
    packed = np.frombuffer(
        buffer,
        dtype=np.uint8,
        count=count * DESCRIPTOR_DIM,
        offset=_HEADER.size + count * 16,
    ).reshape(count, DESCRIPTOR_DIM)
    # Values are integral and within [0, 255] after the clip, so the
    # narrowing cast is exact.
    np.copyto(packed, scratch, casting="unsafe")
    return size


def deserialize_keypoints(payload: bytes) -> KeypointSet:
    """Inverse of :func:`serialize_keypoints` (detects GZIP automatically)."""
    if payload[:2] == b"\x1f\x8b":
        payload = gzip.decompress(payload)
    magic, count = _HEADER.unpack_from(payload, 0)
    if magic != _MAGIC:
        raise ValueError("not a VisualPrint keypoint payload (bad magic)")
    offset = _HEADER.size
    meta = np.frombuffer(payload, dtype="<f4", count=count * 4, offset=offset)
    meta = meta.reshape(count, 4)
    offset += count * 16
    descriptors = np.frombuffer(
        payload, dtype=np.uint8, count=count * DESCRIPTOR_DIM, offset=offset
    ).reshape(count, DESCRIPTOR_DIM)
    return KeypointSet(
        positions=meta[:, 0:2].astype(np.float32).copy(),
        scales=meta[:, 2].astype(np.float32).copy(),
        orientations=meta[:, 3].astype(np.float32).copy(),
        responses=np.zeros(count, dtype=np.float32),
        descriptors=descriptors.astype(np.float32),
    )
