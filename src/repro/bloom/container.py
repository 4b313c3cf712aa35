"""Serialization of counting Bloom filters for client download.

The client downloads the oracle "approximately 10MB" GZIP-compressed; the
filters are fixed size but "compressibility reduces as the Bloom filter
becomes more saturated".  This module provides the on-the-wire snapshot
format (a small header plus the bit-packed counters) used to measure and
reproduce exactly that effect.

Deserialization is *defensive*: a snapshot whose header disagrees with
its body (wrong magic, impossible geometry, or a body length that does
not match ``num_counters`` x ``bits_per_counter``) raises
:class:`SnapshotCorruptError` instead of silently mis-shaping counters.
A bit-flipped counting filter inverts uniqueness decisions without any
visible failure, which is strictly worse than a refused download — see
``repro.store`` for the full integrity ladder built on these checks.
"""

from __future__ import annotations

import gzip
import json
import struct
import zlib
from dataclasses import dataclass

from repro.bloom.counting import CountingBloomFilter
from repro.bloom.verification import VerificationBloomFilter

__all__ = [
    "BloomSnapshot",
    "DEFAULT_GZIP_LEVEL",
    "SnapshotCorruptError",
    "serialize_counting",
    "serialize_verification",
    "deserialize_counting",
    "deserialize_verification",
]

_MAGIC = b"VPBF"
_VERIFICATION_MAGIC = b"VPVF"
_VERSION = 1

#: The container's one compression knob; every snapshot producer routes
#: through it so download-size accounting never mixes GZIP levels.
DEFAULT_GZIP_LEVEL = 6


class SnapshotCorruptError(ValueError):
    """A serialized snapshot failed an integrity or consistency check.

    Subclasses :class:`ValueError` so callers that predate the explicit
    corruption taxonomy (``except ValueError``) keep catching it.
    """


@dataclass(frozen=True)
class BloomSnapshot:
    """A serialized counting Bloom filter plus its transfer statistics."""

    payload: bytes
    raw_bytes: int
    compressed_bytes: int

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.compressed_bytes


def serialize_counting(
    bloom: CountingBloomFilter, gzip_level: int = DEFAULT_GZIP_LEVEL
) -> BloomSnapshot:
    """Serialize ``bloom`` to a GZIP-compressed snapshot."""
    header = json.dumps(
        {
            "num_counters": bloom.num_counters,
            "num_hashes": bloom.num_hashes,
            "bits_per_counter": bloom.bits_per_counter,
        }
    ).encode("utf-8")
    body = bloom.packed_bytes()
    raw = _MAGIC + struct.pack("<BI", _VERSION, len(header)) + header + body
    compressed = gzip.compress(raw, compresslevel=gzip_level, mtime=0)
    return BloomSnapshot(
        payload=compressed, raw_bytes=len(raw), compressed_bytes=len(compressed)
    )


def serialize_verification(
    bloom: VerificationBloomFilter, gzip_level: int = DEFAULT_GZIP_LEVEL
) -> BloomSnapshot:
    """Serialize a verification filter to a GZIP-compressed snapshot.

    Same wire shape as :func:`serialize_counting` (magic + version +
    JSON header + packed bits) so download accounting treats both
    filters uniformly.
    """
    header = json.dumps(
        {"num_bits": bloom.num_bits, "num_hashes": bloom.num_hashes}
    ).encode("utf-8")
    body = bloom.packed_bytes()
    raw = _VERIFICATION_MAGIC + struct.pack("<BI", _VERSION, len(header)) + header + body
    compressed = gzip.compress(raw, compresslevel=gzip_level, mtime=0)
    return BloomSnapshot(
        payload=compressed, raw_bytes=len(raw), compressed_bytes=len(compressed)
    )


def _decompress(payload: bytes) -> bytes:
    """GZIP-decompress, mapping stream damage to :class:`SnapshotCorruptError`.

    GZIP carries its own CRC32, so most bit flips and truncations die
    here with a zlib error rather than reaching the header checks.
    """
    try:
        return gzip.decompress(payload)
    except (OSError, EOFError, zlib.error) as error:
        raise SnapshotCorruptError(f"snapshot payload is not valid GZIP: {error}")


def _parse_container(
    payload: bytes, magic: bytes, kind: str
) -> tuple[dict, bytes]:
    """Shared header validation for both snapshot formats.

    Returns ``(header, body)`` or raises :class:`SnapshotCorruptError`
    on bad magic, unsupported version, a header length pointing past the
    payload, or an unparseable header.
    """
    raw = _decompress(payload)
    if len(raw) < 4 + struct.calcsize("<BI"):
        raise SnapshotCorruptError(
            f"{kind} snapshot truncated before its header ({len(raw)} bytes)"
        )
    if raw[:4] != magic:
        raise SnapshotCorruptError(
            f"not a VisualPrint {kind} snapshot (bad magic)"
        )
    version, header_len = struct.unpack_from("<BI", raw, 4)
    if version != _VERSION:
        raise SnapshotCorruptError(f"unsupported snapshot version {version}")
    header_start = 4 + struct.calcsize("<BI")
    if header_start + header_len > len(raw):
        raise SnapshotCorruptError(
            f"{kind} snapshot header claims {header_len} bytes but only "
            f"{len(raw) - header_start} remain"
        )
    try:
        header = json.loads(raw[header_start : header_start + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotCorruptError(f"{kind} snapshot header unparseable: {error}")
    if not isinstance(header, dict):
        raise SnapshotCorruptError(f"{kind} snapshot header is not an object")
    return header, raw[header_start + header_len :]


def _header_int(header: dict, field: str, kind: str) -> int:
    value = header.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise SnapshotCorruptError(
            f"{kind} snapshot header field {field!r} must be a positive "
            f"integer, got {value!r}"
        )
    return value


def deserialize_counting(snapshot: BloomSnapshot | bytes) -> CountingBloomFilter:
    """Rebuild a counting Bloom filter from a snapshot (or raw payload).

    The header and body must agree: a body whose length differs from
    ``ceil(num_counters * bits_per_counter / 8)`` is refused with
    :class:`SnapshotCorruptError` — accepting it would silently mis-shape
    the counters into a filter that answers queries *wrong*, not loudly.
    """
    payload = snapshot.payload if isinstance(snapshot, BloomSnapshot) else snapshot
    header, body = _parse_container(payload, _MAGIC, "counting")
    num_counters = _header_int(header, "num_counters", "counting")
    num_hashes = _header_int(header, "num_hashes", "counting")
    bits_per_counter = _header_int(header, "bits_per_counter", "counting")
    if bits_per_counter > 16:
        raise SnapshotCorruptError(
            f"counting snapshot claims {bits_per_counter}-bit counters (max 16)"
        )
    expected = (num_counters * bits_per_counter + 7) // 8
    if len(body) != expected:
        raise SnapshotCorruptError(
            f"counting snapshot body is {len(body)} bytes but the header "
            f"({num_counters} counters x {bits_per_counter} bits) requires "
            f"{expected}"
        )
    return CountingBloomFilter.from_packed_bytes(
        body,
        num_counters=num_counters,
        num_hashes=num_hashes,
        bits_per_counter=bits_per_counter,
    )


def deserialize_verification(
    snapshot: BloomSnapshot | bytes, seed: int = 9001
) -> VerificationBloomFilter:
    """Rebuild a verification filter from :func:`serialize_verification` output.

    Counterpart to :func:`deserialize_counting`, with the same header
    validation and header/body length consistency check.  The hash seed
    is not on the wire (matching the counting format), so callers
    restoring a non-default filter pass ``seed`` explicitly.
    """
    payload = snapshot.payload if isinstance(snapshot, BloomSnapshot) else snapshot
    header, body = _parse_container(payload, _VERIFICATION_MAGIC, "verification")
    num_bits = _header_int(header, "num_bits", "verification")
    num_hashes = _header_int(header, "num_hashes", "verification")
    expected = (num_bits + 7) // 8
    if len(body) != expected:
        raise SnapshotCorruptError(
            f"verification snapshot body is {len(body)} bytes but the header "
            f"({num_bits} bits) requires {expected}"
        )
    bloom = VerificationBloomFilter(
        num_bits=num_bits, num_hashes=num_hashes, seed=seed
    )
    bloom.load_packed_bytes(body)
    return bloom
