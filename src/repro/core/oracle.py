"""The uniqueness "oracle": locality-sensitive counting Bloom filters.

Indexing (Fig. 8, top): a descriptor is E2LSH-quantized into ``L``
bucket vectors; each bucket vector is Murmur-3 hashed ``K`` ways into
the shared counting Bloom filter, bumping ``K`` saturating counters per
table.  Every insertion also records its counter-position tuple in the
verification Bloom filter.

Lookup (Fig. 8, bottom): a query descriptor's count estimate is the
minimum probed counter across all tables — an upper bound on how many
database descriptors share its neighborhood, i.e. its *commonness*.
Multiprobe re-checks the two most likely adjacent quantization cells per
table (off-by-one rescue), and the verification filter vetoes positives
whose position tuple was never actually inserted.

The structure is "aggressively probabilistic — false positives create a
minimal performance penalty" — a keypoint wrongly counted as common just
loses its spot in the fingerprint to the next-most-unique one.

Every oracle reports into a :class:`repro.obs.MetricsRegistry`
(explicit, contextual, or private — see :func:`repro.obs.resolve_registry`):
insert/counts latency sketches, descriptor counters, multiprobe-accept
and verification-veto counters, and a counter-saturation gauge.
:meth:`UniquenessOracle.lookup_batch` is timed by its
``oracle.lookup_batch`` span (``span_oracle_lookup_batch_seconds``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.bloom.container import (
    DEFAULT_GZIP_LEVEL,
    BloomSnapshot,
    serialize_counting,
    serialize_verification,
)
from repro.bloom.counting import CountingBloomFilter
from repro.bloom.verification import VerificationBloomFilter
from repro.core.config import VisualPrintConfig
from repro.hashing.families import Murmur3Family
from repro.lsh.buckets import QuantizedBuckets
from repro.lsh.multiprobe import perturbation_sets, ranked_perturbations
from repro.lsh.projections import StableProjections
from repro.obs import MetricsRegistry, resolve_registry, trace_span

__all__ = ["OracleLookup", "UniquenessOracle"]


def _build_hasher(
    config: VisualPrintConfig,
) -> tuple[StableProjections, list[Murmur3Family]]:
    """The (projections, per-table hash families) pair for one config."""
    projections = StableProjections(config.lsh, seed=config.seed)
    families = [
        Murmur3Family(
            num_hashes=config.bloom_hashes,
            table_size=config.num_counters,
            base_seed=config.seed + 1000 + table * config.bloom_hashes,
        )
        for table in range(config.lsh.num_tables)
    ]
    return projections, families


# Per-process cache for pool workers: rebuilding the projections for every
# wardrive batch would dominate the hashing work they parallelize.
_WORKER_HASHERS: dict[VisualPrintConfig, tuple[StableProjections, list[Murmur3Family]]] = {}


def _hash_wardrive_batch(
    config: VisualPrintConfig, descriptors: np.ndarray
) -> list[np.ndarray]:
    """Quantize + hash one ingest batch (the CPU-bound part of insert).

    Pure function of (config, descriptors) so it can run in any pool
    worker; returns the per-table ``(n, K)`` counter-index arrays the
    parent applies to its filters.
    """
    cached = _WORKER_HASHERS.get(config)
    if cached is None:
        cached = _WORKER_HASHERS[config] = _build_hasher(config)
    projections, families = cached
    quantized = QuantizedBuckets(projections.quantize(descriptors))
    return [
        family.indices(quantized.table_vectors(table))
        for table, family in enumerate(families)
    ]


@dataclass(frozen=True)
class OracleLookup:
    """Detailed lookup result for one descriptor."""

    count: int  # minimum-counter commonness estimate
    present: bool  # passed membership (with multiprobe) + verification
    used_multiprobe: bool  # the accepting probe was a perturbed bucket


class UniquenessOracle:
    """Compact, downloadable commonness estimator for SIFT descriptors."""

    def __init__(
        self,
        config: VisualPrintConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or VisualPrintConfig()
        cfg = self.config
        # One Murmur-3 family per LSH table so tables probe independent
        # positions of the shared counter array.
        self.projections, self._families = _build_hasher(cfg)
        self.counting = CountingBloomFilter(
            num_counters=cfg.num_counters,
            num_hashes=cfg.bloom_hashes,
            bits_per_counter=cfg.bits_per_counter,
            seed=cfg.seed + 101,
        )
        self.verification = VerificationBloomFilter(
            num_bits=cfg.verification_bits, seed=cfg.seed + 202
        )
        self._inserted = 0
        self._download_cache: tuple[tuple[int, int], int] | None = None
        self._registry = resolve_registry(registry)
        # Instrument handles are bound once: the counts() hot path pays
        # one perf_counter pair + two attribute calls, nothing more.
        self._m_insert_seconds = self._registry.sketch(
            "oracle_insert_seconds", help="wall-clock per insert() call"
        )
        self._m_inserted_total = self._registry.counter(
            "oracle_descriptors_inserted_total", help="descriptors indexed"
        )
        self._m_counts_seconds = self._registry.sketch(
            "oracle_counts_seconds", help="wall-clock per counts() batch"
        )
        self._m_counts_descriptors = self._registry.counter(
            "oracle_counts_descriptors_total", help="descriptors passed to counts()"
        )
        self._m_lookups_total = self._registry.counter(
            "oracle_lookups_total", help="descriptors resolved via lookup paths"
        )
        self._m_multiprobe_accepts = self._registry.counter(
            "oracle_multiprobe_accepts_total",
            help="table accepts where the accepting probe was perturbed",
        )
        self._m_verification_vetoes = self._registry.counter(
            "oracle_verification_vetoes_total",
            help="probe matches vetoed by the verification filter",
        )
        self._m_saturation = self._registry.gauge(
            "oracle_counter_saturation",
            help="fraction of counting-filter counters at the saturation ceiling",
        )

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this oracle reports into."""
        return self._registry

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    @property
    def inserted_count(self) -> int:
        return self._inserted

    def saturation_ratio(self) -> float:
        """Fraction of counters pinned at the saturation ceiling."""
        return self.counting.saturated_fraction()

    def insert(
        self,
        descriptors: np.ndarray,
        batch_size: int = 20_000,
        workers: int = 1,
    ) -> None:
        """Index descriptors: bump K counters per table per descriptor.

        With ``workers > 1`` the CPU-bound half of ingest — quantizing
        and Murmur-hashing each wardrive batch — fans out across a
        :func:`repro.parallel.parallel_map` pool; the returned counter
        indices are applied to the shared filters serially in batch
        order.  Counter saturation and Bloom bit-sets are commutative,
        so the final filter state is identical to a serial ingest.
        """
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        # All batches or none: a bad row in a late batch must not leave
        # the earlier ones counted.
        self.projections.check_range(descriptors)
        batches = [
            descriptors[start : start + batch_size]
            for start in range(0, descriptors.shape[0], batch_size)
        ]
        start = time.perf_counter()
        if workers > 1 and len(batches) > 1:
            from repro.parallel import parallel_map

            hashed = parallel_map(
                partial(_hash_wardrive_batch, self.config),
                batches,
                workers=workers,
            )
            for batch, table_indices in zip(batches, hashed):
                self._apply_hashed(table_indices, batch.shape[0])
        else:
            for batch in batches:
                self._insert_batch(batch)
        self._m_insert_seconds.observe(time.perf_counter() - start)
        self._m_inserted_total.inc(descriptors.shape[0])
        self._m_saturation.set(self.saturation_ratio())

    def _insert_batch(self, descriptors: np.ndarray) -> None:
        quantized = QuantizedBuckets(self.projections.quantize(descriptors))
        table_indices = [
            family.indices(quantized.table_vectors(table))
            for table, family in enumerate(self._families)
        ]
        self._apply_hashed(table_indices, descriptors.shape[0])

    def _apply_hashed(
        self, table_indices: list[np.ndarray], num_descriptors: int
    ) -> None:
        """Apply precomputed per-table ``(n, K)`` indices to the filters."""
        for indices in table_indices:
            self.counting.bump_counters(indices.ravel())
            self.verification.add(indices)
        self._inserted += num_descriptors

    def restore_counts(
        self,
        counters: np.ndarray,
        verification_bits: bytes | None = None,
        inserted_count: int = 0,
    ) -> None:
        """Replace this oracle's filter state with persisted state.

        The public restore path (persistence and snapshot stores route
        through it instead of poking ``oracle.counting.counters`` and
        ``oracle._inserted`` directly).  Inputs are validated before
        anything is mutated — a corrupt array raises
        :class:`repro.bloom.SnapshotCorruptError` and leaves the oracle
        untouched.
        """
        from repro.bloom.container import SnapshotCorruptError

        counters = np.asarray(counters)
        if counters.shape != (self.counting.num_counters,):
            raise SnapshotCorruptError(
                f"restored counters have shape {counters.shape}, this oracle "
                f"needs ({self.counting.num_counters},)"
            )
        if not np.issubdtype(counters.dtype, np.integer):
            raise SnapshotCorruptError(
                f"restored counters must be integers, got {counters.dtype}"
            )
        if counters.size and (
            int(counters.min()) < 0
            or int(counters.max()) > self.counting.saturation
        ):
            raise SnapshotCorruptError(
                f"restored counters fall outside [0, {self.counting.saturation}]"
            )
        if inserted_count < 0:
            raise SnapshotCorruptError(
                f"restored insertion count is negative ({inserted_count})"
            )
        expected_bits = (self.verification.num_bits + 7) // 8
        if verification_bits is not None and len(verification_bits) != expected_bits:
            raise SnapshotCorruptError(
                f"restored verification filter is {len(verification_bits)} "
                f"bytes, this oracle needs {expected_bits}"
            )
        self.counting.counters = counters.astype(np.uint16).copy()
        if verification_bits is not None:
            self.verification.load_packed_bytes(verification_bits)
        self._inserted = int(inserted_count)
        self.invalidate_transfer_cache()
        self._m_saturation.set(self.saturation_ratio())

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _counts_from_quantized(self, quantized: QuantizedBuckets) -> np.ndarray:
        """Min-counter estimate for already-quantized descriptors."""
        estimate = np.full(
            quantized.num_items, np.iinfo(np.int64).max, dtype=np.int64
        )
        for table, family in enumerate(self._families):
            indices = family.indices(quantized.table_vectors(table))
            table_min = self.counting.count_from_indices(indices)
            np.minimum(estimate, table_min, out=estimate)
        return estimate

    def counts(self, descriptors: np.ndarray) -> np.ndarray:
        """Commonness estimate per descriptor (vectorized hot path).

        The classic counting-filter estimate: minimum over every probed
        counter (K per table, across all L tables).  A nonzero minimum
        means the descriptor landed in a populated bucket in *every*
        table — i.e. it is cleanly present in the global database — and
        the value bounds how often.  Sensor noise that knocks a
        descriptor out of even one table's bucket drives the estimate to
        zero; combined with the count-0-last rule in
        :meth:`rank_by_uniqueness`, the fingerprint therefore
        concentrates on keypoints that are simultaneously *rare*,
        *present*, and *cleanly observed* — precisely the ones the
        server can match.  The client calls this on every extracted
        keypoint each frame, so it stays constant-time per keypoint:
        quantize, hash, gather, min-reduce.
        """
        start = time.perf_counter()
        descriptors = np.asarray(descriptors, dtype=np.float32)
        quantized = QuantizedBuckets(self.projections.quantize(descriptors))
        estimate = self._counts_from_quantized(quantized)
        self._m_counts_seconds.observe(time.perf_counter() - start)
        self._m_counts_descriptors.inc(descriptors.shape[0])
        return estimate

    def lookup(self, descriptor: np.ndarray) -> OracleLookup:
        """Full lookup with multiprobe and verification for one descriptor.

        Scalar convenience wrapper over :meth:`lookup_batch`.
        """
        descriptor = np.asarray(descriptor, dtype=np.float32).reshape(1, -1)
        return self.lookup_batch(descriptor)[0]

    def lookup_batch(self, descriptors: np.ndarray) -> list[OracleLookup]:
        """Full lookups (multiprobe + verification) for a descriptor batch.

        Implements the paper's retrieval path: the original bucket plus
        multiprobe perturbations are checked per table; a probe passes on
        a full K-match, or on a K-1 partial match (the off-by-one false
        negative case); either way the verification filter must confirm
        the probe's position tuple.

        Fully vectorized: per table, the perturbation schedules for the
        whole batch come from one ranked argsort
        (:func:`repro.lsh.multiprobe.ranked_perturbations`), every probe
        of every descriptor is Murmur-hashed in one
        ``(n * (P + 1), M)`` pass, and counters resolve with one gather.
        The scalar walk stopped at the first accepting probe per table;
        here all probes are evaluated and the first accept selected by
        ``argmax`` — same outcome, including which vetoes are counted
        (only those before the first accept).  Bit-equivalent to
        :meth:`_lookup_batch_scalar`, the retained reference
        implementation.

        One ``oracle.lookup_batch`` span covers the whole batch (span
        cost amortizes over the rows, keeping the hot path inside the
        obs overhead budget); under an open client span or a
        :func:`repro.obs.use_trace_context` block it joins the calling
        query's trace.
        """
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        if descriptors.shape[0] == 0:
            return []
        with trace_span(
            "oracle.lookup_batch",
            registry=self._registry,
            batch=int(descriptors.shape[0]),
        ) as span:
            results = self._lookup_batch_vectorized(descriptors)
            span.set("present", sum(1 for r in results if r.present))
        return results

    def _lookup_batch_vectorized(
        self, descriptors: np.ndarray
    ) -> list[OracleLookup]:
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        num = descriptors.shape[0]
        if num == 0:
            return []
        buckets, residuals = self.projections.quantize_with_residuals(descriptors)
        quantized = QuantizedBuckets(buckets)
        counts = self._counts_from_quantized(quantized)
        num_hashes = self.config.bloom_hashes
        quorum = (self.config.lsh.num_tables + 1) // 2
        accepting_tables = np.zeros(num, dtype=np.int64)
        used_multiprobe = np.zeros(num, dtype=bool)
        multiprobe_accepts = 0
        verification_vetoes = 0
        for table, family in enumerate(self._families):
            projections, deltas = ranked_perturbations(
                residuals[:, table, :], self.config.max_probes_per_table
            )
            probes = quantized.probe_vectors(table, projections, deltas)
            num_slots = probes.shape[1]  # original + P perturbations
            indices = family.indices(probes.reshape(num * num_slots, -1))
            probed = self.counting.gather(indices)
            nonzero = (probed > 0).sum(axis=1)
            match = (nonzero == num_hashes) | (nonzero == num_hashes - 1)
            verified = self.verification.verify(indices)
            accept = (match & verified).reshape(num, num_slots)
            veto = (match & ~verified).reshape(num, num_slots)
            any_accept = accept.any(axis=1)
            first_accept = np.argmax(accept, axis=1)
            # Vetoes are only observed up to (not including) the first
            # accepting probe — the scalar walk broke out there.
            cutoff = np.where(any_accept, first_accept, num_slots)
            slot_index = np.arange(num_slots)[np.newaxis, :]
            verification_vetoes += int(
                (veto & (slot_index < cutoff[:, np.newaxis])).sum()
            )
            perturbed_accept = any_accept & (first_accept > 0)
            accepting_tables += any_accept
            used_multiprobe |= perturbed_accept
            multiprobe_accepts += int(perturbed_accept.sum())
        results = [
            OracleLookup(
                count=int(counts[row]),
                present=bool(accepting_tables[row] >= quorum),
                used_multiprobe=bool(used_multiprobe[row]),
            )
            for row in range(num)
        ]
        self._m_lookups_total.inc(num)
        if multiprobe_accepts:
            self._m_multiprobe_accepts.inc(multiprobe_accepts)
        if verification_vetoes:
            self._m_verification_vetoes.inc(verification_vetoes)
        return results

    def _lookup_batch_scalar(self, descriptors: np.ndarray) -> list[OracleLookup]:
        """Reference per-row implementation of :meth:`lookup_batch`.

        The pre-vectorization probe walk, kept (a) as the ground truth
        the property tests compare the vectorized path against and (b)
        as the baseline the ``bench_parallel`` trajectory measures.
        """
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        num = descriptors.shape[0]
        if num == 0:
            return []
        buckets, residuals = self.projections.quantize_with_residuals(descriptors)
        quantized = QuantizedBuckets(buckets)
        counts = self._counts_from_quantized(quantized)
        counters = self.counting.counters
        quorum = (self.config.lsh.num_tables + 1) // 2
        multiprobe_accepts = 0
        verification_vetoes = 0
        results: list[OracleLookup] = []
        for row in range(num):
            row_quantized = QuantizedBuckets(buckets[row : row + 1])
            accepting_tables = 0
            used_multiprobe = False
            for table, family in enumerate(self._families):
                probes: list[tuple[np.ndarray, bool]] = [
                    (row_quantized.table_vectors(table)[0], False)
                ]
                for projection, delta in perturbation_sets(
                    residuals[row, table, :], self.config.max_probes_per_table
                ):
                    probes.append(
                        (row_quantized.perturbed(table, projection, delta)[0], True)
                    )
                for vector, is_probe in probes:
                    indices = family.indices(vector[np.newaxis, :])
                    probed = counters[indices[0]]
                    nonzero = int((probed > 0).sum())
                    full_match = nonzero == self.config.bloom_hashes
                    partial_match = nonzero == self.config.bloom_hashes - 1
                    if not (full_match or partial_match):
                        continue
                    if not bool(self.verification.verify(indices)[0]):
                        verification_vetoes += 1
                        continue
                    accepting_tables += 1
                    if is_probe:
                        used_multiprobe = True
                        multiprobe_accepts += 1
                    break  # original bucket first; stop at the first accept
            # Presence needs a quorum of tables: with coarse quantization
            # (W = 500) a few "hotspot" buckets absorb many descriptors,
            # so a single-table accept is exactly the LSH/Bloom-interplay
            # false positive the paper warns about.  Requiring agreement
            # from half the tables mirrors the median aggregation of
            # :meth:`counts`.
            results.append(
                OracleLookup(
                    count=int(counts[row]),
                    present=accepting_tables >= quorum,
                    used_multiprobe=used_multiprobe,
                )
            )
        self._m_lookups_total.inc(num)
        if multiprobe_accepts:
            self._m_multiprobe_accepts.inc(multiprobe_accepts)
        if verification_vetoes:
            self._m_verification_vetoes.inc(verification_vetoes)
        return results

    def rank_by_uniqueness(
        self, descriptors: np.ndarray, counts: np.ndarray | None = None
    ) -> np.ndarray:
        """Keypoint indices ordered most-unique first.

        "Uniqueness counts ... yield a partial ordering, ranking
        keypoints from highly unique to common."  Saturated counts sort
        last; ties break by original order (stable sort) so the ranking
        is deterministic.
        """
        if counts is None:
            counts = self.counts(descriptors)
        capped = np.minimum(counts, self.counting.saturation)
        # Count 0 means "definitely not in the global database" — such
        # keypoints (sensor noise, blur artifacts) cannot match anything
        # server-side, so they rank after every present keypoint.  The
        # most valuable features appear globally, but rarely.
        sort_key = np.where(capped == 0, self.counting.saturation + 1, capped)
        return np.argsort(sort_key, kind="stable")

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------

    def snapshot(self, gzip_level: int = DEFAULT_GZIP_LEVEL) -> BloomSnapshot:
        """The GZIP'd download the client fetches ("approximately 10MB")."""
        return serialize_counting(self.counting, gzip_level)

    def download_bytes(self, gzip_level: int = DEFAULT_GZIP_LEVEL) -> int:
        """Size of the compressed client download (counting + verification).

        Both filters route through the serialization container at the
        same GZIP level.  Compressing a multi-megabyte filter pair is
        the expensive part of size accounting, so the result is cached
        until the next insertion changes the filters.
        """
        key = (self._inserted, gzip_level)
        if self._download_cache is not None and self._download_cache[0] == key:
            return self._download_cache[1]
        total = (
            self.snapshot(gzip_level).compressed_bytes
            + serialize_verification(self.verification, gzip_level).compressed_bytes
        )
        self._download_cache = (key, total)
        return total

    def invalidate_transfer_cache(self) -> None:
        """Drop the cached download size.

        The cache keys on the insertion count, so callers that mutate
        the filters without inserting (a delta refresh patching
        ``counting.counters`` in place) must invalidate explicitly.
        """
        self._download_cache = None

    def storage_bytes(self) -> int:
        """Uncompressed logical size (Fig. 15's in-memory VisualPrint bar)."""
        return self.counting.storage_bytes() + self.verification.storage_bytes()
