"""Metrics regression gate: compare two metrics JSON snapshots.

``python -m repro metrics-diff BASELINE CURRENT`` turns two
:meth:`repro.obs.MetricsRegistry.to_dict` snapshots (as written by
``--metrics-json``) into a pass/fail verdict: every scalar named in the
*baseline* must exist in *current* and sit within
``abs_tol + rel_tol * |baseline|`` of its baseline value.  The baseline
defines the contract — metrics present only in the current snapshot are
ignored, so adding instrumentation never breaks the gate, while a
counter that silently vanishes (an instrumented code path stopped
running) is a violation, not a skip.

Scalars compared: counter values, gauge values, and sketch
*observation counts* (exposed as ``<name>.count``).  Sketch sums and
quantiles are host-dependent wall-clock and deliberately excluded from
the default contract; CI baselines should name deterministic counters.
Snapshots written before the reservoir histogram was removed keep their
distributions under ``"histograms"``; that section flattens to the same
``<name>.count`` scalars, so old baselines gate new snapshots as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Any

__all__ = ["MetricViolation", "diff_metrics", "format_report", "scalar_samples"]


def scalar_samples(snapshot: dict[str, Any]) -> dict[str, float]:
    """Snapshot dict → flat ``{scalar_name: value}`` comparison samples.

    Snapshot keys already carry their labels rendered as
    ``name{k=v,...}`` (see :meth:`MetricsRegistry.to_dict`), so the key
    is used verbatim.
    """
    samples: dict[str, float] = {}
    for section in ("counters", "gauges"):
        for name, entry in snapshot.get(section, {}).items():
            samples[name] = float(entry["value"])
    for section in ("histograms", "sketches"):
        for name, entry in snapshot.get(section, {}).items():
            samples[name + ".count"] = float(entry["count"])
    return samples


@dataclass(frozen=True)
class MetricViolation:
    """One scalar outside the baseline contract."""

    name: str
    baseline: float
    current: float | None  # None: present in baseline, missing in current
    allowed: float

    def describe(self) -> str:
        if self.current is None:
            return f"{self.name}: baseline {self.baseline:g} but missing in current"
        return (
            f"{self.name}: current {self.current:g} vs baseline {self.baseline:g} "
            f"(|delta| {abs(self.current - self.baseline):g} > allowed {self.allowed:g})"
        )


def diff_metrics(
    baseline: dict[str, Any],
    current: dict[str, Any],
    rel_tol: float = 0.25,
    abs_tol: float = 0.0,
    include: list[str] | None = None,
) -> tuple[int, list[MetricViolation]]:
    """Check ``current`` against the ``baseline`` contract.

    Returns ``(num_checked, violations)``.  ``include`` restricts the
    contract to baseline scalars matching any of the glob patterns.
    """
    if rel_tol < 0 or abs_tol < 0:
        raise ValueError("tolerances must be non-negative")
    base = scalar_samples(baseline)
    cur = scalar_samples(current)
    if include:
        base = {
            name: value
            for name, value in base.items()
            if any(fnmatch(name, pattern) for pattern in include)
        }
    violations: list[MetricViolation] = []
    for name in sorted(base):
        base_value = base[name]
        allowed = abs_tol + rel_tol * abs(base_value)
        if name not in cur:
            violations.append(
                MetricViolation(
                    name=name, baseline=base_value, current=None, allowed=allowed
                )
            )
            continue
        # NaN never satisfies a comparison, so the naive `delta > allowed`
        # test would wave a NaN current value through; exact equality
        # keeps matching infinities (and NaN baselines matched by NaN
        # currents) passing, everything else falls through to the delta
        # check, where a NaN delta is always a violation.
        current_value = cur[name]
        if current_value == base_value or (
            math.isnan(base_value) and math.isnan(current_value)
        ):
            continue
        # A non-finite baseline poisons `allowed` (inf tolerance accepts
        # anything), so past the exact-match check above it only fails.
        delta = abs(current_value - base_value)
        if math.isnan(delta) or delta > allowed or not math.isfinite(base_value):
            violations.append(
                MetricViolation(
                    name=name,
                    baseline=base_value,
                    current=current_value,
                    allowed=allowed,
                )
            )
    return len(base), violations


def format_report(num_checked: int, violations: list[MetricViolation]) -> str:
    """One-line-per-violation report plus a summary verdict line."""
    lines = [violation.describe() for violation in violations]
    verdict = "FAIL" if violations else "OK"
    lines.append(
        f"metrics-diff: {verdict} — {len(violations)} violation(s) "
        f"across {num_checked} checked scalar(s)"
    )
    return "\n".join(lines)
