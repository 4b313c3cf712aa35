"""CI gate for the fig19-smoke job: localization accuracy.

Runs the fig19 experiment at smoke scale (office and cafeteria, 20
queries each) and compares each venue's median and p90 3D error with
``ci/fig19_baseline.json``.  The solver is not bit-identical across
implementations, so accuracy is the contract: the job fails if either
quantile of either venue exceeds its baseline by more than 15 %.

Usage::

    PYTHONPATH=src python ci/fig19_gate.py                     # gate
    PYTHONPATH=src python ci/fig19_gate.py --write-baseline    # regenerate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.evaluation.experiments import fig19_localization

VENUES = ("office", "cafeteria")
QUERIES_PER_VENUE = 20
TOLERANCE = 0.15
BASELINE = Path(__file__).resolve().parent / "fig19_baseline.json"


def measure() -> dict[str, dict[str, float]]:
    """Median and p90 3D error (metres) per venue at smoke scale."""
    result = fig19_localization.run(
        venues=VENUES, queries_per_venue=QUERIES_PER_VENUE
    )
    return {
        venue: {
            "queries": int(errors.size),
            "median_m": round(float(np.median(errors)), 4),
            "p90_m": round(float(np.percentile(errors, 90)), 4),
        }
        for venue, errors in result["errors"].items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    measured = measure()
    if args.write_baseline:
        BASELINE.write_text(json.dumps(measured, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {BASELINE.name}")
        return 0
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    failures: list[str] = []
    for venue in VENUES:
        for key in ("median_m", "p90_m"):
            limit = baseline[venue][key] * (1.0 + TOLERANCE)
            value = measured[venue][key]
            verdict = "ok" if value <= limit else "FAIL"
            print(
                f"{venue:<10} {key:<9} {value:>7.3f} m  baseline "
                f"{baseline[venue][key]:>7.3f} m  limit {limit:>7.3f} m  {verdict}"
            )
            if value > limit:
                failures.append(f"{venue} {key} {value:.3f} m > {limit:.3f} m")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
