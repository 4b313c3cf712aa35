"""CI gate for the fig13-gate job: scene-identification accuracy.

Runs the fig13 experiment at ``--fast`` scale and compares each scheme's
median and mean precision and recall over the scenes with
``ci/fig13_gate_baseline.json``.  LSH lookup and ranking changes need
not be bit-identical, so accuracy is the contract: the job fails if any
of those figures of any scheme falls more than 0.03 below its baseline.
At this scale the medians sit at 1.0; the means move when a single
scene loses a single view (a third of its recall), so they are the
sensitive half of the gate.

Usage::

    PYTHONPATH=src python ci/fig13_gate.py                     # gate
    PYTHONPATH=src python ci/fig13_gate.py --write-baseline    # regenerate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.cli import _FAST_PARAMS
from repro.evaluation.experiments import fig13_precision_recall

TOLERANCE = 0.03
GATED = ("precision_median", "recall_median", "precision_mean", "recall_mean")
BASELINE = Path(__file__).resolve().parent / "fig13_gate_baseline.json"


def measure() -> dict[str, dict[str, float]]:
    """Median and mean precision and recall per scheme at ``--fast`` scale."""
    result = fig13_precision_recall.run(**_FAST_PARAMS["fig13"])
    return {
        scheme: {
            "scenes": int(np.asarray(pr["precision"]).size),
            "precision_median": round(float(np.median(pr["precision"])), 4),
            "recall_median": round(float(np.median(pr["recall"])), 4),
            "precision_mean": round(float(np.mean(pr["precision"])), 4),
            "recall_mean": round(float(np.mean(pr["recall"])), 4),
        }
        for scheme, pr in result["cdfs"].items()
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
    for scheme, expected in baseline.items():
        if scheme not in measured:
            failures.append(f"{scheme} missing from the run")
            continue
        for key in GATED:
            floor = expected[key] - TOLERANCE
            value = measured[scheme][key]
            verdict = "ok" if value >= floor else "FAIL"
            print(
                f"{scheme:<18} {key:<16} {value:>6.3f}  baseline "
                f"{expected[key]:>6.3f}  floor {floor:>6.3f}  {verdict}"
            )
            if value < floor:
                failures.append(f"{scheme} {key} {value:.3f} < {floor:.3f}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
