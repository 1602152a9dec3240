"""Record the reference values every benchmark run checks its outputs against.

    python3 perfbench/record_reference.py

Runs each workload's reference simulation at a fixed seed and writes
``perfbench/reference.json``.  Re-record only in a change that is meant to
alter results, and say so in that change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEED = 20240801

# Final accuracies move in steps of one prediction over a shard of roughly
# 20-130 rows.  Perturbing every mixed delta by 1e-9 relative moved none of
# them, so these allow a few flipped predictions (a changed summation order,
# such as stacked client SGD) and still catch a mixing rule that ignores
# its decision on the cross-silo workloads.
SUMMARY_TOLERANCE = {
    "average": 0.002,
    "worst10": 0.01,
    "best10": 0.01,
    "gini_x100": 0.2,
    "acc_parity_gap": 0.02,
}
# The adaptive steps solve to 1e-9; regret over 300 rounds stays far inside.
REGRET_TOLERANCE = {"regret": 1e-6, "regret_to_bound": 1e-6}


def main() -> int:
    reference = {}
    for name, wl in WORKLOADS.items():
        result = wl.simulate(REFERENCE_SEED, None)
        if result.failed:
            print("\n".join(result.errors), file=sys.stderr)
            return 1
        reference[name] = {
            "seed": REFERENCE_SEED,
            "tolerance": REGRET_TOLERANCE if wl.kind == "stream" else SUMMARY_TOLERANCE,
            "finals": result.finals,
        }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
