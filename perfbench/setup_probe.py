"""Time one cold set-up of a workload and print the seconds.

Measures from ``import fairagg`` until the workload's first simulation is
ready for round 0: synthesis, partition and ``build_state`` for every
method, or stream generation and optimizer init.  numpy is imported before
the clock starts, so its own import time is not part of the figure.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before the clock on purpose)

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import fairagg  # noqa: E402,F401
from workloads import WORKLOADS, sim_seed  # noqa: E402

WORKLOADS[sys.argv[1]].setup(sim_seed(int(sys.argv[2]), 0))
print(repr(time.perf_counter() - start))
