"""What a result was measured on: code revision, interpreter, BLAS, threads, host.

Nothing here imports fairagg.  ``calibrate`` times a fixed loop before a run
as a diagnostic for slow host phases; it never rescales a metric.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def calibrate() -> float:
    """Seconds taken by a fixed interpreter-and-numpy loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    m = np.linspace(-1.0, 1.0, 400).reshape(20, 20)
    for _ in range(2_000):
        m = np.tanh(m @ m.T * 0.05)
    return time.perf_counter() - start


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the library's sources, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_config() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):  # numpy older than 1.25
        return {}
    return {
        key: {k: deps[key].get(k) for k in ("name", "version") if k in deps[key]}
        for key in ("blas", "lapack")
        if key in deps
    }


def environment(root: Path, seed: int) -> dict:
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root / "src" / "fairagg"),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(affinity) if affinity is not None else None,
        "machine": platform.machine(),
        "seed": seed,
    }
