"""In-memory span tracer installed around fairagg's public functions.

Each wrapper is bound on the module attribute the caller looks the function
up through (``fedsim`` binds ``loss_and_grad`` itself, ``aggregator`` binds
``project_generalized``, and so on), so nothing inside ``src/`` changes. A
span is (name, start, end, parent, round id); self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from pathlib import Path

import numpy as np

# (module the caller looks the name up in, attribute, span name).  The same
# function bound in two modules gets one span name.
WRAPPED = (
    ("fairagg.fedsim", "run_round", "fedsim.run_round"),
    ("fairagg.fedsim", "sample_clients", "fedsim.sample_clients"),
    ("fairagg.fedsim", "client_update", "fedsim.client_update"),
    ("fairagg.fedsim", "server_apply", "fedsim.server_apply"),
    ("fairagg.fedsim", "loss_and_grad", "modeldata.loss_and_grad"),
    ("fairagg.fedsim", "accuracy", "modeldata.accuracy"),
    ("fairagg.fedsim", "transform_losses", "response.transform_losses"),
    ("fairagg.fedsim", "decision_grad", "decision.decision_grad"),
    ("fairagg.fedsim", "decision_loss", "decision.decision_loss"),
    ("fairagg.fedsim", "dr_response", "decision.dr_response"),
    ("fairagg.fedsim", "linearized_grad", "decision.linearized_grad"),
    ("fairagg.fedsim", "baseline_coefficients", "aggregator.baseline_coefficients"),
    ("fairagg.fedsim", "aaggff_s_step", "aggregator.aaggff_s_step"),
    ("fairagg.fedsim", "aaggff_d_step", "aggregator.aaggff_d_step"),
    ("fairagg.fedsim", "normalize_selected", "aggregator.normalize_selected"),
    ("fairagg.fedsim", "performance_summary", "metrics.performance_summary"),
    ("fairagg.aggregator", "aaggff_s_step", "aggregator.aaggff_s_step"),
    ("fairagg.aggregator", "aaggff_d_step", "aggregator.aaggff_d_step"),
    ("fairagg.aggregator", "project_generalized", "simplex.project_generalized"),
    ("fairagg.decision", "decision_grad", "decision.decision_grad"),
    ("fairagg.simplex", "minimize_over_simplex", "simplex.minimize_over_simplex"),
    ("fairagg.simplex", "project_to_simplex", "simplex.project_to_simplex"),
    ("fairagg.metrics", "minimize_over_simplex", "simplex.minimize_over_simplex"),
    ("fairagg.metrics", "decision_loss", "decision.decision_loss"),
    ("fairagg.metrics", "cumulative_regret", "metrics.cumulative_regret"),
    ("fairagg.cli", "build_state", "cli.build_state"),
    ("fairagg.cli", "make_synthetic", "modeldata.make_synthetic"),
    ("fairagg.cli", "partition", "modeldata.partition"),
    ("fairagg.cli", "write_results", "cli.write_results"),
)

# Rows a loss_and_grad call works on: its third argument is the batch.
_ROWS_OF = {"modeldata.loss_and_grad": lambda args, kwargs: len(args[2])}


class Tracer:
    """Collects spans in memory while installed; restores every binding on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Parallel columns, one entry per span in the order spans open.
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.round: list[int] = []
        self.failed: list[bool] = []
        self.rows: dict[str, int] = {}
        self.round_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        rows_of = _ROWS_OF.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.round.append(tracer.round_id)
            tracer.failed.append(False)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            if rows_of is not None:
                tracer.rows[name] = tracer.rows.get(name, 0) + rows_of(args, kwargs)
            tracer.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = True
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the given name."""
        return self._wrap(fn, name)(*args, **kwargs)

    def __enter__(self) -> "Tracer":
        # A name a module no longer binds is skipped; its span then records
        # no calls, which the run reports as a failure where it is expected.
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    # aggregation

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls, inclusive and self seconds.

        No wrapped function reaches itself through another, so summing
        inclusive time per name counts no interval twice.
        """
        n = len(self.start)
        name_id = np.asarray(self.name_id, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])

        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        failed = np.bincount(name_id, weights=np.asarray(self.failed, float), minlength=k)
        self_s = np.bincount(name_id, weights=dur - child_time, minlength=k)
        incl_s = np.bincount(name_id, weights=dur, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "failed": int(failed[i]),
                "self_s": float(self_s[i]),
                "incl_s": float(incl_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "round", "failed"])
            origin = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.writerow([
                    i,
                    self.names[self.name_id[i]],
                    f"{self.start[i] - origin:.9f}",
                    f"{self.end[i] - origin:.9f}",
                    self.parent[i],
                    self.round[i],
                    int(self.failed[i]),
                ])
