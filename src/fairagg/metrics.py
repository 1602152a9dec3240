"""Fairness metrics over client performance, and regret accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregator import MethodKind
from .decision import decision_loss
from .errors import DomainError, InvalidDimensionError
from .simplex import minimize_over_simplex


@dataclass(frozen=True)
class PerformanceSummary:
    """Distribution summary of a per-client performance vector."""

    average: float
    worst10: float
    best10: float
    gini_x100: float
    acc_parity_gap: float


def performance_summary(values: np.ndarray) -> PerformanceSummary:
    """Average, tail means, Gini (x100), and best-worst gap of client scores.

    The tails are the means of the bottom and top ceil(K/10) values, so with
    fewer than ten clients they degrade to the single worst and best client.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise InvalidDimensionError("values must be a nonempty 1-D vector")
    if np.any(values < 0.0):
        raise DomainError("performance values must be nonnegative")

    k = values.size
    ordered = np.sort(values)
    tail = math.ceil(k / 10)
    # Mean over the sorted vector: permuted inputs then agree bit-for-bit.
    mean = float(ordered.mean())

    if mean > 0.0:
        # Population Gini via the sorted-rank identity; x100 to match the
        # usual percent-style reporting.  The identity's rounding can leave
        # a tiny negative residue on near-constant input, so floor at zero.
        ranks = np.arange(1, k + 1)
        gini = max(0.0, float((2.0 * ranks - k - 1.0) @ ordered) / (k * k * mean))
    else:
        gini = 0.0

    return PerformanceSummary(
        average=mean,
        worst10=float(ordered[:tail].mean()),
        best10=float(ordered[-tail:].mean()),
        gini_x100=100.0 * gini,
        acc_parity_gap=float(ordered[-1] - ordered[0]),
    )


def cumulative_regret(decisions, responses) -> tuple[float, np.ndarray]:
    """Cumulative decision loss above the best fixed decision in hindsight.

    The hindsight optimum minimizes the summed per-round losses over the
    simplex; it is recomputed here with the shared solver.  The regret can
    be negative: a decision sequence that moves with the responses can beat
    every fixed decision.
    """
    decisions = [np.asarray(p, dtype=float) for p in decisions]
    responses = [np.asarray(r, dtype=float) for r in responses]
    if len(decisions) == 0 or len(decisions) != len(responses):
        raise InvalidDimensionError("need equal-length nonempty decision/response logs")
    k = decisions[0].size
    resp = np.stack(responses)

    # Both sides evaluate -log(1 + <p, r>) per round and add the rounds with
    # one np.sum, so a log whose decisions equal the hindsight point (as every
    # decision does at K=1) has regret exactly 0.
    def fun(p: np.ndarray) -> tuple[float, np.ndarray]:
        rp = resp @ p
        return -float(np.sum(np.log(1.0 + rp))), -(resp / (1.0 + rp)[:, None]).sum(axis=0)

    hindsight = minimize_over_simplex(fun, k)
    incurred = float(np.sum([decision_loss(p, r) for p, r in zip(decisions, responses)]))
    regret = incurred - fun(hindsight)[0]
    return float(regret), hindsight


def regret_envelope(kind: MethodKind, k: int, horizon: int, l_inf: float) -> float:
    """Regret bound of an adaptive method after ``horizon`` rounds on ``k``
    clients, for gradients bounded by ``l_inf`` in sup norm: the ONS bound
    for AAggFFS, the entropic FTRL bound for AAggFFD."""
    if kind is MethodKind.AAGGFF_S:
        return 2.0 * l_inf * k * (1.0 + math.log(1.0 + horizon / (16.0 * k)))
    if kind is MethodKind.AAGGFF_D:
        return 2.0 * l_inf * math.sqrt(horizon * math.log(k))
    raise DomainError(f"{kind.value} has no regret envelope")
