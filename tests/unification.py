"""The baselines' shared exponentiated-gradient form, for the tests that check it.

Each closed-form baseline equals one multiplicative-update step from the
size-proportional (static) point, driven by a response and step that
``unify_instance`` derives from the method's hyperparameters.  No run path
takes this step; it is the reference the baselines are checked against.
"""

import numpy as np

from fairagg.aggregator import AggregatorMethod, MethodKind
from fairagg.errors import DomainError, InvalidDimensionError

BASELINE_KINDS = (
    MethodKind.STATIC,
    MethodKind.AFL,
    MethodKind.QFEDAVG,
    MethodKind.TERM,
    MethodKind.PROPFAIR,
)


def eg_unified_step(prev: np.ndarray, response: np.ndarray, step: float) -> np.ndarray:
    """One exponentiated-gradient update: p'_i proportional to p_i e^{r_i/step}."""
    prev = np.asarray(prev, dtype=float)
    response = np.asarray(response, dtype=float)
    if prev.shape != response.shape or prev.ndim != 1:
        raise InvalidDimensionError("decision and response must be equal-length 1-D")
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step}")
    scaled = response / step
    # Subtract the max before exponentiating; the common factor cancels in
    # the normalization but keeps the exponentials finite.
    weights = prev * np.exp(scaled - np.max(scaled))
    total = float(weights.sum())
    if total <= 0.0:
        raise DomainError("update annihilated all mass; previous decision degenerate")
    return weights / total


def unify_instance(
    kind: MethodKind, rng: np.random.Generator
) -> tuple[AggregatorMethod, np.ndarray, np.ndarray, np.ndarray, float]:
    """Draw one random (method, sizes, losses) instance and its EG drive.

    Returns (method, sizes, losses, eg_response, eg_step).
    """
    k = int(rng.integers(2, 11))
    sizes = rng.integers(1, 101, size=k).astype(float)
    losses = rng.uniform(0.05, 1.8, size=k)
    if kind is MethodKind.QFEDAVG:
        method = AggregatorMethod(kind, q=float(rng.choice([0.1, 1.0, 5.0])))
        return method, sizes, losses, method.q * np.log(losses), 1.0
    if kind is MethodKind.TERM:
        method = AggregatorMethod(kind, tilt=float(rng.choice([0.1, 1.0, 10.0])))
        return method, sizes, losses, losses.copy(), 1.0 / method.tilt
    if kind is MethodKind.PROPFAIR:
        method = AggregatorMethod(kind, loss_ceiling=float(rng.choice([2.0, 3.0, 5.0])))
        return method, sizes, losses, -np.log(method.loss_ceiling - losses), 1.0
    if kind is MethodKind.AFL:
        # Drive the power high enough that everything but the argmax
        # vanishes numerically: scale by the runner-up log-gap.
        log_losses = np.log(losses)
        ordered = np.sort(log_losses)
        gap = max(ordered[-1] - ordered[-2], 1e-12)
        power = 60.0 / gap
        return AggregatorMethod(kind), sizes, losses, power * log_losses, 1.0
    return AggregatorMethod(kind), sizes, losses, np.zeros(k), 1.0
