"""Decision-loss calculus for the server's mixing problem.

The per-round loss of a mixing decision p against a response vector r is the
negative logarithmic growth -log(1 + <p, r>).  This module provides the loss,
its gradient, the sup-norm Lipschitz bounds that drive step sizes, the
doubly-robust completion of partially observed responses, and the gradient
linearization that makes the estimator unbiased-friendly.

Natural logarithms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, InvalidDimensionError
from .response import ResponseBounds


@dataclass(frozen=True)
class LipschitzConstants:
    """Sup-norm gradient bounds for the exact and doubly-robust gradient streams.

    ``l_inf`` bounds -r / (1 + <p, r>) over responses in [c1, c2]; ``l_inf_dr``
    also covers a doubly-robust estimate built at the given propensity, so
    0 < l_inf < l_inf_dr.
    """

    l_inf: float
    l_inf_dr: float


def _check_pair(p: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if p.shape != r.shape or p.ndim != 1:
        raise InvalidDimensionError(
            f"decision and response must be equal-length 1-D, got {p.shape} vs {r.shape}"
        )
    return p, r


def decision_loss(p: np.ndarray, r: np.ndarray) -> float:
    """Negative logarithmic growth -log(1 + <p, r>)."""
    p, r = _check_pair(p, r)
    growth = 1.0 + float(p @ r)
    if growth <= 0.0:
        raise DomainError(f"1 + <p, r> must be positive, got {growth}")
    return -float(np.log(growth))


def decision_grad(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Gradient of the decision loss in p: -r / (1 + <p, r>)."""
    p, r = _check_pair(p, r)
    growth = 1.0 + float(p @ r)
    if growth <= 0.0:
        raise DomainError(f"1 + <p, r> must be positive, got {growth}")
    return -r / growth


def dr_response(values: np.ndarray, observed: np.ndarray, propensity: float) -> np.ndarray:
    """Doubly-robust completion of a partially observed response vector.

    ``values`` holds the K responses (entries where ``observed`` is False are
    ignored).  Observed entries are inverse-propensity corrected around the
    observed mean; unobserved entries are imputed with that mean.  At
    propensity 1 this is plain mean imputation: every observed entry comes back
    exactly, since (1 - 1/1) * mean + v / 1 is v for finite nonnegative
    responses.
    """
    values = np.asarray(values, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    if values.shape != observed.shape or values.ndim != 1:
        raise InvalidDimensionError(
            "values and observed must be equal-length 1-D, "
            f"got {values.shape} vs {observed.shape}"
        )
    if not (0.0 < propensity <= 1.0):
        raise DomainError(f"propensity must be in (0,1], got {propensity}")
    if not observed.any():
        raise DegenerateInputError("no observed entries to estimate from")
    mean = float(values[observed].mean())
    return np.where(observed, (1.0 - 1.0 / propensity) * mean + values / propensity, mean)


def linearized_grad(r_hat: np.ndarray, p: np.ndarray, r0_scalar: float) -> np.ndarray:
    """First-order expansion of the decision gradient around a flat reference.

    The reference is r0_scalar * ones, chosen as the round's observed mean so
    the expansion point is deterministic given the round.  At r_hat equal to
    the reference this returns the exact gradient there.
    """
    p, r_hat = _check_pair(p, r_hat)
    growth = 1.0 + r0_scalar * float(p.sum())
    if growth <= 0.0:
        raise DomainError(f"1 + <p, r0> must be positive, got {growth}")
    r0 = np.full_like(r_hat, r0_scalar)
    correction = r0 * float(p @ (r_hat - r0)) / (growth * growth)
    return -r_hat / growth + correction


def lipschitz_constants(bounds: ResponseBounds, sampling_c: float) -> LipschitzConstants:
    """Sup-norm bounds for the exact and doubly-robust gradient streams."""
    if not (0.0 < sampling_c <= 1.0):
        raise DomainError(f"sampling fraction must be in (0,1], got {sampling_c}")
    l_inf = bounds.c2 / (1.0 + bounds.c1)
    l_inf_dr = l_inf + 2.0 * (bounds.c2 - bounds.c1) / (sampling_c * (1.0 + bounds.c1))
    return LipschitzConstants(l_inf=l_inf, l_inf_dr=l_inf_dr)
