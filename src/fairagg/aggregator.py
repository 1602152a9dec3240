"""Mixing-coefficient rules behind one stateful interface.

Five classical fair-aggregation baselines share a single multiplicative-update
form (exponentiated gradient over the simplex); the two adaptive methods are
online convex optimizers over the decision simplex:

* the sequence-quadratic method keeps a full second-order surrogate and emits
  each decision by a generalized projection (cross-silo regime), and
* the closed-form method runs follow-the-regularized-leader with a negative
  entropy regularizer and a time-decaying step, so each decision is a softmax
  of the negated cumulative gradient (cross-device regime).

``optimizer_init`` is the one place a method is mapped to its optimizer; both
optimizers advance by ``step(gradient) -> (state, decision)``, which updates
the state in place and returns that same object.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .decision import lipschitz_constants
from .errors import DomainError, InvalidDimensionError, NumericalFailureError
from .response import ResponseBounds
from .simplex import project_generalized, uniform_decision

logger = logging.getLogger(__name__)

# Rebuild the maintained inverse from scratch this often to stop rank-1
# update drift from accumulating.
REFACTOR_EVERY = 64


class MethodKind(enum.Enum):
    STATIC = "Static"
    AFL = "AFL"
    QFEDAVG = "QFedAvg"
    TERM = "TERM"
    PROPFAIR = "PropFair"
    AAGGFF_S = "AAggFFS"
    AAGGFF_D = "AAggFFD"


# Default hyperparameters sit at the middle of the usual search grids:
# q in {0.1, 1, 5}, tilt in {0.1, 1, 10}, loss ceiling in {2, 3, 5}.
@dataclass(frozen=True)
class AggregatorMethod:
    kind: MethodKind
    q: float = 1.0                 # power on losses (QFedAvg); q = 0 is Static
    tilt: float = 1.0              # exponential tilting constant (TERM)
    loss_ceiling: float = 3.0      # must exceed every observed loss (PropFair)

    def __post_init__(self):
        if self.q < 0.0:
            raise DomainError(f"q must be nonnegative, got {self.q}")


BASELINE_KINDS = (
    MethodKind.STATIC,
    MethodKind.AFL,
    MethodKind.QFEDAVG,
    MethodKind.TERM,
    MethodKind.PROPFAIR,
)


def _normalize(weights: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    total = float(weights.sum())
    if total <= 0.0 or not np.isfinite(total):
        logger.warning(
            "all-zero aggregation weights; falling back to size-proportional mixing"
        )
        weights = sizes.astype(float)
        total = float(weights.sum())
    return weights / total


def baseline_coefficients(
    method: AggregatorMethod, sample_sizes: np.ndarray, losses: np.ndarray
) -> np.ndarray:
    """Closed-form mixing coefficients of the five unified baselines."""
    sizes = np.asarray(sample_sizes, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if sizes.shape != losses.shape or sizes.ndim != 1 or sizes.size < 1:
        raise InvalidDimensionError("sample sizes and losses must be equal-length 1-D")
    if np.any(sizes <= 0):
        raise DomainError("sample sizes must be positive")

    kind = method.kind
    if kind is MethodKind.STATIC:
        weights = sizes.copy()
    elif kind is MethodKind.QFEDAVG:
        weights = sizes * np.power(losses, method.q)
    elif kind is MethodKind.TERM:
        # Shift the exponent for overflow safety; a common factor cancels.
        exponent = method.tilt * losses
        weights = sizes * np.exp(exponent - exponent.max())
    elif kind is MethodKind.PROPFAIR:
        ceiling = method.loss_ceiling
        if ceiling <= losses.max():
            raise DomainError(
                f"loss ceiling {ceiling} must exceed the max loss {losses.max()}"
            )
        weights = sizes / (ceiling - losses)
    elif kind is MethodKind.AFL:
        # Exact limit of QFedAvg as q grows: all mass on the worst-off
        # clients, uniformly across ties.
        weights = (losses == losses.max()).astype(float)
        return weights / weights.sum()
    else:
        raise DomainError(f"{kind.value} has no closed-form baseline coefficients")
    return _normalize(weights, sizes)


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


# ---------------------------------------------------------------------------
# Sequence-quadratic method (cross-silo)
# ---------------------------------------------------------------------------

@dataclass
class OnsState:
    """State of the quadratic-surrogate optimizer; each step updates it in place.

    ``mat`` accumulates alpha*I + beta * sum of g g^T, with alpha = 4*k*l_inf;
    ``rhs`` accumulates beta * <g, p> * g; ``grad_sum`` the plain gradient
    sum.  ``inv`` mirrors the inverse of ``mat`` via rank-1 updates, rebuilt
    every REFACTOR_EVERY rounds.  It gives the unconstrained surrogate minimizer
    ``inv @ (rhs - grad_sum)`` and drives the exact metric projection of each
    decision.  The projection is certified against ``mat`` itself, but the
    point it projects comes from ``inv``, so drift in ``inv`` moves the
    decision without any error; the rebuild every REFACTOR_EVERY rounds
    bounds that drift.  A step replaces ``last_decision`` rather than write into it.
    """

    round: int
    grad_sum: np.ndarray
    mat: np.ndarray
    rhs: np.ndarray
    beta: float
    last_decision: np.ndarray
    inv: np.ndarray

    def step(self, gradient: np.ndarray) -> tuple[OnsState, np.ndarray]:
        return aaggff_s_step(self, gradient)


def ons_init(k: int, l_inf: float) -> OnsState:
    """Fresh optimizer state; the first decision is uniform by construction."""
    if k < 1:
        raise InvalidDimensionError(f"need at least one client, got {k}")
    if l_inf <= 0.0:
        raise DomainError(f"gradient bound must be positive, got {l_inf}")
    alpha = 4.0 * k * l_inf
    beta = 1.0 / (4.0 * l_inf)
    return OnsState(
        round=0,
        grad_sum=np.zeros(k),
        mat=alpha * np.eye(k),
        rhs=np.zeros(k),
        beta=beta,
        last_decision=uniform_decision(k),
        inv=np.eye(k) / alpha,
    )


def aaggff_s_step(state: OnsState, gradient: np.ndarray) -> tuple[OnsState, np.ndarray]:
    """Fold one gradient into the quadratic surrogate and emit the minimizer.

    The new decision is the generalized projection of the unconstrained
    surrogate minimizer onto the simplex, in the metric of the accumulated
    matrix.  ``gradient`` must be the decision-loss gradient evaluated at
    ``state.last_decision``.  Returns ``state``, updated in place, and the decision.

    The gradient's shape and finiteness and the rank-1 denominator
    ``1 + beta g^T inv g`` are checked before the first write, so a step that
    raises on them leaves the state as it was.  Only the scheduled inverse
    rebuild (of a matrix >= alpha*I) and the projection follow the writes: on
    these metrics the projection's exact solve passes its KKT check at
    iteration 0, and every caller ends the seed on any error.
    """
    g = np.asarray(gradient, dtype=float)
    if g.shape != state.grad_sum.shape:
        raise InvalidDimensionError("gradient length does not match state")
    if not np.all(np.isfinite(g)):
        raise DomainError("gradient entries must be finite")
    rebuild = (state.round + 1) % REFACTOR_EVERY == 0
    if not rebuild:
        # Rank-1 inverse update for mat + beta g g^T.
        iv = state.inv @ g
        denom = 1.0 + state.beta * float(g @ iv)
        if denom <= 0.0:
            raise NumericalFailureError(
                "positive definiteness lost in the rank-1 inverse update"
            )

    # Writes only from here on: a step that fails a check leaves the state as it was.
    state.round += 1
    state.grad_sum += g
    state.rhs += state.beta * float(g @ state.last_decision) * g
    # einsum forms an outer product several times faster than np.outer's
    # broadcast multiply, with the same values; scaling and summing in place
    # keeps both updates bit for bit equal to the textbook expressions.
    outer = np.einsum("i,j->ij", g, g)
    outer *= state.beta
    state.mat += outer
    if rebuild:
        state.inv = np.linalg.inv(state.mat)
    else:
        outer = np.einsum("i,j->ij", iv, iv)
        outer *= state.beta / denom
        state.inv -= outer
    state.last_decision = project_generalized(
        state.inv @ (state.rhs - state.grad_sum), state.mat, b_inv=state.inv
    )
    return state, state.last_decision


# ---------------------------------------------------------------------------
# Closed-form method (cross-device)
# ---------------------------------------------------------------------------

@dataclass
class FtrlState:
    """Cumulative-gradient state of the closed-form optimizer, stepped in place.

    ``l_inf_dr`` is the sup-norm bound of the gradient stream actually being
    fed (the doubly-robust bound under partial participation, the exact bound
    under full participation); it sets the time-decaying step.
    """

    round: int
    cum_grad: np.ndarray
    l_inf_dr: float

    def step(self, gradient: np.ndarray) -> tuple[FtrlState, np.ndarray]:
        return aaggff_d_step(self, gradient)


def ftrl_init(k: int, l_inf_dr: float) -> FtrlState:
    if k < 1:
        raise InvalidDimensionError(f"need at least one client, got {k}")
    if l_inf_dr <= 0.0:
        raise DomainError(f"gradient bound must be positive, got {l_inf_dr}")
    return FtrlState(round=0, cum_grad=np.zeros(k), l_inf_dr=l_inf_dr)


def ftrl_decision(cum_grad: np.ndarray, rounds_seen: int, l_inf_dr: float) -> np.ndarray:
    """Softmax decision for the accumulated gradient after ``rounds_seen`` rounds."""
    k = cum_grad.size
    exponent = -np.sqrt(np.log(k)) * cum_grad / (l_inf_dr * np.sqrt(rounds_seen + 1.0))
    weights = np.exp(exponent - exponent.max())
    return weights / weights.sum()


def aaggff_d_step(
    state: FtrlState, dr_gradient: np.ndarray
) -> tuple[FtrlState, np.ndarray]:
    """Fold one (doubly-robust, linearized) gradient into ``state`` in place;
    return the state and the new decision."""
    g = np.asarray(dr_gradient, dtype=float)
    if g.shape != state.cum_grad.shape:
        raise InvalidDimensionError("gradient length does not match state")
    if not np.all(np.isfinite(g)):
        raise DomainError("gradient entries must be finite")
    state.cum_grad += g
    state.round += 1
    return state, ftrl_decision(state.cum_grad, state.round, state.l_inf_dr)


def optimizer_init(
    kind: MethodKind, k: int, bounds: ResponseBounds, propensity: float
) -> OnsState | FtrlState | None:
    """Fresh optimizer of an adaptive method, sized by the bound of the
    gradients it is fed: doubly-robust ones for AAggFFD when each client is
    sampled with ``propensity`` below one.  None for a closed-form baseline."""
    constants = lipschitz_constants(bounds, propensity)
    if kind is MethodKind.AAGGFF_S:
        return ons_init(k, constants.l_inf)
    if kind is MethodKind.AAGGFF_D:
        return ftrl_init(k, constants.l_inf_dr if propensity < 1.0 else constants.l_inf)
    return None


def normalize_selected(p: np.ndarray, selected) -> np.ndarray:
    """Restrict a decision to the selected clients and renormalize.

    Returns the weights aligned with ``sorted(selected)``.  If the selected
    coordinates carry no mass, falls back to uniform with a warning.
    """
    p = np.asarray(p, dtype=float)
    idx = np.asarray(sorted(selected), dtype=int)
    if idx.size == 0:
        raise InvalidDimensionError("selected set must be nonempty")
    restricted = p[idx]
    total = float(restricted.sum())
    if total <= 0.0:
        logger.warning("selected clients carry zero mass; using uniform weights")
        return np.full(idx.size, 1.0 / idx.size)
    return restricted / total
