"""Probability-simplex arithmetic and constrained minimization.

The general solver is a projected-gradient loop with backtracking line
search.  Convergence is judged by the KKT residual, not objective decrease, so
the returned point is directly checkable: every coordinate carrying mass must
see a gradient entry within ``tol`` of the smallest one.

The projection in the metric of a positive definite matrix is solved exactly
by an active-set method on the matrix inverse.  The projected-gradient loop
then certifies the point: it accepts a KKT-valid start at once and runs its
line search only when the exact solve fell short (a drifted inverse or an
active set that did not settle), so it is also the fallback.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from .errors import InvalidDimensionError, NonConvergenceError, NumericalFailureError

# Feasibility tolerance baked into the Decision contract.
SUM_TOL = 1e-9

DEFAULT_TOL = 1e-9
MAX_ITERATIONS = 10_000

# Passes of the active-set solve in project_generalized before the point it
# has reached is handed to the certifying solver as it stands.
MAX_ACTIVE_SET_PASSES = 32

# Line-search controls: Armijo sufficient-decrease constant, step shrink
# factor, and the growth applied to the accepted step before the next trial.
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_GROW = 2.0
_MIN_STEP = 1e-20


def is_decision(p: np.ndarray, tol: float = SUM_TOL) -> bool:
    """True iff ``p`` is a valid point of the probability simplex."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        return False
    return bool(np.all(p >= 0.0) and abs(float(p.sum()) - 1.0) <= tol)


def uniform_decision(k: int) -> np.ndarray:
    """The barycenter 1/k * ones(k); the canonical starting decision."""
    if k < 1:
        raise InvalidDimensionError(f"decision dimension must be >= 1, got {k}")
    return np.full(k, 1.0 / k)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    Sorting-based algorithm: find the largest support size rho for which the
    shifted entries stay positive, then clip.  O(k log k).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InvalidDimensionError("projection input must be a 1-D vector")
    if v.size == 1:
        return np.array([1.0])
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    indices = np.arange(1, v.size + 1)
    support = u - cumulative / indices > 0.0
    rho = indices[support][-1]
    threshold = cumulative[support][-1] / rho
    return np.maximum(v - threshold, 0.0)


def kkt_residual(p: np.ndarray, grad: np.ndarray, active_tol: float) -> float:
    """Stationarity residual of ``p`` on the simplex.

    For a minimizer, every coordinate with mass shares the minimal gradient
    value; the residual is how far the active coordinates stray above it.
    """
    active = p > active_tol
    return float(np.max(grad[active]) - np.min(grad))


def minimize_over_simplex(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    k: int,
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize a convex differentiable objective over the simplex.

    Projected gradient with backtracking line search.  Candidates whose
    objective evaluates non-finite are rejected by the line search (the
    barrier-style objectives used for oracles rely on this); a non-finite
    value at an accepted iterate raises NumericalFailureError.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    p = uniform_decision(k) if start is None else np.asarray(start, dtype=float).copy()

    f = float(objective(p))
    g = np.asarray(gradient(p), dtype=float)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalFailureError("objective or gradient non-finite at start")

    best_p, best_residual = p, kkt_residual(p, g, tol)
    step = 1.0
    prev_p: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    # Bounded-memory reference values make the search non-monotone: near the
    # optimum the true decrease per step falls below the rounding error of the
    # objective itself, and a strictly monotone test would deadlock there even
    # though the (well-conditioned) gradient residual can still improve.
    recent_f = deque([f], maxlen=10)
    for _ in range(max_iterations):
        residual = kkt_residual(p, g, tol)
        if residual < best_residual:
            best_p, best_residual = p, residual
        if residual <= tol:
            return p

        # Spectral (Barzilai-Borwein) initial step adapts to local curvature;
        # backtracking below keeps it safe.
        trial = step * _GROW
        if prev_p is not None:
            dp = p - prev_p
            dg = g - prev_g
            curvature = float(dp @ dg)
            if curvature > 0.0:
                trial = min(max(float(dp @ dp) / curvature, _MIN_STEP), 1e12)

        f_ref = max(recent_f)
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(f_ref))
        accepted = False
        while trial >= _MIN_STEP:
            candidate = project_to_simplex(p - trial * g)
            direction = candidate - p
            decrease = _ARMIJO_C * float(g @ direction)
            f_candidate = float(objective(candidate))
            # A NaN/inf candidate value fails this comparison and is rejected.
            if f_candidate <= f_ref + decrease + noise:
                accepted = True
                break
            trial *= _SHRINK
        if not accepted:
            # Stalled at machine precision without meeting tol.
            raise NonConvergenceError(
                "line search stalled before reaching the requested tolerance",
                best_iterate=best_p,
                residual=best_residual,
            )

        prev_p, prev_g = p, g
        p, f = candidate, f_candidate
        recent_f.append(f)
        g = np.asarray(gradient(p), dtype=float)
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            raise NumericalFailureError("objective or gradient non-finite at iterate")
        step = trial

    residual = kkt_residual(p, g, tol)
    if residual <= tol:
        return p
    if residual < best_residual:
        best_p, best_residual = p, residual
    raise NonConvergenceError(
        f"iteration cap {max_iterations} exceeded (residual {best_residual:.3e})",
        best_iterate=best_p,
        residual=best_residual,
    )


def _active_set_projection(q: np.ndarray, b_inv: np.ndarray, tol: float) -> np.ndarray | None:
    """Minimizer of (p-q)^T B (p-q) over the simplex, from H = B^-1 alone.

    With the coordinates in N fixed at zero and the rest free, stationarity
    reads B (p - q) = (lambda/2) 1 + mu/2 with mu zero off N.  Writing u = H 1
    and y = H_NN^-1 [q_N, u_N], the free part is

        p_S = q_S - H_SN y_q + (lambda/2) (u_S - H_SN y_u),

    lambda makes p sum to one, and the multipliers of the fixed coordinates
    are mu_N = -2 (y_q + (lambda/2) y_u).  H is symmetric, so H_SN is read
    from the rows N of H.  Each pass fixes the free coordinates that went
    negative and frees the fixed one whose multiplier is most negative below
    ``-tol``; it stops when neither happens.  Costs O(K |N| + |N|^3) per
    pass.  Returns None when H is not positive on the support or yields
    non-finite values; raises LinAlgError when H_NN is singular.
    """
    u = b_inv @ np.ones(q.size)
    fixed = np.zeros(q.size, dtype=bool)
    for _ in range(MAX_ACTIVE_SET_PASSES):
        fixed_idx = np.flatnonzero(fixed)
        offset, slope = q, u
        if fixed_idx.size:
            h_n = b_inv[fixed_idx]
            y = np.linalg.solve(
                h_n[:, fixed_idx], np.stack([q[fixed_idx], u[fixed_idx]], axis=1)
            )
            offset = q - y[:, 0] @ h_n
            slope = u - y[:, 1] @ h_n
            # Both vanish on N up to rounding; pin them so p_N = 0 exactly.
            offset[fixed_idx] = 0.0
            slope[fixed_idx] = 0.0
        total = float(slope.sum())
        if not total > 0.0:
            return None
        half_lambda = (1.0 - float(offset.sum())) / total
        p = offset + half_lambda * slope
        if not np.all(np.isfinite(p)):
            return None

        negative = p < 0.0
        release = None
        if fixed_idx.size:
            mu = -2.0 * (y[:, 0] + half_lambda * y[:, 1])
            worst = int(np.argmin(mu))
            if mu[worst] < -tol:
                release = fixed_idx[worst]
        if release is None and not negative.any():
            break
        fixed |= negative
        if release is not None:
            fixed[release] = False
    return p


def project_generalized(
    q: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL, b_inv: np.ndarray | None = None
) -> np.ndarray:
    """Projection onto the simplex in the metric of a positive definite matrix.

    Returns argmin over the simplex of (p-q)^T B (p-q).  A feasible ``q`` is
    returned unchanged.  ``b_inv`` is the inverse of ``b`` when the caller
    already keeps one; without it the inverse is computed here.

    The minimizer is solved exactly by an active-set method on ``b_inv``,
    cleaned onto the simplex, and handed as the start to
    ``minimize_over_simplex``.  That solver checks KKT stationarity against
    ``b`` itself: an exact start passes at iteration 0, and any shortfall (a
    drifted or wrong ``b_inv``, an active set that did not settle within
    MAX_ACTIVE_SET_PASSES) is finished by its projected-gradient line search,
    so the result always meets ``tol``.
    """
    q = np.asarray(q, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape != (q.size, q.size):
        raise InvalidDimensionError(
            f"metric matrix shape {b.shape} does not match vector length {q.size}"
        )
    if b_inv is not None and np.shape(b_inv) != b.shape:
        raise InvalidDimensionError(
            f"inverse shape {np.shape(b_inv)} does not match metric shape {b.shape}"
        )
    if is_decision(q):
        return q.copy()

    def objective(p: np.ndarray) -> float:
        d = p - q
        return float(d @ b @ d)

    def gradient(p: np.ndarray) -> np.ndarray:
        return 2.0 * (b @ (p - q))

    try:
        inverse = np.linalg.inv(b) if b_inv is None else np.asarray(b_inv, dtype=float)
        exact = _active_set_projection(q, inverse, tol)
    except np.linalg.LinAlgError:
        exact = None
    # Without a usable inverse, start from the Euclidean projection; it is
    # feasible and close for well-conditioned metrics.
    start = project_to_simplex(q if exact is None else exact)
    return minimize_over_simplex(objective, gradient, q.size, tol=tol, start=start)
