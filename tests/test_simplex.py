"""Solver contract tests: exact trivial cases, grid-search oracles, properties."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairagg import simplex
from fairagg.errors import (
    FairaggError,
    InvalidDimensionError,
    NonConvergenceError,
    NumericalFailureError,
)
from fairagg.simplex import (
    is_decision,
    kkt_residual,
    minimize_over_simplex,
    project_generalized,
    project_to_simplex,
    uniform_decision,
)


def grid_points_3(spacing: float) -> np.ndarray:
    """All points of the 3-simplex with coordinates on a uniform grid."""
    steps = int(round(1.0 / spacing))
    i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
    keep = (i + j) <= steps
    a = i[keep] / steps
    b = j[keep] / steps
    return np.stack([a, b, 1.0 - a - b], axis=1)


def test_uniform_decision_values():
    np.testing.assert_allclose(uniform_decision(4), [0.25, 0.25, 0.25, 0.25])
    np.testing.assert_allclose(uniform_decision(1), [1.0])
    p = uniform_decision(7)
    assert abs(p.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(p, np.full(7, 1.0 / 7.0))


def test_uniform_decision_rejects_zero_dimension():
    with pytest.raises(InvalidDimensionError):
        uniform_decision(0)


def test_projection_basics():
    np.testing.assert_allclose(project_to_simplex(np.array([2.0, -1.0])), [1.0, 0.0])
    q = uniform_decision(5)
    np.testing.assert_allclose(project_to_simplex(q), q, atol=1e-15)


def test_projection_matches_feasibility_on_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(1, 30))
        v = rng.uniform(-3, 3, size=k)
        p = project_to_simplex(v)
        assert is_decision(p)


def test_minimize_symmetric_quadratic_returns_uniform():
    p = minimize_over_simplex(lambda p: (0.5 * float(p @ p), p), 3, tol=1e-10)
    np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-8)


def test_minimize_linear_selects_cheapest_vertex():
    c = np.array([1.0, 0.0, 2.0])
    p = minimize_over_simplex(lambda p: (float(c @ p), c), 3, tol=1e-10)
    np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-8)


def test_minimize_matches_grid_search_on_log_growth_objective():
    # Independent oracle: exhaustive search over the 1e-3 grid.
    rng = np.random.default_rng(7)
    responses = rng.uniform(0.0, 0.5, size=(10, 3))

    def objective(p):
        return -float(np.sum(np.log1p(responses @ p)))

    def gradient(p):
        return -(responses / (1.0 + responses @ p)[:, None]).sum(axis=0)

    grid = grid_points_3(1e-3)
    values = -np.log1p(grid @ responses.T).sum(axis=1)
    oracle = grid[int(np.argmin(values))]

    p = minimize_over_simplex(lambda p: (objective(p), gradient(p)), 3, tol=1e-10)
    np.testing.assert_allclose(p, oracle, atol=2e-3)
    assert kkt_residual(p, gradient(p), 1e-10) <= 1e-10


def test_minimize_never_beats_tolerance_contract_vs_uniform():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        g = rng.uniform(-1, 1, size=k)
        mat = 2.0 * np.eye(k) + 0.5 * np.outer(g, g)
        target = rng.uniform(-1, 2, size=k)

        def objective(p):
            d = p - target
            return float(d @ mat @ d)

        def gradient(p):
            return 2.0 * mat @ (p - target)

        tol = 1e-9
        p = minimize_over_simplex(lambda p: (objective(p), gradient(p)), k, tol=tol)
        assert objective(p) <= objective(uniform_decision(k)) + tol


def test_minimize_rejects_a_nonpositive_tolerance_as_a_library_error():
    with pytest.raises(FairaggError):
        minimize_over_simplex(lambda p: (0.5 * float(p @ p), p), 3, tol=0.0)


def test_minimize_raises_on_nonfinite_start():
    with pytest.raises(NumericalFailureError):
        minimize_over_simplex(lambda p: (float("nan"), np.zeros(3)), 3, tol=1e-9)


def test_minimize_nonconvergence_carries_best_iterate():
    # A curved objective whose optimum is interior: one iteration cannot
    # reach a 1e-9 stationarity residual from the uniform start.
    c = np.array([1.0, 2.0, 3.0])
    with pytest.raises(NonConvergenceError) as excinfo:
        minimize_over_simplex(
            lambda p: (float(c @ (p - 0.2) ** 2), 2.0 * c * (p - 0.2)),
            3,
            max_iterations=1,
        )
    assert is_decision(excinfo.value.best_iterate)
    assert excinfo.value.residual > 0.0


def test_project_generalized_identity_cases():
    q = uniform_decision(3)
    np.testing.assert_allclose(project_generalized(q, np.eye(3), np.eye(3)), q)
    p = project_generalized(np.array([2.0, -1.0]), np.eye(2), np.eye(2))
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-8)


def test_project_generalized_matches_grid_oracle():
    rng = np.random.default_rng(11)
    grid = grid_points_3(1e-3)
    for _ in range(5):
        q = rng.uniform(-1.0, 2.0, size=3)
        g = rng.uniform(-1.0, 1.0, size=3)
        mat = 1.5 * np.eye(3) + 0.8 * np.outer(g, g)
        diffs = grid - q
        values = np.einsum("ij,jk,ik->i", diffs, mat, diffs)
        oracle = grid[int(np.argmin(values))]
        p = project_generalized(q, mat, np.linalg.inv(mat), tol=1e-10)
        np.testing.assert_allclose(p, oracle, atol=2e-3)


def test_project_generalized_is_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.uniform(-1.0, 2.0, size=4)
        g = rng.uniform(-1.0, 1.0, size=4)
        mat = np.eye(4) + 0.5 * np.outer(g, g)
        once = project_generalized(q, mat, np.linalg.inv(mat), tol=1e-10)
        twice = project_generalized(once, mat, np.linalg.inv(mat), tol=1e-10)
        np.testing.assert_allclose(once, twice, atol=1e-9)
        assert is_decision(once)


def test_project_generalized_rejects_mismatched_shapes():
    with pytest.raises(InvalidDimensionError):
        project_generalized(np.ones(3), np.eye(2), np.eye(2))
    with pytest.raises(InvalidDimensionError):
        project_generalized(np.ones(3), np.eye(3), b_inv=np.eye(2))


def ons_metric(rng: np.random.Generator, k: int, updates: int) -> np.ndarray:
    """alpha*I + beta * sum g g^T as the quadratic-surrogate method builds it.

    With the gradient bound at 1, alpha = 4k and beta = 1/4; decision-loss
    gradients are nonpositive.
    """
    grads = rng.uniform(-1.0, 0.0, size=(updates, k))
    return 4.0 * k * np.eye(k) + 0.25 * grads.T @ grads


def reference_projection(q: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The metric projection by projected gradient alone, from the barycenter."""
    return minimize_over_simplex(
        lambda p: (float((p - q) @ mat @ (p - q)), 2.0 * (mat @ (p - q))),
        q.size,
        tol=1e-11,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.01, max_value=3.0),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exact_projection_matches_iterative_solver(k, updates, sunk, spread, correlated, seed):
    rng = np.random.default_rng(seed)
    if correlated:
        # Mixed-sign directions over a unit ridge: coordinates that go
        # negative with every coordinate free are often positive at the
        # projection, so the active set must free some of them again.  (A
        # much smaller ridge makes the metric ill-conditioned enough that
        # rounding alone can leave the exact point just above ``tol``.)
        directions = rng.normal(size=(updates + 1, k))
        mat = np.eye(k) + directions.T @ directions
    else:
        mat = ons_metric(rng, k, updates)
    # A fraction of the coordinates is pushed far below the rest, so the
    # projection must zero many of them; the rest scatter around 1/k.
    q = 1.0 / k + spread * rng.normal(size=k) / k
    q[rng.random(k) < sunk] -= 2.0 * spread
    tol = 1e-9
    # One Euclidean projection cleans the exact point; a line-search step
    # would make more, so one call means the exact solve was accepted as is.
    with mock.patch.object(
        simplex, "project_to_simplex", wraps=simplex.project_to_simplex
    ) as euclidean:
        p = project_generalized(q, mat, tol=tol, b_inv=np.linalg.inv(mat))
    assert euclidean.call_count == 1
    assert is_decision(p)
    assert kkt_residual(p, 2.0 * (mat @ (p - q)), tol) <= tol
    np.testing.assert_allclose(p, reference_projection(q, mat), rtol=0.0, atol=1e-8)


@pytest.mark.parametrize(
    "wrong_inverse",
    ["stale", "perturbed", "identity", "negated", "zero", "nan"],
)
def test_wrong_inverse_still_gives_the_projection(wrong_inverse):
    rng = np.random.default_rng(3)
    k = 30
    grads = rng.uniform(-1.0, 0.0, size=(60, k))
    mat = 4.0 * k * np.eye(k) + 0.25 * grads.T @ grads
    inv = np.linalg.inv(mat)
    b_inv = {
        # The inverse as it was 20 rank-1 updates ago.
        "stale": np.linalg.inv(mat - 0.25 * grads[-20:].T @ grads[-20:]),
        "perturbed": inv + 1e-3 * np.abs(inv).max() * rng.normal(size=(k, k)),
        "identity": np.eye(k),
        "negated": -inv,
        "zero": np.zeros((k, k)),
        "nan": np.full((k, k), np.nan),
    }[wrong_inverse]
    q = 1.0 / k + 3.0 * rng.normal(size=k) / k
    tol = 1e-9
    p = project_generalized(q, mat, tol=tol, b_inv=b_inv)
    assert is_decision(p)
    assert kkt_residual(p, 2.0 * (mat @ (p - q)), tol) <= tol
    exact = project_generalized(q, mat, tol=tol, b_inv=inv)
    assert np.count_nonzero(exact == 0.0) >= k // 4
    np.testing.assert_allclose(p, exact, rtol=0.0, atol=1e-8)
