"""Decision-loss calculus tests: oracles by finite differences, enumeration,
and Taylor-remainder scaling, plus the sup-norm bound properties."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairagg.decision import (
    decision_grad,
    decision_loss,
    dr_response,
    linearized_grad,
    lipschitz_constants,
)
from fairagg.errors import DegenerateInputError, DomainError, InvalidDimensionError
from fairagg.response import ResponseBounds


def random_simplex(rng, k):
    return rng.dirichlet(np.ones(k))


def test_loss_trivial_values():
    p = np.array([0.4, 0.6])
    assert decision_loss(p, np.zeros(2)) == 0.0
    assert decision_loss(np.array([1.0, 0.0]), np.array([math.e - 1.0, 0.3])) == pytest.approx(-1.0)


def test_loss_rejects_dimension_mismatch():
    with pytest.raises(InvalidDimensionError):
        decision_loss(np.array([1.0, 0.0]), np.array([0.1]))
    with pytest.raises(InvalidDimensionError):
        decision_grad(np.array([1.0]), np.array([0.1, 0.2]))


def test_loss_convexity_on_random_segments():
    rng = np.random.default_rng(21)
    gamma = 0.37
    for _ in range(100):
        k = int(rng.integers(2, 9))
        p = random_simplex(rng, k)
        q = random_simplex(rng, k)
        r = rng.uniform(0.0, 1.0, size=k)
        mix = gamma * p + (1.0 - gamma) * q
        lhs = decision_loss(mix, r)
        rhs = gamma * decision_loss(p, r) + (1.0 - gamma) * decision_loss(q, r)
        assert lhs <= rhs + 1e-12


def test_grad_trivial_values():
    p = np.array([0.3, 0.7])
    np.testing.assert_allclose(decision_grad(p, np.zeros(2)), np.zeros(2))
    np.testing.assert_allclose(
        decision_grad(np.array([0.5, 0.5]), np.array([1.0, 1.0])), [-0.5, -0.5]
    )


def test_grad_matches_central_finite_differences():
    rng = np.random.default_rng(33)
    h = 1e-6
    for _ in range(20):
        k = int(rng.integers(2, 7))
        p = random_simplex(rng, k)
        r = rng.uniform(0.0, 1.0, size=k)
        grad = decision_grad(p, r)
        numeric = np.empty(k)
        for i in range(k):
            e = np.zeros(k)
            e[i] = h
            numeric[i] = (decision_loss(p + e, r) - decision_loss(p - e, r)) / (2 * h)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)


def test_dr_identity_at_full_observation():
    values = np.array([0.1, 0.5, 0.3])
    observed = np.ones(3, dtype=bool)
    np.testing.assert_array_equal(dr_response(values, observed, 1.0), values)


def test_dr_single_observation_spreads_the_mean():
    values = np.array([0.3, 0.0, 0.0])
    observed = np.array([True, False, False])
    np.testing.assert_allclose(dr_response(values, observed, 1.0 / 3.0), [0.3, 0.3, 0.3])


def test_dr_rejects_unobserved_rounds():
    with pytest.raises(DegenerateInputError):
        dr_response(np.zeros(3), np.zeros(3, dtype=bool), 0.5)
    with pytest.raises(DomainError):
        dr_response(np.zeros(3), np.ones(3, dtype=bool), 0.0)


def test_dr_rejects_mismatched_shapes():
    with pytest.raises(InvalidDimensionError):
        dr_response(np.array([0.1, 0.2]), np.array([True]), 1.0)
    with pytest.raises(InvalidDimensionError):
        dr_response(np.full((2, 2), 0.1), np.ones((2, 2), dtype=bool), 1.0)


@settings(deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.floats(0.0, 1e6), st.booleans()), min_size=1, max_size=30
    ).filter(lambda pairs: any(seen for _, seen in pairs))
)
def test_dr_at_propensity_one_is_mean_imputation(entries):
    values = np.array([v for v, _ in entries])
    observed = np.array([seen for _, seen in entries])
    expected = np.where(observed, values, values[observed].mean())
    assert dr_response(values, observed, 1.0).tobytes() == expected.tobytes()


# Oracle: averaging the estimator over all 6 two-element subsets of a
# four-client round.  Computed by exhaustive enumeration; the residual bias
# comes from the observed mean depending on the sampled set.
ENUMERATED_BIAS = np.array([0.05, 1.0 / 60.0, -1.0 / 60.0, -0.05])


def test_dr_bias_exhaustive_enumeration():
    r = np.array([0.1, 0.2, 0.3, 0.4])
    c = 0.5
    estimates = []
    for subset in itertools.combinations(range(4), 2):
        observed = np.zeros(4, dtype=bool)
        observed[list(subset)] = True
        estimates.append(dr_response(np.where(observed, r, 0.0), observed, c))
    bias = np.mean(estimates, axis=0) - r
    np.testing.assert_allclose(bias, ENUMERATED_BIAS, atol=1e-12)
    assert np.max(np.abs(bias)) <= 0.25 * (0.4 - 0.1)


def test_linearized_equals_exact_gradient_at_reference():
    p = np.array([0.5, 0.5])
    out = linearized_grad(np.full(2, 0.5), p, 0.5)
    np.testing.assert_allclose(out, [-1.0 / 3.0, -1.0 / 3.0])
    np.testing.assert_allclose(linearized_grad(np.zeros(3), np.ones(3) / 3, 0.0), np.zeros(3))


def test_linearized_error_shrinks_quadratically():
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(50):
        k = int(rng.integers(2, 8))
        p = random_simplex(rng, k)
        r0 = float(rng.uniform(0.2, 0.8))
        direction = rng.uniform(-1.0, 1.0, size=k)
        direction /= np.max(np.abs(direction))

        def err(scale):
            r_hat = r0 + scale * direction
            return float(
                np.max(np.abs(linearized_grad(r_hat, p, r0) - decision_grad(p, r_hat)))
            )

        e1, e2 = err(0.01), err(0.005)
        if e1 > 1e-12:
            ratios.append(e1 / e2)
    # Quadratic remainder: halving the perturbation divides the error by ~4.
    assert np.median(ratios) > 3.0


def test_lipschitz_constant_values():
    bounds = ResponseBounds.cross_silo(10)
    constants = lipschitz_constants(bounds, 1.0)
    assert constants.l_inf == pytest.approx(0.1)

    c = 0.3
    cross_device = lipschitz_constants(ResponseBounds.cross_device(c), c)
    assert cross_device.l_inf_dr == pytest.approx(c + 2.0)

    full = lipschitz_constants(ResponseBounds(0.0, 1.0), 1.0)
    assert full.l_inf_dr == pytest.approx(full.l_inf + 2.0)
    assert full.l_inf_dr == pytest.approx(3.0)


@pytest.mark.parametrize("c", [0.0, 1.5])
def test_lipschitz_constants_reject_sampling_fraction_outside_unit_interval(c):
    with pytest.raises(DomainError, match="sampling fraction"):
        lipschitz_constants(ResponseBounds(0.0, 0.1), c)


def test_lipschitz_ordering_holds():
    rng = np.random.default_rng(13)
    for _ in range(100):
        c1 = float(rng.uniform(0.0, 0.5))
        c2 = float(rng.uniform(c1 + 1e-3, 2.0))
        c = float(rng.uniform(0.05, 1.0))
        constants = lipschitz_constants(ResponseBounds(c1, c2), c)
        assert constants.l_inf_dr >= constants.l_inf


def test_gradient_sup_norm_bound_1000_rounds():
    rng = np.random.default_rng(99)
    bounds = ResponseBounds(0.0, 0.25)
    l_inf = lipschitz_constants(bounds, 1.0).l_inf
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 20))
        p = random_simplex(rng, k)
        r = rng.uniform(bounds.c1, bounds.c2, size=k)
        worst = max(worst, float(np.max(np.abs(decision_grad(p, r)))))
    assert worst <= l_inf + 1e-12


def test_dr_linearized_sup_norm_bound_1000_rounds():
    rng = np.random.default_rng(123)
    bounds = ResponseBounds(0.0, 0.2)
    c = 0.25
    l_inf_dr = lipschitz_constants(bounds, c).l_inf_dr
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(4, 24))
        size = max(1, int(np.floor(c * k)))
        chosen = rng.choice(k, size=size, replace=False)
        observed = np.zeros(k, dtype=bool)
        observed[chosen] = True
        values = np.where(observed, rng.uniform(bounds.c1, bounds.c2, size=k), 0.0)
        estimate = dr_response(values, observed, c)
        reference = float(values[observed].mean())
        p = random_simplex(rng, k)
        grad = linearized_grad(estimate, p, reference)
        worst = max(worst, float(np.max(np.abs(grad))))
    assert worst <= l_inf_dr + 1e-12
