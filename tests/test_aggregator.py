"""Aggregator tests.

The baseline rules are checked against hand-worked coefficients and against
the shared multiplicative-update form; the two adaptive optimizers are checked
against grid-search and closed-form argmin oracles rebuilt from raw history.
"""

import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairagg.aggregator import (
    AggregatorMethod,
    MethodKind,
    aaggff_d_step,
    aaggff_s_step,
    baseline_coefficients,
    ftrl_decision,
    ftrl_init,
    normalize_selected,
    ons_init,
)
from fairagg import aggregator, simplex
from fairagg.cli import sequence_regret, synthetic_responses
from fairagg.decision import decision_grad, dr_response, linearized_grad, lipschitz_constants
from fairagg.errors import (
    DomainError,
    InvalidDimensionError,
    NonConvergenceError,
    NumericalFailureError,
)
from fairagg.metrics import cumulative_regret, regret_envelope
from fairagg.response import ResponseBounds
from fairagg.simplex import kkt_residual, minimize_over_simplex, uniform_decision
from unification import BASELINE_KINDS, eg_unified_step, unify_instance


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_static_is_size_proportional():
    method = AggregatorMethod(MethodKind.STATIC)
    out = baseline_coefficients(method, np.array([30.0, 70.0]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(out, [0.3, 0.7])


def test_qfedavg_q1_hand_value():
    method = AggregatorMethod(MethodKind.QFEDAVG, q=1.0)
    out = baseline_coefficients(method, np.array([10.0, 10.0]), np.array([2.0, 1.0]))
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0])


def test_qfedavg_q0_reduces_to_static():
    sizes = np.array([5.0, 20.0, 75.0])
    losses = np.array([0.7, 0.4, 1.3])
    static = baseline_coefficients(AggregatorMethod(MethodKind.STATIC), sizes, losses)
    q0 = baseline_coefficients(AggregatorMethod(MethodKind.QFEDAVG, q=0.0), sizes, losses)
    np.testing.assert_allclose(q0, static)


def test_propfair_hand_value():
    method = AggregatorMethod(MethodKind.PROPFAIR, loss_ceiling=2.0)
    out = baseline_coefficients(method, np.array([1.0, 1.0]), np.array([1.0, 1.5]))
    np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0])


def test_propfair_rejects_low_ceiling():
    method = AggregatorMethod(MethodKind.PROPFAIR, loss_ceiling=2.0)
    with pytest.raises(DomainError):
        baseline_coefficients(method, np.ones(2), np.array([1.0, 2.5]))


def test_term_tilt_matches_direct_formula():
    method = AggregatorMethod(MethodKind.TERM, tilt=10.0)
    sizes = np.array([3.0, 1.0, 2.0])
    losses = np.array([0.5, 0.9, 0.1])
    out = baseline_coefficients(method, sizes, losses)
    direct = sizes * np.exp(10.0 * losses)
    np.testing.assert_allclose(out, direct / direct.sum(), rtol=1e-12)


def test_afl_puts_all_mass_on_worst_clients():
    method = AggregatorMethod(MethodKind.AFL)
    out = baseline_coefficients(method, np.array([9.0, 1.0, 5.0]), np.array([0.2, 0.8, 0.5]))
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0])
    tied = baseline_coefficients(method, np.ones(3), np.array([0.8, 0.8, 0.1]))
    np.testing.assert_allclose(tied, [0.5, 0.5, 0.0])


def test_zero_weights_fall_back_to_sizes(caplog):
    # q > 0 with all-zero losses annihilates every weight.
    method = AggregatorMethod(MethodKind.QFEDAVG, q=1.0)
    with caplog.at_level(logging.WARNING, logger="fairagg.aggregator"):
        out = baseline_coefficients(method, np.array([1.0, 3.0]), np.zeros(2))
    np.testing.assert_allclose(out, [0.25, 0.75])
    assert any("falling back" in record.message for record in caplog.records)


def test_negative_q_rejected():
    with pytest.raises(DomainError):
        AggregatorMethod(MethodKind.QFEDAVG, q=-0.5)


def test_baseline_input_validation():
    method = AggregatorMethod(MethodKind.STATIC)
    with pytest.raises(InvalidDimensionError):
        baseline_coefficients(method, np.ones(2), np.ones(3))
    with pytest.raises(DomainError):
        baseline_coefficients(method, np.array([1.0, 0.0]), np.ones(2))


@pytest.mark.parametrize(
    "kind",
    [MethodKind.AFL, MethodKind.QFEDAVG, MethodKind.TERM, MethodKind.PROPFAIR],
)
def test_higher_loss_never_gets_less_weight(kind):
    method = AggregatorMethod(kind, q=1.0, tilt=1.0, loss_ceiling=3.0)
    sizes = np.ones(5)
    losses = np.array([0.1, 0.4, 0.9, 1.3, 2.0])
    out = baseline_coefficients(method, sizes, losses)
    assert np.all(np.diff(out) >= -1e-15)
    if kind is not MethodKind.AFL:
        assert np.all(np.diff(out) > 0.0)


# ---------------------------------------------------------------------------
# shared multiplicative-update form
# ---------------------------------------------------------------------------

def test_eg_zero_response_is_identity():
    prev = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(eg_unified_step(prev, np.zeros(3), 1.0), prev)


def test_eg_hand_value():
    out = eg_unified_step(np.array([0.5, 0.5]), np.array([math.log(3.0), 0.0]), 1.0)
    np.testing.assert_allclose(out, [0.75, 0.25])


def test_eg_rejects_bad_step_and_shapes():
    with pytest.raises(DomainError):
        eg_unified_step(np.array([0.5, 0.5]), np.zeros(2), 0.0)
    with pytest.raises(InvalidDimensionError):
        eg_unified_step(np.array([0.5, 0.5]), np.zeros(3), 1.0)


@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_unification_on_random_instances(kind):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        method, sizes, losses, response, step = unify_instance(kind, rng)
        closed = baseline_coefficients(method, sizes, losses)
        eg = eg_unified_step(sizes / sizes.sum(), response, step)
        worst = max(worst, float(np.max(np.abs(closed - eg))))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# sequence-quadratic method
# ---------------------------------------------------------------------------

def test_ons_init_shapes_and_first_decision():
    state = ons_init(4, l_inf=0.25)
    assert state.beta == pytest.approx(1.0)
    np.testing.assert_allclose(state.last_decision, np.full(4, 0.25))
    np.testing.assert_allclose(state.mat, 4.0 * np.eye(4))
    np.testing.assert_allclose(state.inv @ state.mat, np.eye(4), atol=1e-12)
    with pytest.raises(DomainError):
        ons_init(3, 0.0)
    with pytest.raises(InvalidDimensionError):
        ons_init(0, 1.0)


def test_ons_init_too_large_to_allocate_is_a_domain_error():
    # numpy refuses a 2**32 x 2**32 matrix as too big before allocating anything.
    with pytest.raises(DomainError, match=f"cannot allocate the {2**32}x{2**32} ONS matrices"):
        ons_init(2**32, 1.0)


def test_ons_single_client_stays_degenerate():
    state = ons_init(1, 0.5)
    state, decision = aaggff_s_step(state, np.array([-0.3]))
    np.testing.assert_array_equal(decision, [1.0])
    assert state.round == 1


@pytest.mark.parametrize("l_inf, gradient", [(1.0, -1.0), (0.2, -0.01), (0.5, None)])
def test_single_client_optimizers_always_emit_one(l_inf, gradient):
    # Both optimizers take their general path over 130 rounds and give
    # exactly [1.0].  The constant streams put the unconstrained ONS
    # minimizer within rounding of 1 (rounds 4 and 80).
    rng = np.random.default_rng(2)
    ons, ftrl = ons_init(1, l_inf), ftrl_init(1, l_inf)
    for _ in range(130):
        g = rng.uniform(-l_inf, 0.0, size=1) if gradient is None else np.array([gradient])
        ons, p_s = aaggff_s_step(ons, g)
        ftrl, p_d = aaggff_d_step(ftrl, g)
        np.testing.assert_array_equal(p_s, [1.0])
        np.testing.assert_array_equal(p_d, [1.0])
    assert ons.round == ftrl.round == 130


def test_ons_one_step_hand_solved_quadratic():
    # alpha = 4, beta = 0.5; gradient [-0.9, -0.1] at the uniform start gives
    # the segment objective derivative f'(x) = 8.32 x - 4.96 for p = (x, 1-x),
    # so the interior optimum is x = 0.59615384615...
    state = ons_init(2, l_inf=0.5)
    _, decision = aaggff_s_step(state, np.array([-0.9, -0.1]))
    assert decision[0] == pytest.approx(4.96 / 8.32, abs=1e-7)
    assert decision[0] > 0.5  # the steeper-descent coordinate gains mass


def test_ons_two_steps_match_grid_search():
    state = ons_init(2, l_inf=0.5)
    history = []
    decision = state.last_decision
    for g in (np.array([-0.6, -0.2]), np.array([-0.1, -0.8])):
        history.append((g, decision.copy()))
        state, decision = aaggff_s_step(state, g)

    # Rebuild the surrogate from raw history and grid-search the segment.
    alpha, beta = 4 * 2 * 0.5, state.beta  # alpha = 4 k l_inf
    mat = alpha * np.eye(2)
    rhs = np.zeros(2)
    grad_sum = np.zeros(2)
    for g, p_used in history:
        mat += beta * np.outer(g, g)
        rhs += beta * float(g @ p_used) * g
        grad_sum += g
    xs = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    points = np.stack([xs, 1.0 - xs], axis=1)
    values = 0.5 * np.einsum("ni,ij,nj->n", points, mat, points) - points @ (rhs - grad_sum)
    best = xs[np.argmin(values)]
    assert decision[0] == pytest.approx(best, abs=2e-4)


def test_ons_stationarity_after_many_rounds():
    rng = np.random.default_rng(5)
    k = 6
    bounds = ResponseBounds.cross_silo(k)
    state = ons_init(k, lipschitz_constants(bounds, 1.0).l_inf)
    decision = state.last_decision
    for _ in range(80):
        response = rng.uniform(bounds.c1, bounds.c2, size=k)
        grad = decision_grad(decision, response)
        state, decision = aaggff_s_step(state, grad)
    surrogate_grad = state.mat @ decision + state.grad_sum - state.rhs
    assert kkt_residual(decision, surrogate_grad, active_tol=1e-12) <= 1e-7
    np.testing.assert_allclose(decision, state.last_decision)
    assert state.round == 80


def test_ons_inverse_tracks_matrix():
    rng = np.random.default_rng(11)
    state = ons_init(3, 0.2)
    decision = state.last_decision
    for _ in range(70):
        g = rng.uniform(-0.2, 0.0, size=3)
        state, decision = aaggff_s_step(state, g)
    np.testing.assert_allclose(state.inv @ state.mat, np.eye(3), atol=1e-8)

    # Rank-1 updates alone keep the inverse within rounding of inv(mat) over
    # a long stream: 2000 steps of the regret-bench stream at K=200.
    k = 200
    c2 = 1.0 / k
    state = ons_init(k, lipschitz_constants(ResponseBounds(0.0, c2), 1.0).l_inf)
    decision = state.last_decision
    for response in synthetic_responses(k, 2000, c2, seed=0):
        state, decision = aaggff_s_step(state, decision_grad(decision, response))
    exact = np.linalg.inv(state.mat)
    drift = np.max(np.abs(state.inv - exact)) / np.max(np.abs(exact))
    assert drift <= 1e-12


def test_ons_projection_is_exact_without_line_search():
    # The regret-bench stream at K=200: every decision is a metric projection
    # solved from the tracked inverse.  The certifying solver then accepts it
    # at iteration 0, so the only Euclidean projection is the one cleaning
    # the exact point, and one oracle call gives both value and gradient;
    # any line-search step would add more of each.
    k, rounds = 200, 300
    c2 = 1.0 / k
    responses = synthetic_responses(k, rounds, c2, seed=0)
    state = ons_init(k, lipschitz_constants(ResponseBounds(0.0, c2), 1.0).l_inf)
    decision = state.last_decision
    solve = simplex.minimize_over_simplex
    oracle_calls = []

    def counting_solve(fun, *args, **kwargs):
        oracle_calls.append(0)

        def counted(p):
            oracle_calls[-1] += 1
            return fun(p)

        return solve(counted, *args, **kwargs)

    with mock.patch.object(
        simplex, "project_to_simplex", wraps=simplex.project_to_simplex
    ) as euclidean, mock.patch.object(
        simplex, "minimize_over_simplex", side_effect=counting_solve
    ) as certifier:
        for response in responses:
            state, decision = aaggff_s_step(state, decision_grad(decision, response))
            surrogate_grad = state.mat @ decision + state.grad_sum - state.rhs
            assert kkt_residual(decision, surrogate_grad, active_tol=1e-12) <= 1e-7
    assert euclidean.call_count == rounds
    assert certifier.call_count == rounds
    assert oracle_calls == [1] * rounds


def test_ons_rejects_mismatched_gradient():
    state = ons_init(3, 0.5)
    with pytest.raises(InvalidDimensionError):
        aaggff_s_step(state, np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "init, step", [(ons_init, aaggff_s_step), (ftrl_init, aaggff_d_step)], ids=["ons", "ftrl"]
)
def test_optimizers_reject_non_finite_gradients(init, step, bad):
    with pytest.raises(DomainError, match="finite"):
        step(init(3, 0.5), np.array([-0.1, bad, -0.2]))


def test_ons_lost_positive_definiteness_is_a_numerical_failure():
    # A negative definite tracked inverse drives the rank-1 denominator
    # 1 + beta * g^T inv g below zero.
    state = replace(ons_init(3, 0.5), inv=-np.eye(3))
    with pytest.raises(NumericalFailureError, match="positive definiteness"):
        aaggff_s_step(state, -np.ones(3))


def test_a_stalled_projection_costs_one_decision(monkeypatch, caplog):
    # The first projection's certifier stalls; the step plays its best
    # iterate, a feasible point, and the next step projects as usual.
    best = np.array([0.2, 0.5, 0.3])
    real = aggregator.project_generalized
    calls = []

    def stalling(q, b, **kwargs):
        calls.append(q)
        if len(calls) == 1:
            raise NonConvergenceError("stalled", best_iterate=best, residual=3e-8)
        return real(q, b, **kwargs)

    monkeypatch.setattr(aggregator, "project_generalized", stalling)
    state = ons_init(3, 0.5)
    with caplog.at_level(logging.WARNING, logger="fairagg.aggregator"):
        state, decision = aaggff_s_step(state, np.array([-0.1, -0.4, -0.2]))
        np.testing.assert_array_equal(decision, best)
        np.testing.assert_array_equal(state.last_decision, best)
        assert [r.getMessage() for r in caplog.records] == [
            "projection stalled in step 1 at KKT residual 3.000e-08; playing its best iterate"
        ]
        state, decision = aaggff_s_step(state, decision_grad(decision, np.array([0.1, 0.4, 0.2])))
    assert len(calls) == 2
    assert state.round == 2
    assert simplex.is_decision(decision)
    assert len(caplog.records) == 1


@pytest.mark.parametrize(
    "init, step", [(ons_init, aaggff_s_step), (ftrl_init, aaggff_d_step)], ids=["ons", "ftrl"]
)
def test_optimizer_steps_update_the_state_they_are_given(init, step):
    # The state is stepped in place, but a decision once returned is never
    # written again: callers keep them as the log of decisions played.
    state = init(3, 0.5)
    decisions, copies = [], []
    for t, g in enumerate(([-0.1, -0.4, -0.2], [-0.5, -0.1, -0.1], [-0.2, -0.2, -0.6])):
        stepped, decision = step(state, np.array(g))
        assert stepped is state
        assert state.round == t + 1
        decisions.append(decision)
        copies.append(decision.copy())
    for decision, copy in zip(decisions, copies):
        np.testing.assert_array_equal(decision, copy)


ONS_FIELDS = ("round", "grad_sum", "mat", "rhs", "inv", "last_decision")


@pytest.mark.parametrize(
    "inv, gradient, error",
    [
        (-np.eye(3), -np.ones(3), NumericalFailureError),
        (None, np.array([-0.1, np.inf, -0.2]), DomainError),
        (None, np.zeros(2), InvalidDimensionError),
    ],
    ids=["lost-definiteness", "non-finite", "mismatched"],
)
def test_ons_step_that_raises_leaves_the_state_as_it_was(inv, gradient, error):
    state = ons_init(3, 0.5)
    for g in ([-0.3, -0.1, -0.2], [-0.1, -0.5, -0.2]):
        aaggff_s_step(state, np.array(g))
    if inv is not None:
        state.inv = inv
    before = {name: np.array(getattr(state, name)).tobytes() for name in ONS_FIELDS}
    with pytest.raises(error):
        aaggff_s_step(state, gradient)
    after = {name: np.array(getattr(state, name)).tobytes() for name in ONS_FIELDS}
    assert after == before


@settings(deadline=None, max_examples=100)
@given(
    k=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    pinned=st.sampled_from([0.0, 0.3]),
)
def test_ons_decisions_are_stationary_for_the_surrogate_rebuilt_from_history(k, seed, pinned):
    # Criterion 5 on random streams: responses in [0, 1/K], a share of them
    # pinned to either bound, over 70 rounds.  Every decision must meet the
    # KKT conditions of the ONS surrogate (Hazan, Agarwal & Kale, 2007)
    # rebuilt from the raw (gradient, decision played) history with textbook
    # outer products.
    rng = np.random.default_rng(seed)
    c2 = 1.0 / k
    responses = rng.uniform(0.0, c2, size=(70, k))
    at_bound = rng.random(responses.shape) < pinned
    responses[at_bound] = c2 * rng.integers(0, 2, size=int(at_bound.sum()))
    l_inf = lipschitz_constants(ResponseBounds(0.0, c2), 1.0).l_inf
    beta = 1.0 / (4.0 * l_inf)
    mat = 4.0 * k * l_inf * np.eye(k)
    rhs = np.zeros(k)
    grad_sum = np.zeros(k)
    state = ons_init(k, l_inf)
    decision = state.last_decision
    for r in responses:
        g = decision_grad(decision, r)
        mat += beta * np.outer(g, g)
        rhs += beta * float(g @ decision) * g
        grad_sum += g
        state, decision = aaggff_s_step(state, g)
        surrogate_grad = mat @ decision + grad_sum - rhs
        assert kkt_residual(decision, surrogate_grad, active_tol=1e-12) <= 1e-7


# ---------------------------------------------------------------------------
# closed-form method
# ---------------------------------------------------------------------------

def test_ftrl_zero_history_is_uniform():
    np.testing.assert_allclose(ftrl_decision(np.zeros(5), 0, 1.0), np.full(5, 0.2))
    np.testing.assert_array_equal(ftrl_decision(np.zeros(1), 3, 1.0), [1.0])


def test_ftrl_hand_scaled_softmax():
    # Cumulative gap calibrated so the exponent gap is exactly ln 3.
    l_inf_dr, rounds_seen = 0.7, 8
    gap = math.log(3.0) * l_inf_dr * math.sqrt(rounds_seen + 1.0) / math.sqrt(math.log(2.0))
    out = ftrl_decision(np.array([0.0, gap]), rounds_seen, l_inf_dr)
    np.testing.assert_allclose(out, [0.75, 0.25], rtol=1e-12)


def test_ftrl_step_accumulates_and_validates():
    state = ftrl_init(3, 0.5)
    state, decision = aaggff_d_step(state, np.array([-0.1, 0.0, 0.1]))
    assert state.round == 1
    np.testing.assert_allclose(state.cum_grad, [-0.1, 0.0, 0.1])
    assert decision[0] > decision[1] > decision[2]
    with pytest.raises(DomainError):
        aaggff_d_step(state, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(InvalidDimensionError):
        aaggff_d_step(state, np.zeros(4))
    with pytest.raises(DomainError):
        ftrl_init(3, -1.0)


def test_ftrl_closed_form_matches_numeric_argmin():
    # The softmax must minimize <cum, p> + zeta * sum p_i ln p_i with
    # zeta = l * sqrt(t+1) / sqrt(ln k).  The bare entropy term is nan at the
    # boundary, which the line search rejects, so iterates stay interior.
    rng = np.random.default_rng(29)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        rounds_seen = int(rng.integers(1, 40))
        l_inf_dr = float(rng.uniform(0.3, 2.0))
        cum = rng.uniform(-1.0, 1.0, size=k) * l_inf_dr * rounds_seen * 0.1
        zeta = l_inf_dr * math.sqrt(rounds_seen + 1.0) / math.sqrt(math.log(k))

        def objective(p):
            with np.errstate(divide="ignore", invalid="ignore"):
                return float(cum @ p + zeta * np.sum(p * np.log(p)))

        def gradient(p):
            with np.errstate(divide="ignore"):
                return cum + zeta * (1.0 + np.log(p))

        numeric = minimize_over_simplex(
            lambda p: (objective(p), gradient(p)), k, tol=1e-10
        )
        closed = ftrl_decision(cum, rounds_seen, l_inf_dr)
        np.testing.assert_allclose(closed, numeric, atol=1e-6)


def test_ftrl_regret_scaling_under_partial_feedback():
    # Two scaling facts: regret normalized by sqrt(T ln K) stays below the
    # estimated-gradient bound constant at every horizon, and mean per-round
    # regret shrinks with the horizon (sublinearity).
    k, participation = 8, 0.5
    bounds = ResponseBounds(0.0, 0.2)
    constants = lipschitz_constants(bounds, participation)
    horizons = (50, 100, 200)
    normalized = {t: [] for t in horizons}
    for seed in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        responses = rng.uniform(bounds.c1, bounds.c2, size=(max(horizons), k))
        responses[:, 0] = rng.uniform(0.5 * bounds.c2, bounds.c2, size=max(horizons))
        state = ftrl_init(k, constants.l_inf_dr)
        decision = uniform_decision(k)
        decisions = []
        for t in range(max(horizons)):
            decisions.append(decision)
            chosen = rng.choice(k, size=int(participation * k), replace=False)
            observed = np.zeros(k, dtype=bool)
            observed[chosen] = True
            estimate = dr_response(
                np.where(observed, responses[t], 0.0), observed, participation
            )
            reference = float(responses[t][observed].mean())
            grad = linearized_grad(estimate, decision, reference)
            state, decision = aaggff_d_step(state, grad)
            if t + 1 in normalized:
                regret, _ = cumulative_regret(decisions, list(responses[: t + 1]))
                normalized[t + 1].append(regret / math.sqrt((t + 1) * math.log(k)))
    assert max(max(v) for v in normalized.values()) <= 2.0 * constants.l_inf_dr
    per_round = [
        float(np.mean(normalized[t])) * math.sqrt(t * math.log(k)) / t for t in horizons
    ]
    assert per_round[2] < per_round[1] < per_round[0]


def one_best_client_stream(horizon, k, c2):
    """Client 0 alone responds, with c2, in every round."""
    responses = np.zeros((horizon, k))
    responses[:, 0] = c2
    return responses


def alternating_stream(horizon, k, c2):
    """c2/2 on client 0 in round 0, then c2 on client 1 and on client 0 in
    turn: the stream on which follow-the-leader has linear regret."""
    responses = np.zeros((horizon, k))
    responses[0, 0] = c2 / 2
    responses[1::2, 1] = c2
    responses[2::2, 0] = c2
    return responses


@pytest.mark.parametrize("horizon", [100, 500, 2000])
@pytest.mark.parametrize("stream", [one_best_client_stream, alternating_stream],
                         ids=["one_best_client", "alternating"])
def test_regret_envelopes_separate_learners_from_uniform(stream, horizon):
    # Unlike the rotating regret-bench stream, whose best fixed decision sits
    # near uniform, each of these fails a decision that never learns: uniform
    # stays above both envelopes while both adaptive methods stay within
    # their own.  The alternating stream also punishes a leader-follower.
    k, c2 = 8, 1.0 / 8
    l_inf = lipschitz_constants(ResponseBounds(0.0, c2), 1.0).l_inf
    responses = stream(horizon, k, c2)
    envelopes = {
        kind: regret_envelope(kind, k, horizon, l_inf)
        for kind in (MethodKind.AAGGFF_S, MethodKind.AAGGFF_D)
    }
    for kind, envelope in envelopes.items():
        assert sequence_regret(kind, responses, c2) <= envelope
    uniform, _ = cumulative_regret([uniform_decision(k)] * horizon, list(responses))
    assert uniform > max(envelopes.values())


def test_monotone_response_gives_monotone_adaptive_decision():
    # A strictly better (larger) response coordinate must never end up with
    # less mass after one update from uniform, for either adaptive method.
    response = np.array([0.01, 0.05, 0.09])
    p0 = uniform_decision(3)
    grad = decision_grad(p0, response)

    s_state = ons_init(3, 0.1)
    _, s_decision = aaggff_s_step(s_state, grad)
    assert s_decision[0] < s_decision[1] < s_decision[2]

    d_state = ftrl_init(3, 0.1)
    _, d_decision = aaggff_d_step(d_state, grad)
    assert d_decision[0] < d_decision[1] < d_decision[2]


# ---------------------------------------------------------------------------
# restriction to a sampled cohort
# ---------------------------------------------------------------------------

def test_normalize_selected_hand_value():
    out = normalize_selected(np.array([0.2, 0.3, 0.5]), {2, 0})
    np.testing.assert_allclose(out, [2.0 / 7.0, 5.0 / 7.0])


def test_normalize_selected_zero_mass_falls_back(caplog):
    with caplog.at_level(logging.WARNING, logger="fairagg.aggregator"):
        out = normalize_selected(np.array([0.0, 0.0, 1.0]), [0, 1])
    np.testing.assert_allclose(out, [0.5, 0.5])
    assert any("zero mass" in record.message for record in caplog.records)
    with pytest.raises(InvalidDimensionError):
        normalize_selected(np.array([0.5, 0.5]), [])
