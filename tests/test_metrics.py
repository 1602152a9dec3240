"""Fairness-summary and regret-accounting tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairagg.errors import DomainError, InvalidDimensionError
from fairagg.metrics import cumulative_regret, performance_summary


def test_constant_values_are_perfectly_fair():
    out = performance_summary(np.ones(3))
    assert out.average == 1.0
    assert out.worst10 == 1.0
    assert out.best10 == 1.0
    assert out.gini_x100 == 0.0
    assert out.acc_parity_gap == 0.0


def test_two_point_summary_hand_values():
    out = performance_summary(np.array([0.0, 1.0]))
    assert out.average == pytest.approx(0.5)
    assert out.worst10 == pytest.approx(0.0)
    assert out.best10 == pytest.approx(1.0)
    assert out.gini_x100 == pytest.approx(50.0)
    assert out.acc_parity_gap == pytest.approx(1.0)


def test_three_point_summary_hand_values():
    out = performance_summary(np.array([0.9, 0.5, 0.7]))
    assert out.average == pytest.approx(0.7)
    assert out.worst10 == pytest.approx(0.5)
    assert out.best10 == pytest.approx(0.9)
    assert out.acc_parity_gap == pytest.approx(0.4)
    assert out.gini_x100 == pytest.approx(100.0 * 0.8 / 6.3)


def test_tail_size_rounds_up():
    # 12 values: the tail means cover ceil(12/10) = 2 entries each.
    values = np.arange(12, dtype=float)
    out = performance_summary(values)
    assert out.worst10 == pytest.approx(0.5)
    assert out.best10 == pytest.approx(10.5)


def test_summary_rejects_bad_inputs():
    with pytest.raises(DomainError):
        performance_summary(np.array([0.5, -0.1]))
    with pytest.raises(InvalidDimensionError):
        performance_summary(np.array([]))


def test_all_zero_values_have_zero_gini():
    out = performance_summary(np.zeros(4))
    assert out.gini_x100 == 0.0
    assert out.average == 0.0


positive_values = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=40,
)


@settings(deadline=None)
@given(positive_values, st.floats(min_value=0.01, max_value=100.0))
def test_gini_is_scale_invariant(values, factor):
    base = performance_summary(np.array(values))
    scaled = performance_summary(factor * np.array(values))
    assert scaled.gini_x100 == pytest.approx(base.gini_x100, abs=1e-8)
    assert scaled.average == pytest.approx(factor * base.average, rel=1e-9)
    assert scaled.acc_parity_gap == pytest.approx(factor * base.acc_parity_gap, rel=1e-9, abs=1e-12)


@settings(deadline=None)
@given(positive_values, st.randoms(use_true_random=False))
def test_summary_is_permutation_invariant(values, rand):
    shuffled = list(values)
    rand.shuffle(shuffled)
    a = performance_summary(np.array(values))
    b = performance_summary(np.array(shuffled))
    assert a == b


@settings(deadline=None)
@given(positive_values)
def test_tail_means_bracket_the_average(values):
    out = performance_summary(np.array(values))
    assert out.worst10 <= out.average + 1e-12
    assert out.average <= out.best10 + 1e-12
    assert 0.0 <= out.gini_x100 <= 100.0


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------

def test_zero_responses_give_zero_regret():
    decisions = [np.array([0.3, 0.7])] * 5
    responses = [np.zeros(2)] * 5
    regret, _ = cumulative_regret(decisions, responses)
    assert regret == pytest.approx(0.0, abs=1e-9)


def test_single_client_regret_is_exactly_zero():
    # At K=1 every decision is [1.0], the hindsight point itself, so the
    # played and hindsight losses are the same numbers, added the same way.
    responses = list(np.random.default_rng(1).uniform(0.0, 1.0, size=(100, 1)))
    regret, hindsight = cumulative_regret([np.array([1.0])] * 100, responses)
    assert regret == 0.0
    np.testing.assert_array_equal(hindsight, [1.0])


def test_constant_response_regret_hand_value():
    # Uniform play against r = (1, 0): each round costs ln 2 - ln 1.5 over
    # the hindsight optimum at the first vertex.
    rounds = 7
    decisions = [np.array([0.5, 0.5])] * rounds
    responses = [np.array([1.0, 0.0])] * rounds
    regret, hindsight = cumulative_regret(decisions, responses)
    assert regret == pytest.approx(rounds * math.log(4.0 / 3.0), abs=1e-6)
    np.testing.assert_allclose(hindsight, [1.0, 0.0], atol=1e-4)


def grid_simplex_3(spacing):
    xs = np.arange(0.0, 1.0 + spacing / 2, spacing)
    points = []
    for a in xs:
        for b in np.arange(0.0, 1.0 - a + spacing / 2, spacing):
            points.append((a, b, 1.0 - a - b))
    return np.array(points)


def test_regret_matches_grid_search_oracle():
    rng = np.random.default_rng(41)
    rounds, k = 20, 3
    decisions = [rng.dirichlet(np.ones(k)) for _ in range(rounds)]
    responses = [rng.uniform(0.0, 0.6, size=k) for _ in range(rounds)]
    regret, hindsight = cumulative_regret(decisions, responses)

    stacked = np.stack(responses)
    played = sum(-math.log1p(float(r @ p)) for p, r in zip(decisions, responses))
    grid = grid_simplex_3(1e-3)
    totals = -np.log1p(grid @ stacked.T).sum(axis=1)
    oracle_regret = played - float(totals.min())
    assert regret == pytest.approx(oracle_regret, abs=2e-3)
    oracle_best = grid[np.argmin(totals)]
    np.testing.assert_allclose(hindsight, oracle_best, atol=5e-3)


def test_constant_play_never_beats_hindsight():
    # The comparator class is fixed decisions, so a constant played decision
    # can only lose to the hindsight optimum (up to solver tolerance).
    rng = np.random.default_rng(53)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        rounds = int(rng.integers(1, 15))
        played = rng.dirichlet(np.ones(k))
        decisions = [played] * rounds
        responses = [rng.uniform(0.0, 1.0, size=k) for _ in range(rounds)]
        regret, _ = cumulative_regret(decisions, responses)
        assert regret >= -1e-7


def test_regret_rejects_empty_and_mismatched_logs():
    with pytest.raises(InvalidDimensionError):
        cumulative_regret([], [])
    with pytest.raises(InvalidDimensionError):
        cumulative_regret([np.array([1.0, 0.0])], [np.zeros(2), np.zeros(2)])
