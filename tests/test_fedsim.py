"""Federated-orchestration tests: sampling statistics, analytic one-step
client updates, server optimizer steps, divergence handling, and bit-exact
determinism across reruns and thread counts."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairagg.aggregator import (
    BASELINE_KINDS,
    AggregatorMethod,
    FtrlState,
    MethodKind,
    OnsState,
    aaggff_d_step,
    aaggff_s_step,
    baseline_coefficients,
    ftrl_init,
    normalize_selected,
    ons_init,
)
from fairagg.errors import DivergenceError, DomainError, InvalidDimensionError
from fairagg.fedsim import (
    RoundReport,
    ServerOptKind,
    ServerOptimizer,
    SimulationState,
    _effective_lr,
    client_update,
    run_round,
    sample_clients,
    sample_size,
    server_apply,
)
from fairagg.metrics import performance_summary
from fairagg import fedsim
from fairagg.decision import (
    decision_grad,
    decision_loss,
    dr_response,
    linearized_grad,
    lipschitz_constants,
)
from fairagg.modeldata import Dataset, ModelKind, ModelSpec, accuracy, epoch_batches, forward_logits, group_loss, init_params, loss_and_grad, make_synthetic, partition, PartitionScheme, PartitionSpec
from fairagg.response import (
    CdfFamily,
    CdfKind,
    ResponseBounds,
    transform_losses,
)

BINARY = ModelSpec(ModelKind.LOGISTIC, input_dim=2, num_classes=2)
TRI = ModelSpec(ModelKind.LOGISTIC, input_dim=2, num_classes=3)
MLP = ModelSpec(ModelKind.MLP, input_dim=2, num_classes=3, hidden=4)


def make_state(method_kind, clients, seed=0, **overrides):
    """A state over ``clients``, a (pool, sizes) pair as ``partition`` returns."""
    spec = overrides.pop("model_spec", BINARY)
    pool, sizes = clients
    bounds = overrides.pop("bounds", None) or ResponseBounds.cross_silo(len(sizes))
    defaults = dict(
        master_seed=seed,
        model_spec=spec,
        pool=pool,
        sizes=sizes,
        params=np.zeros(spec.param_length),
        method=AggregatorMethod(method_kind),
        cdf=CdfKind(CdfFamily.NORMAL),
        bounds=bounds,
        sampling_c=1.0,
        epochs=1,
        batch_size=20,
        lr=0.1,
        lr_decay=0.99,
        decay_step=10,
        prox_mu=0.0,
        weight_decay=0.0,
        server_opt=ServerOptimizer(),
    )
    defaults.update(overrides)
    return SimulationState(**defaults)


def shards_for(k, n=120, seed=0, classes=2, dim=2):
    data = make_synthetic(n, dim, classes, seed=seed)
    return partition(data, PartitionSpec(PartitionScheme.IID, k=k, seed=seed))


def pool_of(shards):
    """The (pool, sizes) layout of a list of client datasets."""
    pool = Dataset(
        np.concatenate([s.features for s in shards]), np.concatenate([s.labels for s in shards])
    )
    return pool, np.array([len(s) for s in shards])


def split(pool, sizes):
    """Each client's rows of a (pool, sizes) layout as a dataset of its own."""
    ends = np.cumsum(sizes)
    return [pool.subset(slice(end - size, end)) for end, size in zip(ends, sizes)]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_size_and_ordering():
    rng = np.random.default_rng(0)
    out = sample_clients(10, 0.3, rng)
    assert len(out) == 3
    assert out == sorted(set(out))
    assert all(0 <= i < 10 for i in out)
    assert sample_clients(10, 1.0, rng) == list(range(10))
    # The floor is one client even when c*k rounds down to zero.
    assert len(sample_clients(7, 0.01, rng)) == 1


@pytest.mark.parametrize(
    "k, c, expected",
    [(100, 0.29, 29), (50, 0.58, 29), (200, 0.57, 114), (7, 0.5, 3), (1000, 0.02, 20)],
)
def test_sample_size_ignores_float_rounding(k, c, expected):
    # 0.29 * 100 is 28.999999999999996 in floating point.
    assert sample_size(k, c) == expected


def test_sample_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        sample_clients(5, 0.0, rng)
    with pytest.raises(DomainError):
        sample_clients(5, 1.2, rng)
    with pytest.raises(InvalidDimensionError):
        sample_clients(0, 0.5, rng)


def test_sampling_is_uniform_by_monte_carlo():
    rng = np.random.default_rng(123)
    k, c, draws = 4, 0.5, 20000
    hits = np.zeros(k)
    for _ in range(draws):
        for i in sample_clients(k, c, rng):
            hits[i] += 1
    # Inclusion probability is exactly 0.5; 0.01 is ~3 standard errors.
    np.testing.assert_allclose(hits / draws, 0.5, atol=0.01)


def test_propensity_is_the_sampled_fraction(monkeypatch):
    # floor(0.5 * 7) = 3 of 7 clients are sampled, so each is included with
    # probability 3/7, not the configured 0.5.
    assert sample_size(7, 0.5) == 3
    state = make_state(
        MethodKind.AAGGFF_D, shards_for(7, n=140), sampling_c=0.5,
        bounds=ResponseBounds.cross_silo(7),
    )
    assert state.propensity == 3 / 7
    assert state.optimizer.l_inf_dr == lipschitz_constants(state.bounds, 3 / 7).l_inf_dr
    seen = []

    def spy(values, observed, propensity):
        seen.append(propensity)
        return dr_response(values, observed, propensity)

    monkeypatch.setattr(fedsim, "dr_response", spy)
    run_round(state, 0)
    assert seen == [3 / 7]
    # Where c*k is a whole number the propensity is c itself, bit for bit.
    assert sample_size(1000, 0.02) / 1000 == 0.02


# ---------------------------------------------------------------------------
# client updates
# ---------------------------------------------------------------------------

def feedback_of(params, pool, sizes, spec):
    """Each client's mean loss on one model, from a forward pass of its own
    over the clients' rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return group_loss(forward_logits(spec, params, pool.features), pool.labels, sizes)


def update_one(params, data, spec, *, rng, **kwargs):
    """client_update on a single client: its feedback, delta and diverged flag."""
    sizes = np.array([len(data)])
    [delta], [diverged] = client_update(params, data, sizes, spec, rngs=[rng], **kwargs)
    [feedback] = feedback_of(params, data, sizes, spec)
    return feedback, delta, diverged


def test_zero_epochs_leave_parameters_untouched():
    data = make_synthetic(30, 2, 2, seed=1)
    feedback, delta, _ = update_one(
        np.zeros(3), data, BINARY, epochs=0, batch_size=10, lr=0.5,
        prox_mu=0.0, weight_decay=0.0, rng=np.random.default_rng(0),
    )
    np.testing.assert_array_equal(delta, np.zeros(3))
    assert feedback == pytest.approx(math.log(2.0))


def test_single_sample_one_step_analytic_delta():
    # One sample (x, y=1) from zero parameters: prob 0.5, so the step is
    # lr * [-x/2, -1/2] and the delta its negation.
    data = Dataset(np.array([[2.0, -1.0]]), np.array([1], dtype=np.int64))
    feedback, delta, _ = update_one(
        np.zeros(3), data, BINARY, epochs=1, batch_size=1, lr=0.5,
        prox_mu=0.0, weight_decay=0.0, rng=np.random.default_rng(0),
    )
    np.testing.assert_allclose(delta, [-0.5, 0.25, -0.25])
    assert feedback == pytest.approx(math.log(2.0))


def test_feedback_is_measured_before_training():
    data = make_synthetic(40, 2, 2, seed=2)
    state = make_state(
        MethodKind.STATIC, (data, np.array([40])), bounds=ResponseBounds.cross_silo(1),
        epochs=3, batch_size=10, lr=0.5,
    )
    report = run_round(state, 0)
    assert report.mean_feedback == pytest.approx(math.log(2.0))
    assert np.any(state.params != 0.0)


def test_prox_pull_is_inactive_on_the_first_step():
    data = make_synthetic(25, 2, 2, seed=3)
    kwargs = dict(epochs=1, batch_size=25, lr=0.3, weight_decay=0.0)
    _, plain, _ = update_one(
        np.zeros(3), data, BINARY, prox_mu=0.0, rng=np.random.default_rng(1), **kwargs
    )
    _, prox, _ = update_one(
        np.zeros(3), data, BINARY, prox_mu=5.0, rng=np.random.default_rng(1), **kwargs
    )
    np.testing.assert_allclose(prox, plain)


def test_prox_shrinks_multi_step_drift():
    # lr * mu stays below the stability threshold so the pull is a contraction.
    data = make_synthetic(50, 2, 2, seed=4)
    kwargs = dict(epochs=5, batch_size=10, lr=0.3, weight_decay=0.0)
    _, plain, _ = update_one(
        np.zeros(3), data, BINARY, prox_mu=0.0, rng=np.random.default_rng(1), **kwargs
    )
    _, prox, _ = update_one(
        np.zeros(3), data, BINARY, prox_mu=1.0, rng=np.random.default_rng(1), **kwargs
    )
    assert np.linalg.norm(prox) < np.linalg.norm(plain)


def test_weight_decay_adds_ridge_pull():
    data = make_synthetic(25, 2, 2, seed=5)
    received = np.array([1.0, -2.0, 0.5])
    kwargs = dict(epochs=1, batch_size=25, lr=0.3, prox_mu=0.0)
    _, plain, _ = update_one(
        received, data, BINARY, weight_decay=0.0, rng=np.random.default_rng(1), **kwargs
    )
    _, decayed, _ = update_one(
        received, data, BINARY, weight_decay=0.1, rng=np.random.default_rng(1), **kwargs
    )
    np.testing.assert_allclose(decayed - plain, 0.3 * 0.1 * received, atol=1e-12)


def test_training_divergence_is_flagged():
    # Huge features with a still-finite first step: the second batch sees
    # overflowing logits and must be reported as a divergence, not a crash.
    features = 1e200 * np.ones((4, 2))
    data = Dataset(features, np.array([0, 1, 2, 0], dtype=np.int64))
    _, _, diverged = update_one(
        np.zeros(TRI.param_length), data, TRI, epochs=2, batch_size=4, lr=10.0,
        prox_mu=0.0, weight_decay=0.0, rng=np.random.default_rng(0),
    )
    assert diverged


def test_parameter_overflow_is_flagged_even_with_finite_loss():
    # Binary logistic clips probabilities, so its loss stays finite; the
    # overflow check on the local iterate must still catch this.
    data = Dataset(np.array([[1e160, 0.0]]), np.array([1], dtype=np.int64))
    _, _, diverged = update_one(
        np.zeros(3), data, BINARY, epochs=2, batch_size=1, lr=1e160,
        prox_mu=0.0, weight_decay=0.0, rng=np.random.default_rng(0),
    )
    assert diverged


def trained_sizes(monkeypatch):
    """Record the ``sizes`` of every client_update call run_round makes."""
    seen = []
    real = fedsim.client_update

    def recording(params, data, sizes, *args, **kwargs):
        seen.append(sizes.tolist())
        return real(params, data, sizes, *args, **kwargs)

    monkeypatch.setattr(fedsim, "client_update", recording)
    return seen


def test_non_finite_feedback_is_flagged_without_training(monkeypatch):
    # Overflowing logits already on the received model: the client is
    # dropped on its feedback even with no local step to take.
    good = make_synthetic(6, 2, 3, seed=1)
    bad = Dataset(1e200 * np.ones((3, 2)), np.array([0, 1, 2], dtype=np.int64))
    state = make_state(
        MethodKind.STATIC, pool_of([good, bad]), model_spec=TRI, epochs=0, batch_size=3,
        params=np.full(TRI.param_length, 1e200),
    )
    seen = trained_sizes(monkeypatch)
    report = run_round(state, 0)
    assert report.sampled_ids == [0]
    assert seen == [[6]]


def test_non_finite_global_model_aborts_the_round_without_training(monkeypatch):
    # Every client's feedback is non-finite, so no client reaches
    # loss_and_grad, which would refuse the non-finite parameters.
    state = make_state(MethodKind.STATIC, shards_for(3), params=np.full(3, np.nan))
    seen = trained_sizes(monkeypatch)
    with pytest.raises(DivergenceError):
        run_round(state, 0)
    assert seen == []


def test_empty_shard_rejected():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(InvalidDimensionError):
        client_update(
            np.zeros(3), empty, np.array([0]), BINARY, epochs=1, batch_size=1, lr=0.1,
            prox_mu=0.0, weight_decay=0.0, rngs=[np.random.default_rng(0)],
        )


def test_sizes_must_cover_the_rows():
    data = make_synthetic(30, 2, 2, seed=1)
    kwargs = dict(epochs=1, batch_size=10, lr=0.1, prox_mu=0.0, weight_decay=0.0)
    for sizes in ([10, 10], [10, 25], [30, 0], []):
        with pytest.raises(InvalidDimensionError):
            client_update(np.zeros(3), data, np.array(sizes, dtype=int), BINARY,
                          rngs=[], **kwargs)


def per_client_update(params, data, spec, *, epochs, batch_size, lr, prox_mu, weight_decay, rng):
    """Reference: one client's feedback and SGD delta, trained alone, one
    minibatch per call; None if it diverged."""
    received = np.asarray(params, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        feedback, _ = loss_and_grad(spec, received, data)
        if not np.isfinite(feedback):
            return None
        local = received.copy()
        for _ in range(epochs):
            for batch_idx in epoch_batches(len(data), batch_size, rng):
                loss, grad = loss_and_grad(spec, local, data.subset(batch_idx))
                if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                    return None
                if prox_mu > 0.0:
                    grad = grad + prox_mu * (local - received)
                if weight_decay > 0.0:
                    grad = grad + weight_decay * local
                local = local - lr * grad
                if not np.all(np.isfinite(local)):
                    return None
    return feedback, received - local


def random_shards(spec, sizes, rng):
    return [
        Dataset(
            2.0 * rng.standard_normal((size, spec.input_dim)),
            rng.integers(0, spec.num_classes, size=size),
        )
        for size in sizes
    ]


def stacked_and_reference(params, shards, spec, seed, **kwargs):
    """The grouped feedback and client_update over every shard, and the
    per-client reference."""
    pool, sizes = pool_of(shards)
    deltas, diverged = client_update(
        params, pool, sizes, spec,
        rngs=[np.random.default_rng([seed, i]) for i in range(len(shards))], **kwargs,
    )
    stacked = feedback_of(params, pool, sizes, spec), deltas, diverged
    reference = [
        per_client_update(params, shard, spec, rng=np.random.default_rng([seed, i]), **kwargs)
        for i, shard in enumerate(shards)
    ]
    return stacked, reference


@settings(deadline=None, max_examples=60)
@given(
    spec=st.sampled_from([BINARY, TRI, MLP]),
    sizes=st.lists(st.one_of(st.just(1), st.integers(2, 9), st.integers(20, 60)), min_size=1, max_size=6),
    batch_size=st.sampled_from([1, 3, 7, 20, 100]),
    epochs=st.sampled_from([0, 1, 3]),
    prox_mu=st.sampled_from([0.0, 0.1]),
    weight_decay=st.sampled_from([0.0, 0.01]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_update_matches_per_client_loop(
    spec, sizes, batch_size, epochs, prox_mu, weight_decay, seed
):
    rng = np.random.default_rng(seed)
    shards = random_shards(spec, sizes, rng)
    params = 0.5 * rng.standard_normal(spec.param_length)
    (feedback, deltas, diverged), reference = stacked_and_reference(
        params, shards, spec, seed, epochs=epochs, batch_size=batch_size, lr=0.2,
        prox_mu=prox_mu, weight_decay=weight_decay,
    )
    assert not diverged.any()
    assert feedback.shape == diverged.shape == (len(sizes),)
    assert deltas.shape == (len(sizes), spec.param_length)
    for stacked_feedback, delta, (ref_feedback, ref_delta) in zip(feedback, deltas, reference):
        assert abs(stacked_feedback - ref_feedback) <= 1e-12
        np.testing.assert_allclose(delta, ref_delta, rtol=0.0, atol=1e-12)


def test_one_diverging_client_leaves_the_others_untouched():
    rng = np.random.default_rng(11)
    shards = random_shards(TRI, [30, 7, 45, 1], rng)
    kwargs = dict(epochs=2, batch_size=15, lr=10.0, prox_mu=0.0, weight_decay=0.0)
    params = np.zeros(TRI.param_length)
    # Client 1's first step is finite; its second, mid-epoch, overflows.
    bad = list(shards)
    bad[1] = Dataset(1e200 * np.ones_like(shards[1].features), shards[1].labels)
    (feedback, deltas, diverged), reference = stacked_and_reference(params, bad, TRI, 5, **kwargs)
    assert reference[1] is None
    assert diverged.tolist() == [False, True, False, False]

    # The same clients without the bad one, with the same generators.
    kept = [0, 2, 3]
    alone_pool, alone_sizes = pool_of([shards[i] for i in kept])
    alone_deltas, alone_diverged = client_update(
        params, alone_pool, alone_sizes, TRI,
        rngs=[np.random.default_rng([5, i]) for i in kept], **kwargs,
    )
    alone_feedback = feedback_of(params, alone_pool, alone_sizes, TRI)
    assert not alone_diverged.any()
    np.testing.assert_array_equal(deltas[kept], alone_deltas)
    np.testing.assert_allclose(feedback[kept], alone_feedback, rtol=0.0, atol=1e-12)
    for delta, i in zip(deltas[kept], kept):
        np.testing.assert_allclose(delta, reference[i][1], rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# server optimizer
# ---------------------------------------------------------------------------

def test_sgd_applies_delta_exactly():
    opt = ServerOptimizer(kind=ServerOptKind.SGD, lr=1.0)
    out = server_apply(np.array([1.0, 2.0]), np.array([0.25, -0.5]), opt)
    np.testing.assert_allclose(out, [0.75, 2.5])
    assert opt.first_moment is None


def test_adam_first_step_closed_form():
    opt = ServerOptimizer(kind=ServerOptKind.ADAM, lr=0.1)
    g = np.array([0.4, -0.2])
    out = server_apply(np.zeros(2), g, opt)
    expected = -0.1 * (0.1 * g) / (np.sqrt(0.01 * g * g) + 1e-3)
    np.testing.assert_allclose(out, expected)


def test_yogi_first_step_equals_adam_first_step():
    g = np.array([0.4, -0.2])
    adam = server_apply(np.zeros(2), g, ServerOptimizer(kind=ServerOptKind.ADAM, lr=0.1))
    yogi = server_apply(np.zeros(2), g, ServerOptimizer(kind=ServerOptKind.YOGI, lr=0.1))
    np.testing.assert_allclose(adam, yogi)


def test_adagrad_accumulates_squares():
    opt = ServerOptimizer(kind=ServerOptKind.ADAGRAD, lr=1.0, beta1=0.0)
    g = np.array([3.0])
    server_apply(np.zeros(1), g, opt)
    server_apply(np.zeros(1), g, opt)
    np.testing.assert_allclose(opt.second_moment, [18.0])


def test_adam_moments_persist_across_steps():
    opt = ServerOptimizer(kind=ServerOptKind.ADAM, lr=0.1)
    g = np.array([1.0])
    server_apply(np.zeros(1), g, opt)
    server_apply(np.zeros(1), g, opt)
    np.testing.assert_allclose(opt.first_moment, [1.0 - 0.9 ** 2])
    np.testing.assert_allclose(opt.second_moment, [0.01 * (1.0 + 0.99)])


def test_server_apply_validation():
    with pytest.raises(InvalidDimensionError):
        server_apply(np.zeros(2), np.zeros(3), ServerOptimizer())
    with pytest.raises(DomainError):
        ServerOptimizer(lr=0.0)
    with pytest.raises(DomainError):
        ServerOptimizer(beta1=1.0)


def test_learning_rate_decay_schedule():
    state = make_state(MethodKind.STATIC, shards_for(3), lr=0.1, lr_decay=0.5, decay_step=10)
    assert _effective_lr(state, 0) == pytest.approx(0.1)
    assert _effective_lr(state, 9) == pytest.approx(0.1)
    assert _effective_lr(state, 10) == pytest.approx(0.05)
    assert _effective_lr(state, 25) == pytest.approx(0.025)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def test_static_round_uses_size_proportional_decision():
    base = make_synthetic(60, 2, 2, seed=6)
    state = make_state(MethodKind.STATIC, (base, np.array([10, 20, 30])))
    report = run_round(state, 0)
    np.testing.assert_allclose(report.decision, [10 / 60, 20 / 60, 30 / 60])
    assert report.sampled_ids == [0, 1, 2]
    assert math.isfinite(report.decision_loss)
    assert 0.0 <= report.summary.average <= 1.0


def test_single_client_gets_full_mass():
    state = make_state(MethodKind.AAGGFF_D, shards_for(1), bounds=ResponseBounds.cross_silo(1))
    report = run_round(state, 0)
    np.testing.assert_array_equal(report.decision, [1.0])


def test_round_decision_normalizes_over_survivors():
    state = make_state(MethodKind.AAGGFF_S, shards_for(5), sampling_c=0.4)
    report = run_round(state, 0)
    assert len(report.sampled_ids) == 2
    weights = normalize_selected(report.decision, report.sampled_ids)
    assert weights.sum() == pytest.approx(1.0)


def test_diverged_client_is_dropped_with_warning(caplog):
    base = make_synthetic(90, 2, 3, seed=7)
    clients = split(*partition(base, PartitionSpec(PartitionScheme.IID, k=3, seed=7)))
    bad = clients[1]
    clients[1] = Dataset(1e200 * np.ones_like(bad.features), bad.labels)
    state = make_state(
        MethodKind.STATIC, pool_of(clients), model_spec=TRI, lr=10.0, batch_size=15, epochs=2,
    )
    with caplog.at_level(logging.WARNING, logger="fairagg.fedsim"):
        report = run_round(state, 0)
    assert report.sampled_ids == [0, 2]
    assert report.decision[1] == 0.0
    assert report.decision.sum() == pytest.approx(1.0)
    assert [r.getMessage() for r in caplog.records] == ["dropping diverged client 1 in round 0"]


def test_all_clients_diverging_aborts_the_round():
    base = make_synthetic(30, 2, 3, seed=7)
    clients = [Dataset(1e200 * np.ones_like(base.features), base.labels)]
    state = make_state(
        MethodKind.STATIC, pool_of(clients), model_spec=TRI, lr=10.0, epochs=2, batch_size=15
    )
    with pytest.raises(DivergenceError) as excinfo:
        run_round(state, 3)
    assert excinfo.value.round_index == 3


def test_zero_learning_rate_freezes_the_model():
    state = make_state(MethodKind.STATIC, shards_for(4), lr=0.0)
    first = run_round(state, 0)
    second = run_round(state, 1)
    third = run_round(state, 2)
    assert first.mean_feedback == second.mean_feedback == third.mean_feedback
    np.testing.assert_array_equal(state.params, np.zeros(3))


def test_replaced_parameters_are_evaluated_before_feedback():
    # The kept logits belong to the old parameters; the next round must
    # read feedback on the new ones, as a state built with them does.
    replaced = 0.5 * np.random.default_rng(3).standard_normal(MLP.param_length)
    state = make_state(MethodKind.STATIC, shards_for(5, classes=3), model_spec=MLP)
    run_round(state, 0)
    run_round(state, 1)
    state.params = replaced.copy()
    fresh = make_state(
        MethodKind.STATIC, shards_for(5, classes=3), model_spec=MLP, params=replaced.copy()
    )
    fresh.decision = state.decision.copy()
    report, expected = run_round(state, 2), run_round(fresh, 2)
    assert report.mean_feedback == expected.mean_feedback
    assert report.decision_loss == expected.decision_loss
    np.testing.assert_array_equal(report.decision, expected.decision)
    assert report.summary == expected.summary
    np.testing.assert_array_equal(state.params, fresh.params)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
def test_client_entropy_rows_give_the_list_form_streams(seed):
    clients = np.array([0, 1, 7, 999, 2**31])
    for t in (0, 1, 41, 2**32 - 1):
        for row, client in zip(fedsim._client_entropy(seed, t, clients), clients):
            ours = np.random.SeedSequence(row)
            listed = np.random.SeedSequence([seed, fedsim._STREAM_CLIENT, t, int(client)])
            np.testing.assert_array_equal(ours.pool, listed.pool)
            np.testing.assert_array_equal(
                np.random.default_rng(ours).permutation(50),
                np.random.default_rng(listed).permutation(50),
            )


def run_sim(seed, rounds=3, method=MethodKind.AAGGFF_D, c=0.5):
    state = make_state(
        method, shards_for(8, n=160, seed=1), seed=seed, sampling_c=c,
        bounds=ResponseBounds.cross_silo(8),
    )
    reports = [run_round(state, t) for t in range(rounds)]
    return state, reports


def test_same_seed_reproduces_bit_for_bit():
    state_a, reports_a = run_sim(seed=5)
    state_b, reports_b = run_sim(seed=5)
    np.testing.assert_array_equal(state_a.params, state_b.params)
    for ra, rb in zip(reports_a, reports_b):
        assert ra.sampled_ids == rb.sampled_ids
        assert ra.mean_feedback == rb.mean_feedback
        assert ra.decision_loss == rb.decision_loss
        np.testing.assert_array_equal(ra.decision, rb.decision)
        assert ra.summary == rb.summary
    _, reports_c = run_sim(seed=6)
    assert any(
        ra.mean_feedback != rc.mean_feedback for ra, rc in zip(reports_a, reports_c)
    )


def dirichlet_shards(k=50, n=1000, seed=3):
    data = make_synthetic(n, 2, 2, seed=seed)
    return partition(data, PartitionSpec(PartitionScheme.DIRICHLET, k=k, seed=seed, alpha=0.1))


def test_clients_are_views_of_the_pool_in_client_order():
    shards = split(*dirichlet_shards())
    state = make_state(MethodKind.AAGGFF_D, pool_of(shards), sampling_c=0.2)
    np.testing.assert_array_equal(
        state.pool.features, np.concatenate([s.features for s in shards])
    )
    np.testing.assert_array_equal(state.pool.labels, np.concatenate([s.labels for s in shards]))
    for client, shard in enumerate(shards):
        rows = slice(state.starts[client], state.starts[client] + state.sizes[client])
        np.testing.assert_array_equal(state.pool.features[rows], shard.features)
        np.testing.assert_array_equal(state.pool.labels[rows], shard.labels)


def test_pooled_evaluation_matches_the_per_shard_loop():
    shards = split(*dirichlet_shards())
    state = make_state(MethodKind.AAGGFF_D, pool_of(shards), sampling_c=0.2)
    for t in range(4):
        report = run_round(state, t)
        per_shard = np.array([accuracy(BINARY, state.params, s) for s in shards])
        assert report.summary == performance_summary(per_shard)


def test_clients_without_samples_are_rejected():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(InvalidDimensionError):
        make_state(MethodKind.STATIC, pool_of(split(*shards_for(2)) + [empty]))
    pool, sizes = shards_for(2)
    one = ResponseBounds.cross_silo(1)
    for bad in (sizes[:1], np.array([0, len(pool)]), np.array([], dtype=np.int64)):
        with pytest.raises(InvalidDimensionError):
            make_state(MethodKind.STATIC, (pool, bad), bounds=one)


def test_adaptive_methods_initialize_their_state():
    s = make_state(MethodKind.AAGGFF_S, shards_for(4))
    assert isinstance(s.optimizer, OnsState)
    d = make_state(MethodKind.AAGGFF_D, shards_for(4))
    assert isinstance(d.optimizer, FtrlState)
    # Full participation feeds exact gradients, so the tighter bound applies.
    assert d.optimizer.l_inf_dr == pytest.approx(0.25 / (1.0 + 0.0))
    partial = make_state(MethodKind.AAGGFF_D, shards_for(4), sampling_c=0.5)
    assert partial.optimizer.l_inf_dr == pytest.approx(0.25 + 2 * 0.25 / 0.5)
    # A closed form keeps no optimizer state.
    for kind in BASELINE_KINDS:
        assert make_state(kind, shards_for(4)).optimizer is None


def old_dispatch_round(state, t, ons, ftrl):
    """One round with the per-method dispatch the simulator had before the
    optimizers shared ``step``: each kind named, each step called directly.
    Feedback comes from a forward pass of its own over the sampled clients'
    rows on the received model, each client's generator from the list form
    of its seed sequence, and the summary from one accuracy call per client.

    Returns (sampled, report, ons, ftrl).
    """
    k = state.k
    rng = np.random.default_rng(
        np.random.SeedSequence([state.master_seed, fedsim._STREAM_SAMPLING, t])
    )
    sampled = sample_clients(k, state.sampling_c, rng)
    shards = split(state.pool, state.sizes)
    feedback = feedback_of(
        state.params, *pool_of([shards[i] for i in sampled]), state.model_spec
    )
    trained = [i for i, f in zip(sampled, feedback) if np.isfinite(f)]
    diverged = ~np.isfinite(feedback)
    deltas, failed = client_update(
        state.params, *pool_of([shards[i] for i in trained]), state.model_spec,
        epochs=state.epochs, batch_size=state.batch_size, lr=_effective_lr(state, t),
        prox_mu=state.prox_mu, weight_decay=state.weight_decay,
        rngs=[
            np.random.default_rng(
                np.random.SeedSequence([state.master_seed, fedsim._STREAM_CLIENT, t, i])
            )
            for i in trained
        ],
    )
    diverged[~diverged] = failed
    survivors = [i for i, bad in zip(sampled, diverged) if not bad]
    feedbacks = feedback[~diverged]
    responses = transform_losses(feedbacks, state.cdf, state.bounds)
    observed = np.isin(np.arange(k), survivors)
    scattered = np.zeros(k)
    scattered[survivors] = responses
    kind = state.method.kind
    if kind is MethodKind.AAGGFF_D and len(survivors) < k:
        r = dr_response(scattered, observed, state.propensity)
        gradient = linearized_grad(r, state.decision, float(responses.mean()))
    else:
        r = np.where(observed, scattered, float(responses.mean()))
        gradient = decision_grad(state.decision, r)
    loss = decision_loss(state.decision, r)
    if kind in BASELINE_KINDS:
        sizes = np.array([len(shards[i]) for i in survivors], dtype=float)
        decision = np.zeros(k)
        decision[survivors] = baseline_coefficients(state.method, sizes, feedbacks)
    elif kind is MethodKind.AAGGFF_S:
        ons, decision = aaggff_s_step(ons, gradient)
    else:
        ftrl, decision = aaggff_d_step(ftrl, gradient)
    mixed = np.zeros_like(state.params)
    for weight, delta in zip(normalize_selected(decision, survivors), deltas[~failed]):
        mixed += weight * delta
    state.params = server_apply(state.params, mixed, state.server_opt)
    state.decision = decision
    per_client = np.array([accuracy(state.model_spec, state.params, s) for s in shards])
    report = RoundReport(
        round=t,
        sampled_ids=survivors,
        mean_feedback=float(feedbacks.mean()),
        decision_loss=loss,
        decision=decision,
        summary=performance_summary(per_client),
    )
    return sampled, report, ons, ftrl


def reference_optimizers(state):
    """The ONS and FTRL states old_dispatch_round steps for ``state``."""
    constants = lipschitz_constants(state.bounds, state.propensity)
    ons = ons_init(state.k, constants.l_inf)
    ftrl = ftrl_init(
        state.k, constants.l_inf if state.propensity == 1.0 else constants.l_inf_dr
    )
    return ons, ftrl


# At C=1 client 2 is still dropped every round, so AAggFFD completes the
# round at propensity 1.  The C=0.5 cases take the bare kind as their id,
# which keeps their test names stable.
@pytest.mark.parametrize(
    "kind, c",
    [pytest.param(kind, c, id=str(kind) if c == 0.5 else f"{kind}-C1")
     for kind in MethodKind for c in (0.5, 1.0)],
)
def test_one_step_interface_matches_the_per_method_dispatch(kind, c):
    base = make_synthetic(240, 2, 3, seed=4)
    clients = split(*partition(base, PartitionSpec(PartitionScheme.IID, k=6, seed=4)))
    # Client 2 overflows on its second SGD step whenever it is sampled.
    clients[2] = Dataset(1e200 * np.ones_like(clients[2].features), clients[2].labels)

    def fresh():
        return make_state(
            kind, pool_of(clients), seed=2, model_spec=TRI, sampling_c=c,
            bounds=ResponseBounds.cross_silo(6),
        )

    state, reference = fresh(), fresh()
    ons, ftrl = reference_optimizers(reference)
    dropped = 0
    for t in range(5):
        report = run_round(state, t)
        sampled, expected, ons, ftrl = old_dispatch_round(reference, t, ons, ftrl)
        survivors = expected.sampled_ids
        dropped += len(sampled) - len(survivors)
        assert report.sampled_ids == survivors
        assert report.decision_loss == expected.decision_loss
        np.testing.assert_array_equal(report.decision, expected.decision)
        assert np.all(report.decision >= 0.0)
        assert report.decision.sum() == pytest.approx(1.0)
        assert normalize_selected(report.decision, survivors).sum() == pytest.approx(1.0)
    np.testing.assert_array_equal(state.params, reference.params)
    assert dropped > 0


@settings(deadline=None, max_examples=40)
@given(
    spec=st.sampled_from([BINARY, TRI, MLP]),
    kind=st.sampled_from(list(MethodKind)),
    k=st.integers(3, 8),
    c=st.sampled_from([0.3, 1.0]),
    epochs=st.sampled_from([0, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rounds_match_a_reference_with_its_own_feedback_pass(spec, kind, k, c, epochs, seed):
    data = make_synthetic(30 * k, 2, spec.num_classes, seed=seed)
    clients = split(*partition(
        data, PartitionSpec(PartitionScheme.DIRICHLET, k=k, seed=seed, alpha=0.5)
    ))

    def fresh():
        return make_state(
            kind, pool_of(clients), seed=seed, model_spec=spec, sampling_c=c, epochs=epochs,
            batch_size=7, params=init_params(spec, seed), bounds=ResponseBounds.cross_silo(k),
            # PropFair needs every loss below its ceiling.
            method=AggregatorMethod(kind, loss_ceiling=100.0),
        )

    state, reference = fresh(), fresh()
    ons, ftrl = reference_optimizers(reference)
    for t in range(5):
        report = run_round(state, t)
        _, expected, ons, ftrl = old_dispatch_round(reference, t, ons, ftrl)
        assert report.sampled_ids == expected.sampled_ids
        assert abs(report.mean_feedback - expected.mean_feedback) <= 1e-12
        assert abs(report.decision_loss - expected.decision_loss) <= 1e-12
        np.testing.assert_allclose(report.decision, expected.decision, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            dataclasses.astuple(report.summary), dataclasses.astuple(expected.summary),
            rtol=0.0, atol=1e-12,
        )


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(list(MethodKind)),
    k=st.integers(4, 8),
    c=st.sampled_from([0.5, 0.6, 0.75, 0.9]),
    bad=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_rounds_stay_on_the_simplex_and_drop_the_diverging_client(kind, k, c, bad, seed):
    bad %= k
    data = make_synthetic(40 * k, 2, 3, seed=1)
    clients = split(*partition(data, PartitionSpec(PartitionScheme.IID, k=k, seed=1)))
    # The bad client overflows on its second SGD step whenever it is sampled.
    clients[bad] = Dataset(1e200 * np.ones_like(clients[bad].features), clients[bad].labels)
    state = make_state(
        kind, pool_of(clients), seed=seed, model_spec=TRI, sampling_c=c,
        bounds=ResponseBounds.cross_silo(k),
    )
    for t in range(4):
        report = run_round(state, t)
        assert np.all(report.decision >= 0.0)
        assert report.decision.sum() == pytest.approx(1.0)
        assert normalize_selected(report.decision, report.sampled_ids).sum() == pytest.approx(1.0)
        assert report.sampled_ids == sorted(set(report.sampled_ids))
        assert bad not in report.sampled_ids
