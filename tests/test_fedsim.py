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
    LocalSgd,
    RoundReport,
    ServerOptKind,
    ServerOptimizer,
    SimulationState,
    client_update,
    run_round,
    sample_clients,
    sample_size,
    server_apply,
)
from fairagg.metrics import performance_summary
from fairagg import aggregator, fedsim
from fairagg.decision import (
    decision_grad,
    decision_loss,
    dr_response,
    linearized_grad,
    lipschitz_constants,
)
from fairagg.modeldata import Dataset, ModelKind, ModelSpec, accuracy, forward_logits, group_loss, init_params, loss_and_grad, make_synthetic, partition, PartitionScheme, PartitionSpec
from fairagg.response import (
    CdfFamily,
    CdfKind,
    ResponseBounds,
    transform_losses,
)
from unification import BASELINE_KINDS

BINARY = ModelSpec(ModelKind.LOGISTIC, input_dim=2, num_classes=2)
TRI = ModelSpec(ModelKind.LOGISTIC, input_dim=2, num_classes=3)
MLP = ModelSpec(ModelKind.MLP, input_dim=2, num_classes=3, hidden=4)


def make_state(method_kind, clients, seed=0, **overrides):
    """A state over ``clients``, a (pool, sizes) pair as ``partition`` returns;
    an override named after a ``LocalSgd`` field sets that field of ``local_sgd``."""
    spec = overrides.pop("model_spec", BINARY)
    pool, sizes = clients
    bounds = overrides.pop("bounds", None) or ResponseBounds.cross_silo(len(sizes))
    sgd = {f.name: overrides.pop(f.name)
           for f in dataclasses.fields(LocalSgd) if f.name in overrides}
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
        local_sgd=LocalSgd(**sgd),
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


def test_propensity_is_the_sampled_fraction():
    # floor(0.5 * 7) = 3 of 7 clients are sampled, so each is included with
    # probability 3/7, not the configured 0.5.
    assert sample_size(7, 0.5) == 3
    state = make_state(
        MethodKind.AAGGFF_D, shards_for(7, n=140), sampling_c=0.5,
        bounds=ResponseBounds.cross_silo(7),
    )
    assert state.optimizer.l_inf_dr == lipschitz_constants(state.bounds, 3 / 7).l_inf_dr
    # Where c*k is a whole number the propensity is c itself, bit for bit.
    assert sample_size(1000, 0.02) / 1000 == 0.02


@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda k: k.value)
def test_only_aaggffd_completes_rounds_at_the_sampled_fraction(kind):
    # Every other method completes a round at propensity 1, which imputes the
    # observed mean, whatever fraction of clients it samples.
    expected = 3 / 7 if kind is MethodKind.AAGGFF_D else 1.0
    clients = shards_for(7, n=140)
    state = make_state(kind, clients, sampling_c=0.5, bounds=ResponseBounds.cross_silo(7))
    assert state.propensity == expected
    assert run_round(state, 0).propensity == expected
    # Yet every method's state checks the sampling fraction when it is built.
    with pytest.raises(DomainError, match="sampling fraction 'C' must lie in"):
        make_state(kind, clients, sampling_c=0.0)


# ---------------------------------------------------------------------------
# client updates
# ---------------------------------------------------------------------------

def feedback_of(params, pool, sizes, spec):
    """Each client's mean loss on one model, from a forward pass of its own
    over the clients' rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return group_loss(forward_logits(spec, params, pool.features), pool.labels, sizes)


def alone_loss_and_grad(spec, params, data):
    """One model's mean loss and gradient on one group holding every row of
    ``data``."""
    (loss,), (grad,) = loss_and_grad(spec, params[None], data, np.array([len(data)]))
    return loss, grad


def alone_accuracy(spec, params, shard):
    """One client's accuracy, from a forward pass over its rows alone."""
    logits = forward_logits(spec, params, shard.features)
    return accuracy(logits, shard.labels, np.array([len(shard)]))[0]


def update_one(params, data, spec, *, seed, **kwargs):
    """client_update on a single client, on the stream of ``default_rng(seed)``:
    its feedback, delta and diverged flag."""
    sizes = np.array([len(data)])
    [delta], [diverged] = client_update(
        params, data, sizes, spec, LocalSgd(**kwargs), 0, entropy=[[seed]]
    )
    [feedback] = feedback_of(params, data, sizes, spec)
    return feedback, delta, diverged


def test_zero_epochs_leave_parameters_untouched():
    data = make_synthetic(30, 2, 2, seed=1)
    feedback, delta, _ = update_one(
        np.zeros(3), data, BINARY, epochs=0, batch_size=10, lr=0.5,
        prox_mu=0.0, weight_decay=0.0, seed=0,
    )
    np.testing.assert_array_equal(delta, np.zeros(3))
    assert feedback == pytest.approx(math.log(2.0))


def test_single_sample_one_step_analytic_delta():
    # One sample (x, y=1) from zero parameters: prob 0.5, so the step is
    # lr * [-x/2, -1/2] and the delta its negation.
    data = Dataset(np.array([[2.0, -1.0]]), np.array([1], dtype=np.int64))
    feedback, delta, _ = update_one(
        np.zeros(3), data, BINARY, epochs=1, batch_size=1, lr=0.5,
        prox_mu=0.0, weight_decay=0.0, seed=0,
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
        np.zeros(3), data, BINARY, prox_mu=0.0, seed=1, **kwargs
    )
    _, prox, _ = update_one(
        np.zeros(3), data, BINARY, prox_mu=5.0, seed=1, **kwargs
    )
    np.testing.assert_allclose(prox, plain)


def test_prox_shrinks_multi_step_drift():
    # lr * mu stays below the stability threshold so the pull is a contraction.
    data = make_synthetic(50, 2, 2, seed=4)
    kwargs = dict(epochs=5, batch_size=10, lr=0.3, weight_decay=0.0)
    _, plain, _ = update_one(
        np.zeros(3), data, BINARY, prox_mu=0.0, seed=1, **kwargs
    )
    _, prox, _ = update_one(
        np.zeros(3), data, BINARY, prox_mu=1.0, seed=1, **kwargs
    )
    assert np.linalg.norm(prox) < np.linalg.norm(plain)


def test_weight_decay_adds_ridge_pull():
    data = make_synthetic(25, 2, 2, seed=5)
    received = np.array([1.0, -2.0, 0.5])
    kwargs = dict(epochs=1, batch_size=25, lr=0.3, prox_mu=0.0)
    _, plain, _ = update_one(
        received, data, BINARY, weight_decay=0.0, seed=1, **kwargs
    )
    _, decayed, _ = update_one(
        received, data, BINARY, weight_decay=0.1, seed=1, **kwargs
    )
    np.testing.assert_allclose(decayed - plain, 0.3 * 0.1 * received, atol=1e-12)


def test_training_divergence_is_flagged():
    # Huge features with a still-finite first step: the second batch sees
    # overflowing logits and must be reported as a divergence, not a crash.
    features = 1e200 * np.ones((4, 2))
    data = Dataset(features, np.array([0, 1, 2, 0], dtype=np.int64))
    _, _, diverged = update_one(
        np.zeros(TRI.param_length), data, TRI, epochs=2, batch_size=4, lr=10.0,
        prox_mu=0.0, weight_decay=0.0, seed=0,
    )
    assert diverged


def test_parameter_overflow_is_flagged_even_with_finite_loss():
    # Binary logistic clips probabilities, so its loss stays finite; the
    # overflow check on the local iterate must still catch this.
    data = Dataset(np.array([[1e160, 0.0]]), np.array([1], dtype=np.int64))
    _, _, diverged = update_one(
        np.zeros(3), data, BINARY, epochs=2, batch_size=1, lr=1e160,
        prox_mu=0.0, weight_decay=0.0, seed=0,
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


def spy_dr_response(monkeypatch):
    """Record the (values, observed) pair of every dr_response call run_round makes."""
    seen = []
    real = fedsim.dr_response

    def recording(values, observed, propensity):
        seen.append((values.copy(), observed.copy()))
        return real(values, observed, propensity)

    monkeypatch.setattr(fedsim, "dr_response", recording)
    return seen


def test_non_finite_feedback_client_is_dropped_from_mixing(monkeypatch):
    # Overflowing logits already on the received model: the client is
    # dropped from mixing on its feedback even with no local step to take,
    # and the estimate observes it at the worst response.
    good = make_synthetic(6, 2, 3, seed=1)
    bad = Dataset(1e200 * np.ones((3, 2)), np.array([0, 1, 2], dtype=np.int64))
    state = make_state(
        MethodKind.STATIC, pool_of([good, bad]), model_spec=TRI, epochs=0, batch_size=3,
        params=np.full(TRI.param_length, 1e200),
    )
    seen = trained_sizes(monkeypatch)
    report = run_round(state, 0)
    assert report.sampled_ids == [0]
    assert seen == [[6, 3]]
    assert report.sampled.tolist() == [0, 1]
    assert report.response[1] == state.bounds.c2


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
            np.zeros(3), empty, np.array([0]), BINARY,
            LocalSgd(epochs=1, batch_size=1, lr=0.1, prox_mu=0.0, weight_decay=0.0), 0,
            entropy=[[0]],
        )


def test_sizes_must_cover_the_rows():
    data = make_synthetic(30, 2, 2, seed=1)
    sgd = LocalSgd(epochs=1, batch_size=10, lr=0.1, prox_mu=0.0, weight_decay=0.0)
    for sizes in ([10, 10], [10, 25], [30, 0], []):
        with pytest.raises(InvalidDimensionError):
            client_update(np.zeros(3), data, np.array(sizes, dtype=int), BINARY, sgd, 0,
                          entropy=[])


def test_every_client_needs_an_entropy_row():
    data = make_synthetic(30, 2, 2, seed=1)
    sgd = LocalSgd(epochs=1, batch_size=10, lr=0.1, prox_mu=0.0, weight_decay=0.0)
    with pytest.raises(InvalidDimensionError, match="2 entropy rows for 3 clients"):
        client_update(np.zeros(3), data, np.array([10, 10, 10]), BINARY, sgd, 0,
                      entropy=[[0], [1]])


def test_zero_epochs_shuffle_no_client():
    data = make_synthetic(30, 2, 2, seed=1)
    # Client 1 has more rows than one minibatch, but no epoch to train.
    deltas, diverged = client_update(
        np.zeros(3), data, np.array([5, 15, 10]), BINARY,
        LocalSgd(epochs=0, batch_size=10, lr=0.1, prox_mu=0.0, weight_decay=0.0), 0,
        entropy=[[0], [1], [2]],
    )
    np.testing.assert_array_equal(deltas, np.zeros((3, 3)))
    assert not diverged.any()


def trained_batches(monkeypatch):
    """Record the ``(features, sizes)`` of every loss_and_grad call
    client_update makes."""
    seen = []
    real = fedsim.loss_and_grad

    def recording(spec, params, batch, sizes):
        seen.append((batch.features.copy(), sizes.tolist()))
        return real(spec, params, batch, sizes)

    monkeypatch.setattr(fedsim, "loss_and_grad", recording)
    return seen


def test_a_shuffling_client_walks_every_row_once_per_epoch(monkeypatch):
    # Row r of the one client carries feature r, so each minibatch names its rows.
    data = Dataset(np.arange(10.0)[:, None], np.zeros(10, dtype=np.int64))
    spec = ModelSpec(ModelKind.LOGISTIC, input_dim=1, num_classes=2)
    kwargs = dict(lr=0.1, prox_mu=0.0, weight_decay=0.0)
    seen = trained_batches(monkeypatch)
    client_update(np.zeros(2), data, np.array([10]), spec,
                  LocalSgd(epochs=2, batch_size=3, **kwargs), 0, entropy=[[31]])
    assert [sizes for _, sizes in seen] == [[3], [3], [3], [1]] * 2
    epochs = [np.concatenate([f[:, 0] for f, _ in seen[e:e + 4]]) for e in (0, 4)]
    for order in epochs:
        assert sorted(order.tolist()) == list(range(10))
    # Each epoch draws a fresh permutation.
    assert epochs[0].tolist() != epochs[1].tolist()
    with pytest.raises(DomainError, match="'batch_size'"):
        client_update(np.zeros(2), data, np.array([10]), spec,
                      LocalSgd(epochs=1, batch_size=0, **kwargs), 0, entropy=[[31]])


@pytest.mark.parametrize("epochs", [1, 3])
def test_a_one_minibatch_client_draws_nothing_from_its_generator(epochs):
    data = make_synthetic(12, 2, 2, seed=6)
    kwargs = dict(epochs=epochs, lr=0.3, prox_mu=0.1, weight_decay=0.01)
    for batch_size in (12, 50):
        # Two different streams: a client that walks its rows in pool order
        # trains the same either way.
        sgd = LocalSgd(batch_size=batch_size, **kwargs)
        [delta], _ = client_update(np.zeros(3), data, np.array([12]), BINARY, sgd, 0,
                                   entropy=[[3]])
        [other], _ = client_update(np.zeros(3), data, np.array([12]), BINARY, sgd, 0,
                                   entropy=[[4, 1]])
        assert np.any(delta != 0.0)
        assert delta.tobytes() == other.tobytes()


def given_generators(monkeypatch):
    """Record, for every client_update call run_round makes, its ``sizes``,
    the entropy rows it was given, and how many generators it built."""
    seen = []
    real = fedsim.client_update
    built = []
    real_rng = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(None)
        return real_rng(*args, **kwargs)

    def recording(params, data, sizes, *args, entropy, **kwargs):
        built.clear()
        result = real(params, data, sizes, *args, entropy=entropy, **kwargs)
        seen.append((sizes.tolist(), [np.asarray(row).copy() for row in entropy], len(built)))
        return result

    monkeypatch.setattr(fedsim, "client_update", recording)
    monkeypatch.setattr(np.random, "default_rng", counting)
    return seen


@pytest.mark.parametrize("epochs", [0, 2])
def test_round_gives_generators_only_to_clients_that_shuffle(monkeypatch, epochs):
    # Half the clients fit one minibatch of 8 rows, one of them exactly.
    sizes = np.array([3, 12, 8, 20, 1, 9, 5, 15])
    pool = make_synthetic(int(sizes.sum()), 2, 2, seed=7)
    batch_size = 8
    state = make_state(
        MethodKind.AAGGFF_D, (pool, sizes), seed=4, sampling_c=0.5, epochs=epochs,
        batch_size=batch_size, bounds=ResponseBounds.cross_silo(8),
    )
    seen = given_generators(monkeypatch)
    reports = [run_round(state, t) for t in range(3)]
    assert len(seen) == 3
    both_kinds = False
    for t, (report, (trained, rows, built)) in enumerate(zip(reports, seen)):
        assert trained == sizes[report.sampled_ids].tolist()
        shuffles = [size > batch_size and epochs > 0 for size in trained]
        both_kinds |= len(set(shuffles)) == 2
        # Exactly the clients that shuffle build a generator.
        assert built == sum(shuffles)
        for client, row in zip(report.sampled_ids, rows):
            stream = np.random.SeedSequence([4, fedsim._STREAM_CLIENT, t, client])
            np.testing.assert_array_equal(np.random.SeedSequence(row).pool, stream.pool)
    # Both kinds of client are sampled whenever there is an epoch to train.
    assert both_kinds == (epochs > 0)


def per_client_update(params, data, spec, *, epochs, batch_size, lr, prox_mu, weight_decay, rng):
    """Reference: one client's feedback and SGD delta, trained alone, one
    minibatch per call; None if it diverged."""
    received = np.asarray(params, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        feedback, _ = alone_loss_and_grad(spec, received, data)
        if not np.isfinite(feedback):
            return None
        local = received.copy()
        for _ in range(epochs):
            order = rng.permutation(len(data))
            for start in range(0, len(data), batch_size):
                loss, grad = alone_loss_and_grad(
                    spec, local, data.subset(order[start:start + batch_size])
                )
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


def three_mask_client_update(
    params, data, sizes, spec, *, epochs, batch_size, lr, prox_mu, weight_decay, entropy
):
    """Reference: client_update as a stacked loop that tests the loss, the
    gradient and the new iterate for finiteness, and writes every step
    through the masks."""
    received = np.asarray(params, dtype=float)
    schedules = []
    for size, offset, seed in zip(sizes, np.cumsum(sizes) - sizes, entropy):
        if size <= batch_size or epochs == 0:
            schedules.append([np.arange(offset, offset + size)] * epochs)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            orders = [offset + rng.permutation(size) for _ in range(epochs)]
            schedules.append([order[start:start + batch_size]
                              for order in orders for start in range(0, size, batch_size)])
    steps = np.array([len(batches) for batches in schedules])
    local = np.tile(received, (sizes.size, 1))
    diverged = np.zeros(sizes.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps.max()):
            movers = np.flatnonzero((steps > step) & ~diverged)
            if movers.size == 0:
                break
            batches = [schedules[j][step] for j in movers]
            current = local[movers]
            loss, grad = loss_and_grad(
                spec, current, data.subset(np.concatenate(batches)),
                np.array([len(b) for b in batches]),
            )
            if prox_mu > 0.0:
                grad = grad + prox_mu * (current - received)
            if weight_decay > 0.0:
                grad = grad + weight_decay * current
            stepped = current - lr * grad
            ok = (
                np.isfinite(loss)
                & np.all(np.isfinite(grad), axis=1)
                & np.all(np.isfinite(stepped), axis=1)
            )
            local[movers[ok]] = stepped[ok]
            diverged[movers[~ok]] = True
    return received - local, diverged


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
    per-client reference; client_update must equal the three-mask reference
    bit for bit."""
    pool, sizes = pool_of(shards)
    entropy = [[seed, i] for i in range(len(shards))]
    deltas, diverged = client_update(
        params, pool, sizes, spec, LocalSgd(**kwargs), 0, entropy=entropy
    )
    expected, expected_diverged = three_mask_client_update(
        params, pool, sizes, spec, entropy=entropy, **kwargs
    )
    assert deltas.tobytes() == expected.tobytes()
    assert diverged.tolist() == expected_diverged.tolist()
    stacked = feedback_of(params, pool, sizes, spec), deltas, diverged
    reference = [
        per_client_update(
            params, shard, spec, rng=np.random.default_rng(np.random.SeedSequence([seed, i])),
            **kwargs,
        )
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
    # Client 1's first step is finite; its second, mid-epoch, overflows
    # while the other three step.
    bad = list(shards)
    bad[1] = Dataset(1e200 * np.ones_like(shards[1].features), shards[1].labels)
    (feedback, deltas, diverged), reference = stacked_and_reference(params, bad, TRI, 5, **kwargs)
    assert reference[1] is None
    assert diverged.tolist() == [False, True, False, False]

    # The same clients without the bad one, on the same streams.
    kept = [0, 2, 3]
    alone_pool, alone_sizes = pool_of([shards[i] for i in kept])
    alone_deltas, alone_diverged = client_update(
        params, alone_pool, alone_sizes, TRI, LocalSgd(**kwargs), 0,
        entropy=[[5, i] for i in kept],
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
    sgd = state.local_sgd
    assert sgd.lr_at(0) == pytest.approx(0.1)
    assert sgd.lr_at(9) == pytest.approx(0.1)
    assert sgd.lr_at(10) == pytest.approx(0.05)
    assert sgd.lr_at(25) == pytest.approx(0.025)


def test_client_update_steps_at_the_rounds_decayed_rate():
    # 0.2 * 0.5 ** (3 // 2) is exactly 0.1, so round 3 steps as round 0 at 0.1.
    data = make_synthetic(30, 2, 2, seed=8)
    sizes = np.array([12, 18])
    base = dict(epochs=2, batch_size=5, prox_mu=0.1, weight_decay=0.01)
    decayed = client_update(np.zeros(3), data, sizes, BINARY,
                            LocalSgd(lr=0.2, lr_decay=0.5, decay_step=2, **base), 3,
                            entropy=[[1], [2]])
    plain = client_update(np.zeros(3), data, sizes, BINARY, LocalSgd(lr=0.1, **base), 0,
                          entropy=[[1], [2]])
    assert decayed[0].tobytes() == plain[0].tobytes()
    assert np.any(plain[0] != 0.0)


@pytest.mark.parametrize(
    "name, value",
    [("epochs", -1), ("batch_size", 0), ("lr", 0.0), ("lr", -1.0), ("lr", math.nan),
     ("lr_decay", 0.0), ("lr_decay", 1.5), ("lr_decay", 1e200), ("decay_step", 0),
     ("prox_mu", -0.1), ("weight_decay", -0.1)],
)
def test_local_sgd_rejects_each_bound(name, value):
    with pytest.raises(DomainError, match=f"'{name}'"):
        LocalSgd(**{name: value})
    # A state built in code can hold no such value either.
    with pytest.raises(DomainError, match=f"'{name}'"):
        make_state(MethodKind.STATIC, shards_for(3), **{name: value})


def test_local_sgd_accepts_each_closed_bound():
    sgd = LocalSgd(epochs=0, batch_size=1, lr_decay=1.0, decay_step=1, prox_mu=0.0,
                   weight_decay=0.0)
    assert (sgd.epochs, sgd.lr_decay) == (0, 1.0)


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


def test_zero_epochs_freeze_the_model():
    # A zero step size is out of range; zero epochs leave every client untrained.
    state = make_state(MethodKind.STATIC, shards_for(4), epochs=0)
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


def test_parameters_written_in_place_are_evaluated_before_feedback():
    # Same as above, but the new values go into the existing array: the
    # kept logits follow the parameters' values, not the array's identity.
    replaced = 0.5 * np.random.default_rng(3).standard_normal(MLP.param_length)
    state = make_state(MethodKind.STATIC, shards_for(5, classes=3), model_spec=MLP)
    run_round(state, 0)
    run_round(state, 1)
    state.params[:] = replaced
    fresh = make_state(
        MethodKind.STATIC, shards_for(5, classes=3), model_spec=MLP, params=replaced.copy()
    )
    fresh.decision = state.decision.copy()
    report, expected = run_round(state, 2), run_round(fresh, 2)
    assert report.mean_feedback == expected.mean_feedback
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
        per_shard = np.array([alone_accuracy(BINARY, state.params, s) for s in shards])
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


def test_pool_labels_outside_the_model_classes_are_rejected():
    pool, sizes = shards_for(3, classes=3)
    for bad in (3, -1):
        labels = pool.labels.copy()
        labels[-1] = bad
        with pytest.raises(DomainError, match=r"\[0, 3\)"):
            make_state(MethodKind.STATIC, (Dataset(pool.features, labels), sizes), model_spec=TRI)
    # One binary logit scores two classes, and these rows hold three.
    with pytest.raises(DomainError, match=r"\[0, 2\)"):
        make_state(MethodKind.STATIC, (pool, sizes), model_spec=BINARY)


@pytest.mark.parametrize("c", [0.5, 1.0], ids=["partial", "C1"])
@pytest.mark.parametrize("spec", [BINARY, MLP], ids=["binary", "mlp"])
def test_kept_logits_are_a_fresh_pass_that_scores_the_round(spec, c):
    state = make_state(
        MethodKind.AAGGFF_S, shards_for(6, classes=spec.num_classes), model_spec=spec,
        sampling_c=c, params=init_params(spec, 1),
    )
    for t in range(4):
        report = run_round(state, t)
        fresh = forward_logits(spec, state.params, state.pool.features)
        assert state.logits.shape == fresh.shape
        assert state.logits.tobytes() == fresh.tobytes()
        np.testing.assert_array_equal(state.logits_params, state.params)
        scored = accuracy(state.logits, state.pool.labels, state.sizes)
        assert report.summary == performance_summary(scored)


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
    rows on the received model, each client's stream from the list form of
    its seed sequence, and the summary from one accuracy call per client.
    Every sampled client trains and is observed; mixing leaves out the ones
    with non-finite feedback or a diverged delta, which are observed at the
    worst response while the mixed ones' feedback alone is transformed, by
    their mean feedback.

    Returns (report, ons, ftrl).
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
    deltas, failed = client_update(
        state.params, *pool_of([shards[i] for i in sampled]), state.model_spec,
        state.local_sgd, t,
        entropy=[[state.master_seed, fedsim._STREAM_CLIENT, t, i] for i in sampled],
    )
    mixed = np.isfinite(feedback) & ~failed
    survivors = [i for i, keep in zip(sampled, mixed) if keep]
    feedbacks = feedback[mixed]
    # Every sampled client is observed, an unmixed one at the worst response.
    responses = np.full(len(sampled), state.bounds.c2)
    responses[mixed] = transform_losses(feedbacks, state.cdf, state.bounds)
    observed = np.isin(np.arange(k), sampled)
    scattered = np.zeros(k)
    scattered[sampled] = responses
    kind = state.method.kind
    propensity = 1.0
    if kind is MethodKind.AAGGFF_D and state.propensity < 1.0:
        propensity = state.propensity
        r = dr_response(scattered, observed, propensity)
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
    mixed_delta = np.zeros_like(state.params)
    for weight, delta in zip(normalize_selected(decision, survivors), deltas[mixed]):
        mixed_delta += weight * delta
    state.params = server_apply(state.params, mixed_delta, state.server_opt)
    state.decision = decision
    per_client = np.array([alone_accuracy(state.model_spec, state.params, s) for s in shards])
    report = RoundReport(
        round=t,
        sampled=np.array(sampled),
        mixed=mixed,
        mean_feedback=float(feedbacks.mean()),
        propensity=propensity,
        response=r,
        decision_loss=loss,
        decision=decision,
        summary=performance_summary(per_client),
    )
    return report, ons, ftrl


def assert_same_observation(report, expected):
    """Both rounds sampled, mixed, scaled and completed alike, bit for bit."""
    for name in ("sampled", "mixed", "response"):
        assert getattr(report, name).tobytes() == getattr(expected, name).tobytes()
    assert report.mean_feedback == expected.mean_feedback
    assert report.propensity == expected.propensity


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
        expected, ons, ftrl = old_dispatch_round(reference, t, ons, ftrl)
        survivors = expected.sampled_ids
        dropped += int((~expected.mixed).sum())
        assert_same_observation(report, expected)
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
        expected, ons, ftrl = old_dispatch_round(reference, t, ons, ftrl)
        assert_same_observation(report, expected)
        assert report.sampled_ids == expected.sampled_ids
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


# ---------------------------------------------------------------------------
# what a round observes
# ---------------------------------------------------------------------------

def overflowing_clients(k, bad, seed=4):
    """A (pool, sizes) layout of k IID three-class clients of 40 rows; client
    ``bad`` overflows on its second SGD step whenever it is sampled."""
    base = make_synthetic(40 * k, 2, 3, seed=seed)
    clients = split(*partition(base, PartitionSpec(PartitionScheme.IID, k=k, seed=seed)))
    clients[bad] = Dataset(1e200 * np.ones_like(clients[bad].features), clients[bad].labels)
    return pool_of(clients)


def test_a_client_diverging_in_training_is_still_observed(monkeypatch, caplog):
    state = make_state(
        MethodKind.AAGGFF_D, overflowing_clients(6, bad=2), seed=2, model_spec=TRI,
        sampling_c=0.5, bounds=ResponseBounds.cross_silo(6),
    )
    estimated = spy_dr_response(monkeypatch)
    checked = 0
    for t in range(5):
        feedback = feedback_of(state.params, state.pool, state.sizes, TRI)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fairagg.fedsim"):
            report = run_round(state, t)
        values, observed = estimated[-1]
        sampled = report.sampled.tolist()
        assert np.flatnonzero(observed).tolist() == sampled
        # Only client 2 is left out of mixing; the others set the scale.
        others = [i for i in sampled if i != 2]
        assert report.sampled_ids == others
        expected = transform_losses(feedback[others], state.cdf, state.bounds)
        np.testing.assert_array_equal(values[others], expected)
        if 2 in sampled:
            assert np.isfinite(feedback[2])
            assert 2 not in report.sampled_ids
            assert values[2] == state.bounds.c2
            assert [r.getMessage() for r in caplog.records] == [
                f"dropping diverged client 2 in round {t}"
            ]
            checked += 1
    assert checked > 0


def test_a_diverging_client_does_not_flatten_the_others_responses():
    # Client 2's feedback is finite but near 1e198 once the model has moved;
    # were it in the scaling mean, every other ratio would be about 1e-198
    # and every healthy client would get the same response.  A random start
    # gives the healthy clients different losses from round 0 on.
    state = make_state(
        MethodKind.AAGGFF_D, overflowing_clients(6, bad=2), seed=2, model_spec=TRI,
        sampling_c=1.0, bounds=ResponseBounds.cross_silo(6), params=init_params(TRI, 2),
    )
    healthy = [0, 1, 3, 4, 5]
    for t in range(4):
        feedback = feedback_of(state.params, state.pool, state.sizes, TRI)
        report = run_round(state, t)
        assert report.sampled_ids == healthy
        # The reported scale is the one the healthy responses were divided by.
        assert report.mean_feedback == feedback[healthy].mean()
        values = report.response
        assert len(set(values[healthy])) > 1
        expected = transform_losses(feedback[healthy], state.cdf, state.bounds)
        np.testing.assert_array_equal(values[healthy], expected)
        assert values[2] == state.bounds.c2


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_a_round_of_all_zero_feedback_scores_every_client_at_ratio_one(monkeypatch, c):
    state = make_state(
        MethodKind.AAGGFF_D, shards_for(6), seed=3, sampling_c=c,
        bounds=ResponseBounds.cross_silo(6),
    )
    monkeypatch.setattr(fedsim, "group_loss", lambda logits, labels, sizes: np.zeros(sizes.size))
    estimated = spy_dr_response(monkeypatch)
    report = run_round(state, 0)
    [(values, observed)] = estimated
    at_one = transform_losses(np.ones(1), state.cdf, state.bounds)[0]
    assert observed.sum() == len(report.sampled_ids) > 0
    np.testing.assert_array_equal(values[observed], at_one)
    assert report.mean_feedback == 0.0


def spy_ftrl_steps(monkeypatch):
    """Record (gradient, l_inf_dr) of every step AAggFFD's optimizer takes."""
    fed = []
    real = aggregator.aaggff_d_step

    def recording(ftrl, gradient):
        fed.append((gradient.copy(), ftrl.l_inf_dr))
        return real(ftrl, gradient)

    monkeypatch.setattr(aggregator, "aaggff_d_step", recording)
    return fed


def test_full_participation_feeds_ftrl_the_exact_gradient(monkeypatch):
    # Client 2 is dropped from mixing every round, yet at C=1 every client
    # is observed, so the round is complete and FTRL takes the gradient
    # at the played decision.
    state = make_state(
        MethodKind.AAGGFF_D, overflowing_clients(6, bad=2), seed=2, model_spec=TRI,
        sampling_c=1.0, bounds=ResponseBounds.cross_silo(6),
    )
    linearized = []
    monkeypatch.setattr(fedsim, "linearized_grad", lambda *args: linearized.append(args))
    fed = spy_ftrl_steps(monkeypatch)
    for t in range(4):
        prev = state.decision.copy()
        report = run_round(state, t)
        assert 2 not in report.sampled_ids
        assert report.sampled.tolist() == list(range(6))
        assert report.propensity == 1.0
        assert report.decision_loss == decision_loss(prev, report.response)
        np.testing.assert_array_equal(fed[-1][0], decision_grad(prev, report.response))
    assert linearized == []
    assert len(fed) == 4


@settings(deadline=None, max_examples=30)
@given(
    k=st.integers(7, 10),
    c=st.sampled_from([0.3, 0.5, 1.0]),
    bad=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_aaggff_d_gradients_stay_within_the_bound_ftrl_was_sized_with(k, c, bad, seed):
    # At k >= 7 every C here samples two clients or more, so a round always
    # has one left to mix when the bad client is dropped.
    bad %= k
    state = make_state(
        MethodKind.AAGGFF_D, overflowing_clients(k, bad, seed=1), seed=seed, model_spec=TRI,
        sampling_c=c, bounds=ResponseBounds.cross_silo(k),
    )
    with pytest.MonkeyPatch.context() as mp:
        fed = spy_ftrl_steps(mp)
        estimated = spy_dr_response(mp)
        for t in range(4):
            report = run_round(state, t)
            unmixed = report.sampled[~report.mixed]
            assert np.all(estimated[-1][0][unmixed] == state.bounds.c2)
    assert len(fed) == 4
    assert all(np.max(np.abs(gradient)) <= bound for gradient, bound in fed)
