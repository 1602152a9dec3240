"""Model, synthetic-data, and partitioning tests.

Gradients are checked against central finite differences; partitions against
set identities (disjoint, exhaustive, per-client minimums) and distributional
contrasts between concentration levels.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairagg import modeldata
from fairagg.errors import DomainError, InvalidDimensionError, NumericalFailureError
from fairagg.modeldata import (
    BLOCK_ELEMENTS,
    Dataset,
    ModelKind,
    ModelSpec,
    PartitionScheme,
    PartitionSpec,
    accuracy,
    epoch_batches,
    forward_logits,
    group_loss,
    init_params,
    loss_and_grad,
    make_synthetic,
    partition,
    predict,
)

BINARY = ModelSpec(ModelKind.LOGISTIC, input_dim=2, num_classes=2)
MULTI = ModelSpec(ModelKind.LOGISTIC, input_dim=3, num_classes=4)
MLP = ModelSpec(ModelKind.MLP, input_dim=2, num_classes=3, hidden=5)


def central_train_accuracy(spec, data, lr=0.5, steps=400):
    """Full-batch gradient descent to (near) convergence; train accuracy."""
    params = np.zeros(spec.param_length)
    if spec.kind is ModelKind.MLP:
        params = init_params(spec, seed=0)
    for _ in range(steps):
        _, grad = loss_and_grad(spec, params, data)
        params = params - lr * grad
    return accuracy(spec, params, data)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def test_synthetic_labels_are_balanced():
    data = make_synthetic(200, input_dim=2, num_classes=2, seed=3)
    assert len(data) == 200
    counts = np.bincount(data.labels, minlength=2)
    np.testing.assert_array_equal(counts, [100, 100])

    odd = make_synthetic(7, input_dim=2, num_classes=3, seed=3)
    assert sorted(np.bincount(odd.labels, minlength=3)) == [2, 2, 3]


def test_synthetic_is_seed_deterministic():
    a = make_synthetic(64, 2, 2, seed=9)
    b = make_synthetic(64, 2, 2, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = make_synthetic(64, 2, 2, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_rejects_too_few_samples():
    with pytest.raises(DomainError):
        make_synthetic(2, 2, 3, seed=0)


def test_synthetic_clusters_are_learnable():
    data = make_synthetic(400, 2, 2, seed=1)
    assert central_train_accuracy(BINARY, data) >= 0.9


def test_synthetic_many_classes_get_distinct_means():
    # 5 classes in 2 dimensions force mean reuse of vertices at larger radii.
    data = make_synthetic(500, 2, 5, seed=2)
    grand = np.stack([data.features[data.labels == c].mean(axis=0) for c in range(5)])
    dists = np.linalg.norm(grand[:, None, :] - grand[None, :, :], axis=-1)
    off_diag = dists[~np.eye(5, dtype=bool)]
    assert off_diag.min() > 1.0


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def fingerprint(shard: Dataset) -> set:
    return {(tuple(f), int(l)) for f, l in zip(shard.features, shard.labels)}


def split(pool, sizes):
    """Each client's rows of a (pool, sizes) layout as a dataset of its own."""
    ends = np.cumsum(sizes)
    return [pool.subset(slice(end - size, end)) for end, size in zip(ends, sizes)]


@pytest.mark.parametrize(
    "scheme",
    [PartitionScheme.IID, PartitionScheme.DIRICHLET, PartitionScheme.PATHOLOGICAL],
)
def test_partition_is_disjoint_and_exhaustive(scheme):
    data = make_synthetic(300, 2, 4, seed=5)
    spec = PartitionSpec(scheme, k=7, seed=5, alpha=0.3, classes_per_client=2)
    shards = split(*partition(data, spec))
    assert len(shards) == 7
    assert all(len(s) >= 1 for s in shards)
    assert sum(len(s) for s in shards) == 300
    seen = set()
    for shard in shards:
        fp = fingerprint(shard)
        assert not (seen & fp)
        seen |= fp
    assert seen == fingerprint(data)


def test_iid_partition_splits_evenly():
    data = make_synthetic(100, 2, 2, seed=0)
    _, sizes = partition(data, PartitionSpec(PartitionScheme.IID, k=4, seed=0))
    assert sizes.tolist() == [25, 25, 25, 25]


def test_pathological_partition_limits_label_variety():
    data = make_synthetic(600, 2, 6, seed=8)
    spec = PartitionSpec(PartitionScheme.PATHOLOGICAL, k=6, seed=8, classes_per_client=2)
    for shard in split(*partition(data, spec)):
        assert np.unique(shard.labels).size == 2


def test_pathological_rejects_uncoverable_label_space():
    data = make_synthetic(600, 2, 6, seed=8)
    spec = PartitionSpec(PartitionScheme.PATHOLOGICAL, k=2, seed=8, classes_per_client=2)
    with pytest.raises(DomainError):
        partition(data, spec)


def test_dirichlet_concentration_controls_heterogeneity():
    # Low concentration drives per-client label entropy toward zero.
    data = make_synthetic(1000, 2, 5, seed=4)

    def mean_entropy(alpha, seed):
        spec = PartitionSpec(PartitionScheme.DIRICHLET, k=10, seed=seed, alpha=alpha)
        out = []
        for shard in split(*partition(data, spec)):
            freq = np.bincount(shard.labels, minlength=5) / len(shard)
            nz = freq[freq > 0]
            out.append(-float((nz * np.log(nz)).sum()))
        return float(np.mean(out))

    skewed = np.mean([mean_entropy(0.01, s) for s in range(20)])
    flat = np.mean([mean_entropy(100.0, s) for s in range(20)])
    assert skewed < 0.3
    assert flat > 1.2
    assert skewed < flat


def test_partition_seed_determinism():
    data = make_synthetic(300, 2, 4, seed=5)
    spec = PartitionSpec(PartitionScheme.DIRICHLET, k=5, seed=77, alpha=0.1)
    a = split(*partition(data, spec))
    b = split(*partition(data, spec))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.features, y.features)
        np.testing.assert_array_equal(x.labels, y.labels)


def test_partition_rejects_more_clients_than_samples():
    data = make_synthetic(10, 2, 2, seed=0)
    with pytest.raises(DomainError):
        partition(data, PartitionSpec(PartitionScheme.IID, k=11, seed=0))


def _reference_require_min_one(shards: list[np.ndarray]) -> list[np.ndarray]:
    """Move samples from the largest shard until every shard is nonempty."""
    shards = [np.asarray(s, dtype=int) for s in shards]
    for i, shard in enumerate(shards):
        if shard.size == 0:
            largest = max(range(len(shards)), key=lambda j: shards[j].size)
            if shards[largest].size <= 1:
                raise DomainError("not enough samples to give every client one")
            shards[i] = shards[largest][-1:]
            shards[largest] = shards[largest][:-1]
    return shards


def reference_partition(dataset: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Reference: the split as one dataset per client, built from per-client
    index lists, which ``partition`` must reproduce row for row."""
    n = len(dataset)
    if spec.k > n:
        raise DomainError(f"cannot split {n} samples across {spec.k} clients")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    labels = dataset.labels
    classes = np.unique(labels)

    if spec.scheme is PartitionScheme.IID:
        order = rng.permutation(n)
        shards = [np.sort(s) for s in np.array_split(order, spec.k)]

    elif spec.scheme is PartitionScheme.DIRICHLET:
        proportions = rng.dirichlet(spec.alpha * np.ones(classes.size), size=spec.k)
        shards = [[] for _ in range(spec.k)]
        for col, cls in enumerate(classes):
            pool = np.flatnonzero(labels == cls)
            pool = pool[rng.permutation(pool.size)]
            weights = proportions[:, col]
            total = weights.sum()
            weights = np.full(spec.k, 1.0 / spec.k) if total <= 0 else weights / total
            quota = weights * pool.size
            counts = np.floor(quota).astype(int)
            shortfall = pool.size - int(counts.sum())
            if shortfall > 0:
                order = np.argsort(-(quota - counts), kind="stable")
                counts[order[:shortfall]] += 1
            offsets = np.concatenate([[0], np.cumsum(counts)])
            for k in range(spec.k):
                shards[k].extend(pool[offsets[k]:offsets[k + 1]].tolist())
        shards = [np.sort(np.asarray(s, dtype=int)) for s in shards]

    else:
        m = spec.classes_per_client
        if spec.k * m < classes.size:
            raise DomainError(
                f"{spec.k} clients x {m} classes cannot cover {classes.size} classes"
            )
        owners: dict[int, list[int]] = {int(c): [] for c in classes}
        for k in range(spec.k):
            for j in range(m):
                cls = int(classes[(k * m + j) % classes.size])
                owners[cls].append(k)
        shards = [[] for _ in range(spec.k)]
        for cls, owning in owners.items():
            pool = np.flatnonzero(labels == cls)
            pool = pool[rng.permutation(pool.size)]
            for part, k in zip(np.array_split(pool, len(owning)), owning):
                shards[k].extend(part.tolist())
        shards = [np.sort(np.asarray(s, dtype=int)) for s in shards]

    return [dataset.subset(s) for s in _reference_require_min_one(shards)]


@st.composite
def partition_cases(draw):
    """(samples, classes, spec), with K often close to the sample count."""
    classes = draw(st.integers(2, 20))
    n = draw(st.integers(classes, 150))
    k = draw(st.one_of(st.integers(1, n), st.integers(max(1, n - 5), n)))
    spec = PartitionSpec(
        draw(st.sampled_from(list(PartitionScheme))),
        k=k,
        seed=draw(st.integers(0, 2**32 - 1)),
        alpha=10.0 ** draw(st.floats(-3.0, 2.0)),
        classes_per_client=draw(st.integers(1, 2 * classes)),
    )
    return n, classes, spec


# The examples leave clients empty before the donation step: 3 of 60 under a
# near-one-hot Dirichlet, and 2 of 4 when Pathological gives each of 2 classes
# (2 rows each) four holders.
@settings(deadline=None, max_examples=200)
@example((100, 20, PartitionSpec(PartitionScheme.DIRICHLET, k=60, seed=0, alpha=0.001)))
@example((4, 2, PartitionSpec(PartitionScheme.PATHOLOGICAL, k=4, seed=0, classes_per_client=2)))
@given(case=partition_cases())
def test_partition_matches_the_per_client_reference(case):
    n, classes, spec = case
    data = make_synthetic(n, 2, classes, seed=spec.seed)
    try:
        shards = reference_partition(data, spec)
    except DomainError:
        with pytest.raises(DomainError):
            partition(data, spec)
        return
    pool, sizes = partition(data, spec)
    assert sizes.tolist() == [len(s) for s in shards]
    assert sizes.min() >= 1
    np.testing.assert_array_equal(pool.features, np.concatenate([s.features for s in shards]))
    np.testing.assert_array_equal(pool.labels, np.concatenate([s.labels for s in shards]))


# ---------------------------------------------------------------------------
# losses and gradients
# ---------------------------------------------------------------------------

def test_zero_params_give_log_num_classes_loss():
    data = make_synthetic(50, 2, 2, seed=6)
    loss, _ = loss_and_grad(BINARY, np.zeros(BINARY.param_length), data)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    data4 = make_synthetic(50, 3, 4, seed=6)
    loss4, _ = loss_and_grad(MULTI, np.zeros(MULTI.param_length), data4)
    assert loss4 == pytest.approx(math.log(4.0), abs=1e-12)

    data3 = make_synthetic(50, 2, 3, seed=6)
    loss3, _ = loss_and_grad(MLP, np.zeros(MLP.param_length), data3)
    assert loss3 == pytest.approx(math.log(3.0), abs=1e-12)


# The grouped cases give each of three groups its own parameters; a group's
# loss depends on its own parameters only, so the summed loss has the same
# gradient.  Explicit ids keep the names of the ungrouped cases.
@pytest.mark.parametrize(
    "spec,classes,sizes",
    [
        (BINARY, 2, None),
        (MULTI, 4, None),
        (MLP, 3, None),
        (BINARY, 2, (1, 14, 25)),
        (MULTI, 4, (1, 14, 25)),
        (MLP, 3, (1, 14, 25)),
    ],
    ids=["spec0-2", "spec1-4", "spec2-3", "grouped-binary", "grouped-multi", "grouped-mlp"],
)
def test_gradient_matches_finite_differences(spec, classes, sizes):
    data = make_synthetic(40, spec.input_dim, classes, seed=14)
    rng = np.random.default_rng(14)
    sizes = None if sizes is None else np.array(sizes)
    shape = (spec.param_length,) if sizes is None else (len(sizes), spec.param_length)
    params = 0.5 * rng.standard_normal(shape)
    _, grad = loss_and_grad(spec, params, data, sizes)
    assert grad.shape == shape

    h = 1e-6
    numeric = np.empty_like(params)
    for i in np.ndindex(params.shape):
        e = np.zeros_like(params)
        e[i] = h
        up, _ = loss_and_grad(spec, params + e, data, sizes)
        down, _ = loss_and_grad(spec, params - e, data, sizes)
        numeric[i] = (np.sum(up) - np.sum(down)) / (2 * h)
    scale = max(1.0, float(np.max(np.abs(numeric))))
    assert float(np.max(np.abs(grad - numeric))) / scale <= 1e-5


def test_loss_rejects_bad_params_and_batches():
    data = make_synthetic(10, 2, 2, seed=0)
    with pytest.raises(InvalidDimensionError):
        loss_and_grad(BINARY, np.zeros(5), data)
    with pytest.raises(NumericalFailureError):
        loss_and_grad(BINARY, np.array([np.inf, 0.0, 0.0]), data)
    with pytest.raises(InvalidDimensionError):  # grouped form needs (S, P)
        loss_and_grad(BINARY, np.zeros(3), data, np.array([10]))
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(InvalidDimensionError):
        loss_and_grad(BINARY, np.zeros(3), empty)


def test_predictions_follow_the_decision_boundary():
    # Weights (1, 0), bias 0: the sign of the first feature decides.
    features = np.array([[2.0, 5.0], [-2.0, 5.0]])
    out = predict(BINARY, np.array([1.0, 0.0, 0.0]), features)
    np.testing.assert_array_equal(out, [1, 0])
    data = Dataset(features, np.array([1, 1], dtype=np.int64))
    assert accuracy(BINARY, np.array([1.0, 0.0, 0.0]), data) == 0.5


# Shard sizes mix single rows, small shards and large ones, so splits are
# often very unequal.
shard_sizes = st.lists(
    st.one_of(st.just(1), st.integers(1, 6), st.integers(60, 400)), min_size=1, max_size=12
)


@settings(deadline=None)
@given(shard_sizes, st.sampled_from([BINARY, MULTI, MLP]), st.integers(0, 2**32 - 1))
def test_grouped_accuracy_equals_per_shard_accuracy(sizes, spec, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    pooled = Dataset(
        2.0 * rng.standard_normal((n, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=n),
    )
    params = rng.standard_normal(spec.param_length)
    ends = np.cumsum(sizes)
    shards = [pooled.subset(np.arange(end - size, end)) for end, size in zip(ends, sizes)]

    grouped = accuracy(spec, params, pooled, np.array(sizes))
    assert grouped.shape == (len(sizes),)
    assert grouped.tolist() == [accuracy(spec, params, shard) for shard in shards]


@settings(deadline=None)
@given(shard_sizes, st.sampled_from([BINARY, MULTI, MLP]), st.integers(0, 2**32 - 1))
def test_grouped_loss_and_grad_equal_per_group_calls(sizes, spec, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    pooled = Dataset(
        2.0 * rng.standard_normal((n, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=n),
    )
    params = rng.standard_normal((len(sizes), spec.param_length))
    ends = np.cumsum(sizes)
    shards = [pooled.subset(np.arange(end - size, end)) for end, size in zip(ends, sizes)]

    loss, grad = loss_and_grad(spec, params, pooled, np.array(sizes))
    shared = group_loss(
        forward_logits(spec, params[0], pooled.features), pooled.labels, np.array(sizes)
    )
    assert loss.shape == shared.shape == (len(sizes),)
    assert grad.shape == params.shape
    for g, shard in enumerate(shards):
        one_loss, one_grad = loss_and_grad(spec, params[g], shard)
        np.testing.assert_allclose(loss[g], one_loss, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad[g], one_grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            shared[g], loss_and_grad(spec, params[0], shard)[0], rtol=1e-12, atol=1e-12
        )


def block_rows(spec):
    """The most rows one block of an evaluation pass holds."""
    return BLOCK_ELEMENTS // max(rows for rows, _ in modeldata._layer_shapes(spec))


# A wide MLP evaluates 512 rows a block, binary logistic regression 8192.
WIDE_MLP = ModelSpec(ModelKind.MLP, input_dim=4, num_classes=4, hidden=16)


@pytest.mark.parametrize("spec", [BINARY, MULTI, WIDE_MLP], ids=["binary", "multi", "mlp"])
def test_blocked_evaluation_equals_one_unblocked_pass(spec):
    block = block_rows(spec)
    assert block == {BINARY: 8192, MULTI: 2048, WIDE_MLP: 512}[spec]
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        rng = np.random.default_rng(n)
        data = Dataset(
            2.0 * rng.standard_normal((n, spec.input_dim)),
            rng.integers(0, spec.num_classes, size=n),
        )
        params = rng.standard_normal(spec.param_length)
        sizes = n // 5 + (np.arange(min(n, 5)) < n % 5) if n >= 5 else np.ones(n, dtype=int)

        whole = modeldata._forward(spec, params, data.features)[2]
        kept = np.empty_like(whole)
        grouped = accuracy(spec, params, data, sizes, out=kept)
        assert kept.tobytes() == whole.tobytes()
        assert forward_logits(spec, params, data.features).tobytes() == whole.tobytes()
        correct = (modeldata._predicted(whole) == data.labels).astype(float)
        expected = np.add.reduceat(correct, np.cumsum(sizes) - sizes) / sizes
        assert grouped.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([BINARY, MULTI, WIDE_MLP]), st.integers(0, 2**32 - 1))
def test_logits_of_a_row_subset_equal_the_full_pass(spec, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3 * block_rows(spec)))
    features = 2.0 * rng.standard_normal((n, spec.input_dim))
    params = rng.standard_normal(spec.param_length)
    # A single row takes numpy's vector path, which rounds differently.
    rows = np.sort(rng.choice(n, size=int(rng.integers(min(n, 2), n + 1)), replace=False))
    full = forward_logits(spec, params, features)
    assert forward_logits(spec, params, features[rows]).tobytes() == full[rows].tobytes()


def test_group_loss_reads_the_label_entry_of_each_row():
    logits = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]])
    labels = np.array([2, 0])
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    expected = -(logp[0, 2] + logp[1, 0]) / 2
    assert group_loss(logits, labels, np.array([2]))[0] == pytest.approx(expected, abs=1e-15)


def test_init_params_deterministic_and_small():
    a = init_params(MLP, seed=2)
    b = init_params(MLP, seed=2)
    np.testing.assert_array_equal(a, b)
    assert a.size == MLP.param_length
    assert np.max(np.abs(a)) < 0.1
    assert not np.array_equal(a, init_params(MLP, seed=3))


def test_model_spec_validation():
    with pytest.raises(DomainError):
        ModelSpec(ModelKind.LOGISTIC, input_dim=0, num_classes=2)
    with pytest.raises(DomainError):
        ModelSpec(ModelKind.LOGISTIC, input_dim=2, num_classes=1)
    with pytest.raises(DomainError):
        ModelSpec(ModelKind.MLP, input_dim=2, num_classes=2, hidden=0)
    assert ModelSpec(ModelKind.MLP, 3, 4, hidden=7).param_length == 7 * 4 + 4 * 8


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def test_epoch_batches_cover_every_index_once():
    rng = np.random.default_rng(31)
    batches = list(epoch_batches(10, 3, rng))
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))
    with pytest.raises(DomainError):
        list(epoch_batches(5, 0, rng))
