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


def one_group(data):
    """The sizes of one group holding every row of ``data``."""
    return np.array([len(data)])


def central_train_accuracy(spec, data, lr=0.5, steps=400):
    """Full-batch gradient descent to (near) convergence; train accuracy."""
    params = np.zeros(spec.param_length)
    if spec.kind is ModelKind.MLP:
        params = init_params(spec, seed=0)
    for _ in range(steps):
        _, (grad,) = loss_and_grad(spec, params[None], data, one_group(data))
        params = params - lr * grad
    [train] = accuracy(forward_logits(spec, params, data.features), data.labels, one_group(data))
    return train


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


def test_synthetic_too_large_to_allocate_is_a_domain_error():
    # numpy refuses 2**62 int64 labels as too big before allocating anything.
    with pytest.raises(DomainError, match=f"cannot allocate {2**62} samples"):
        make_synthetic(2**62, 2, 2, seed=0)


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
    (loss,), _ = loss_and_grad(BINARY, np.zeros((1, BINARY.param_length)), data, one_group(data))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    data4 = make_synthetic(50, 3, 4, seed=6)
    (loss4,), _ = loss_and_grad(MULTI, np.zeros((1, MULTI.param_length)), data4, one_group(data4))
    assert loss4 == pytest.approx(math.log(4.0), abs=1e-12)

    data3 = make_synthetic(50, 2, 3, seed=6)
    (loss3,), _ = loss_and_grad(MLP, np.zeros((1, MLP.param_length)), data3, one_group(data3))
    assert loss3 == pytest.approx(math.log(3.0), abs=1e-12)


# The grouped cases give each of three groups its own parameters; a group's
# loss depends on its own parameters only, so the summed loss has the same
# gradient.  Explicit ids keep the names of the one-group cases.
@pytest.mark.parametrize(
    "spec,classes,sizes",
    [
        (BINARY, 2, (40,)),
        (MULTI, 4, (40,)),
        (MLP, 3, (40,)),
        (BINARY, 2, (1, 14, 25)),
        (MULTI, 4, (1, 14, 25)),
        (MLP, 3, (1, 14, 25)),
    ],
    ids=["spec0-2", "spec1-4", "spec2-3", "grouped-binary", "grouped-multi", "grouped-mlp"],
)
def test_gradient_matches_finite_differences(spec, classes, sizes):
    data = make_synthetic(40, spec.input_dim, classes, seed=14)
    rng = np.random.default_rng(14)
    sizes = np.array(sizes)
    shape = (len(sizes), spec.param_length)
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


# The formulas the kernels replaced, kept as references that the kernels
# must match bit for bit: a masked sigmoid numerator, a row max, a clip, a
# one-hot subtraction and a zero-padded layout for every batch.
def reference_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def reference_row_losses(logits, y):
    """Each row's cross-entropy and its gradient with respect to the logits."""
    if logits.shape[-1] == 1:
        prob = reference_sigmoid(logits[..., 0])
        clipped = np.clip(prob, 1e-12, 1.0 - 1e-12)
        return -np.log(np.where(y == 1, clipped, 1.0 - clipped)), (prob - y)[..., None]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    losses = -np.take_along_axis(logp, y[..., None], axis=-1)[..., 0]
    return losses, np.exp(logp) - (y[..., None] == np.arange(logits.shape[-1]))


def reference_loss_and_grad(spec, params, batch, sizes):
    """loss_and_grad with every group zero-padded to the largest."""
    filled = np.arange(sizes.max()) < sizes[:, None]
    x = np.zeros(filled.shape + batch.features.shape[1:])
    x[filled] = batch.features
    y = np.zeros(filled.shape, dtype=batch.labels.dtype)
    y[filled] = batch.labels
    weights, inputs, start = [], [], 0
    for i, (rows, cols) in enumerate(modeldata._layer_shapes(spec)):
        w = params[:, start:start + rows * cols].reshape(-1, rows, cols)
        b = params[:, None, start + rows * cols:start + rows * (cols + 1)]
        start += rows * (cols + 1)
        if i:
            x = reference_sigmoid(x)
        weights.append(w)
        inputs.append(x)
        x = x @ np.swapaxes(w, -1, -2) + b
    losses, delta = reference_row_losses(x, y)
    losses = np.where(filled, losses, 0.0)
    delta = np.where(filled[..., None], delta, 0.0) / sizes[:, None, None]
    grads = []
    for i in reversed(range(len(weights))):
        a = inputs[i]
        grads[:0] = [
            (np.swapaxes(delta, -1, -2) @ a).reshape(sizes.size, -1),
            delta.sum(axis=-2),
        ]
        if i:
            delta = (delta @ weights[i]) * a * (1.0 - a)
    return losses.sum(axis=-1) / sizes, np.concatenate(grads, axis=-1)


SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 745.5, -745.5, 800.0, -800.0, 1e308])


# One logit is the binary case; up to 8 classes the class max is taken column
# by column and above that along each row, and from 8 classes on a row sum adds
# in another order than a column sum would.
@pytest.mark.parametrize("classes", [1] + list(range(2, 21)))
def test_row_losses_equal_the_reference_formulas_bit_for_bit(classes):
    rng = np.random.default_rng(classes)
    logits = 30.0 * rng.standard_normal((6, 40, classes))
    logits[:3] = rng.choice(SPECIAL, size=(3, 40, classes))  # all-special rows
    logits[3, :, 0] = rng.choice(SPECIAL, size=40)            # one special entry a row
    labels = rng.integers(0, max(2, classes), size=(6, 40))
    with np.errstate(over="ignore", invalid="ignore"):
        losses, delta = modeldata._row_losses(logits, labels, grad=True)
        alone = modeldata._row_losses(logits, labels)
        expected_losses, expected_delta = reference_row_losses(logits, labels)
        z = np.concatenate([SPECIAL, -SPECIAL, logits.ravel()])
        assert modeldata._sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()
    assert losses.tobytes() == alone.tobytes() == expected_losses.tobytes()
    assert delta.tobytes() == expected_delta.tobytes()


def test_loss_rejects_bad_params_and_batches():
    data = make_synthetic(10, 2, 2, seed=0)
    with pytest.raises(InvalidDimensionError):
        loss_and_grad(BINARY, np.zeros((1, 5)), data, one_group(data))
    with pytest.raises(NumericalFailureError):
        loss_and_grad(BINARY, np.array([[np.inf, 0.0, 0.0]]), data, one_group(data))
    with pytest.raises(InvalidDimensionError):  # params must be (S, P)
        loss_and_grad(BINARY, np.zeros(3), data, np.array([10]))
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(InvalidDimensionError):
        loss_and_grad(BINARY, np.zeros((0, 3)), empty, np.zeros(0, dtype=np.int64))


# Row r's label entry sits at r * classes + label, so an unchecked label of
# `classes` would read the next row's class 0, and -1 the previous row's last
# class; a binary label of 2 would be scored as class 0.
def test_loss_and_grad_reject_labels_outside_the_classes():
    data = make_synthetic(3, 2, 3, seed=0)
    for labels, named in (([0, 3, 2], 3), ([0, 1, 3], 3), ([-1, 1, 2], -1)):
        bad = Dataset(data.features, np.array(labels))
        with pytest.raises(DomainError, match=f"label {named} "):
            loss_and_grad(MLP, np.zeros((1, MLP.param_length)), bad, one_group(bad))
    binary = Dataset(data.features, np.array([0, 2, 1]))
    with pytest.raises(DomainError, match="label 2"):
        loss_and_grad(BINARY, np.zeros((3, 3)), binary, np.array([1, 1, 1]))


def test_group_loss_rejects_labels_outside_the_classes():
    logits = np.zeros((3, 3))
    with pytest.raises(DomainError, match="label -1"):
        group_loss(logits, np.array([0, -1, 2]), np.array([3]))
    with pytest.raises(DomainError, match="label 3"):
        group_loss(logits, np.array([0, 1, 3]), np.array([2, 1]))
    with pytest.raises(DomainError, match="label 2"):
        group_loss(np.zeros((2, 1)), np.array([1, 2]), np.array([2]))


# Sizes that miss rows or count them twice would score the wrong rows, and a
# zero size divides by zero.
def uncovering_sizes(rows):
    for sizes in ([rows - 1], [rows + 1], [0, rows], [rows, 0], [-1, rows + 1], []):
        yield np.array(sizes, dtype=np.int64)


def test_group_loss_rejects_sizes_that_do_not_cover_the_rows():
    for sizes in uncovering_sizes(3):
        with pytest.raises(InvalidDimensionError, match="group sizes"):
            group_loss(np.ones((3, 3)), np.array([1, 1, 1]), sizes)


def test_accuracy_rejects_sizes_that_do_not_cover_the_rows():
    for sizes in uncovering_sizes(3):
        with pytest.raises(InvalidDimensionError, match="group sizes"):
            accuracy(np.ones((3, 1)), np.array([1, 1, 1]), sizes)


def test_loss_and_grad_rejects_sizes_that_do_not_cover_the_rows():
    data = make_synthetic(10, 2, 2, seed=0)
    for sizes in uncovering_sizes(10):
        with pytest.raises(InvalidDimensionError, match="group sizes"):
            loss_and_grad(BINARY, np.zeros((sizes.size, 3)), data, sizes)


def test_predictions_follow_the_decision_boundary():
    # Weights (1, 0), bias 0: the sign of the first feature decides.
    features = np.array([[2.0, 5.0], [-2.0, 5.0]])
    out = predict(BINARY, np.array([1.0, 0.0, 0.0]), features)
    np.testing.assert_array_equal(out, [1, 0])
    data = Dataset(features, np.array([1, 1], dtype=np.int64))
    logits = forward_logits(BINARY, np.array([1.0, 0.0, 0.0]), features)
    assert accuracy(logits, data.labels, one_group(data)).tolist() == [0.5]


# The sigmoid of a logit in (0, 1.56e-16] rounds to exactly 0.5, so a rule
# that compares the probability with 0.5 would predict class 0 there.
@pytest.mark.parametrize(
    "logit, expected",
    [(1e-300, 1), (5e-324, 1), (1e-17, 1), (1.1e-16, 1),
     (0.0, 0), (-0.0, 0), (np.nan, 0), (-np.inf, 0), (np.inf, 1)],
)
def test_binary_prediction_is_the_sign_of_the_logit(logit, expected):
    assert modeldata._predicted(np.array([[logit]])).tolist() == [expected]
    # Zero features and zero weights leave the bias as every row's logit.
    data = Dataset(np.zeros((3, 2)), np.full(3, expected, dtype=np.int64))
    params = np.array([0.0, 0.0, logit])
    np.testing.assert_array_equal(predict(BINARY, params, data.features), data.labels)
    logits = forward_logits(BINARY, params, data.features)
    assert accuracy(logits, data.labels, one_group(data)).tolist() == [1.0]
    np.testing.assert_array_equal(accuracy(logits, data.labels, np.array([1, 2])), [1.0, 1.0])


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.floats(-1e3, 1e3),
                st.floats(allow_nan=False),
                st.sampled_from([27.6, 27.7, -27.6, -27.7]),
            ),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_binary_loss_takes_one_log_of_the_label_probability(rows):
    # Beyond |logit| of about 27.6 the probability clip binds.
    logits = np.array([[z] for z, _ in rows])
    labels = np.array([y for _, y in rows], dtype=np.int64)
    p = np.clip(modeldata._sigmoid(logits[:, 0]), 1e-12, 1.0 - 1e-12)
    expected = -(labels * np.log(p) + (1 - labels) * np.log(1.0 - p))
    assert modeldata._row_losses(logits, labels).tobytes() == expected.tobytes()
    losses, _ = modeldata._row_losses(logits, labels, grad=True)
    assert losses.tobytes() == expected.tobytes()


# Shard sizes mix single rows, small shards and large ones, so splits are
# often very unequal.
shard_sizes = st.lists(
    st.one_of(st.just(1), st.integers(1, 6), st.integers(60, 400)), min_size=1, max_size=12
)


@settings(deadline=None)
@example([1, 3, 1, 1], MULTI, 0)
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

    logits = forward_logits(spec, params, pooled.features)
    grouped = accuracy(logits, pooled.labels, np.array(sizes))
    assert grouped.shape == (len(sizes),)
    # The per-group mean of the given logits' correct predictions ...
    correct = modeldata._predicted(logits) == pooled.labels
    assert grouped.tolist() == [
        float(correct[end - size:end].mean()) for end, size in zip(ends, sizes)
    ]
    # ... and of each shard's logits from a pass over its rows alone.
    assert grouped.tolist() == [
        accuracy(forward_logits(spec, params, shard.features), shard.labels, one_group(shard))[0]
        for shard in shards
    ]


# Equal sizes take the unpadded layout; a nine-class MLP takes its class max
# along each row and sums its class columns in another order than a column sum
# would.
MLP9 = ModelSpec(ModelKind.MLP, input_dim=3, num_classes=9, hidden=4)
equal_sizes = st.tuples(st.integers(1, 8), st.integers(1, 60)).map(lambda t: [t[1]] * t[0])


@settings(deadline=None)
@example([20, 20, 20], MLP9, 0)
@example([20, 20, 7], MLP9, 0)
@given(
    st.one_of(shard_sizes, equal_sizes),
    st.sampled_from([BINARY, MULTI, MLP, MLP9]),
    st.integers(0, 2**32 - 1),
)
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
    expected_loss, expected_grad = reference_loss_and_grad(spec, params, pooled, np.array(sizes))
    assert loss.tobytes() == expected_loss.tobytes()
    assert grad.tobytes() == expected_grad.tobytes()
    shared = group_loss(
        forward_logits(spec, params[0], pooled.features), pooled.labels, np.array(sizes)
    )
    assert loss.shape == shared.shape == (len(sizes),)
    assert grad.shape == params.shape
    for g, shard in enumerate(shards):
        (one_loss,), (one_grad,) = loss_and_grad(spec, params[g:g + 1], shard, one_group(shard))
        np.testing.assert_allclose(loss[g], one_loss, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad[g], one_grad, rtol=1e-12, atol=1e-12)
        (shared_loss,), _ = loss_and_grad(spec, params[:1], shard, one_group(shard))
        np.testing.assert_allclose(shared[g], shared_loss, rtol=1e-12, atol=1e-12)


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
        logits = forward_logits(spec, params, data.features)
        assert logits.tobytes() == whole.tobytes()
        grouped = accuracy(logits, data.labels, sizes)
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


def test_init_params_that_cannot_be_allocated_raise_domain_error():
    # 2**50 hidden units need 5 * 2**50 + 2 parameters, which numpy refuses to allocate.
    with pytest.raises(DomainError, match=f"cannot allocate {5 * 2**50 + 2} model"):
        init_params(ModelSpec(ModelKind.MLP, 2, 2, hidden=2**50), 0)


def test_model_spec_validation():
    with pytest.raises(DomainError):
        ModelSpec(ModelKind.LOGISTIC, input_dim=0, num_classes=2)
    with pytest.raises(DomainError):
        ModelSpec(ModelKind.LOGISTIC, input_dim=2, num_classes=1)
    with pytest.raises(DomainError):
        ModelSpec(ModelKind.MLP, input_dim=2, num_classes=2, hidden=0)
    assert ModelSpec(ModelKind.MLP, 3, 4, hidden=7).param_length == 7 * 4 + 4 * 8
