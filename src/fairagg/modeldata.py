"""Analytic models, synthetic data, and non-IID partitioning.

Models are deliberately small and smooth so gradients are exact and cheap to
verify by finite differences: a binary/multinomial logistic regression and a
one-hidden-layer MLP with a sigmoid nonlinearity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDimensionError, NumericalFailureError


class ModelKind(enum.Enum):
    LOGISTIC = "LogisticRegression"
    MLP = "MLP"


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    input_dim: int
    num_classes: int
    hidden: int = 16  # used by the MLP only

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 2:
            raise DomainError(f"need 'input_dim' >= 1 and 'num_classes' >= 2, "
                              f"got {self.input_dim} and {self.num_classes}")
        if self.kind is ModelKind.MLP and self.hidden < 1:
            raise DomainError(f"MLP width 'hidden' must be >= 1, got {self.hidden}")

    @property
    def param_length(self) -> int:
        return sum(rows * (cols + 1) for rows, cols in _layer_shapes(self))


class PartitionScheme(enum.Enum):
    DIRICHLET = "Dirichlet"
    PATHOLOGICAL = "Pathological"
    IID = "IID"


@dataclass(frozen=True)
class PartitionSpec:
    scheme: PartitionScheme
    k: int
    seed: int
    alpha: float = 0.5               # Dirichlet concentration
    classes_per_client: int = 2      # Pathological label budget

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"need at least one client, got 'k' = {self.k}")
        if self.scheme is PartitionScheme.DIRICHLET and self.alpha <= 0.0:
            raise DomainError(f"Dirichlet 'alpha' must be positive, got {self.alpha}")
        if self.scheme is PartitionScheme.PATHOLOGICAL and self.classes_per_client < 1:
            raise DomainError(f"'classes_per_client' must be >= 1, got {self.classes_per_client}")


@dataclass
class Dataset:
    features: np.ndarray  # (n, input_dim) float64
    labels: np.ndarray    # (n,) int64

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise InvalidDimensionError("features must be 2-D, labels 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise InvalidDimensionError("feature/label row counts differ")

    def __len__(self) -> int:
        return self.labels.size

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices])


# Cluster geometry frozen after calibration: separation 3.0 with unit noise
# puts a centrally trained logistic model comfortably above 90% train
# accuracy while leaving enough overlap for losses to differ across clients.
CLUSTER_SEPARATION = 3.0
CLUSTER_NOISE = 1.0
CLASS_NOISE_GROWTH = 1.0


def _split_sizes(n: int, parts: int) -> np.ndarray:
    """Part sizes of ``np.array_split`` of n items into ``parts``."""
    return n // parts + (np.arange(parts) < n % parts)


def make_synthetic(n: int, input_dim: int, num_classes: int, seed: int) -> Dataset:
    """Gaussian class-conditional clusters with means on a scaled simplex.

    Class c's mean sits at CLUSTER_SEPARATION times the (c mod dim)-th vertex
    of the unit simplex, pushed outward on each wrap so means stay distinct.
    Cluster spread grows with the class index, so later classes are harder.
    Label counts are balanced within one sample.
    """
    if n < num_classes:
        raise DomainError(f"need at least one sample per class ({num_classes}), got {n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))

    try:
        labels = np.repeat(np.arange(num_classes), _split_sizes(n, num_classes))

        means = np.zeros((num_classes, input_dim))
        for c in range(num_classes):
            vertex = c % input_dim
            means[c, vertex] = CLUSTER_SEPARATION * (1.0 + c // input_dim)

        # Unequal class difficulty gives reweighting schemes a structural worst
        # group to lift; with equal spreads every linear boundary placement
        # serves all clients alike and fairness comparisons reduce to noise.
        spread = CLUSTER_NOISE * (1.0 + CLASS_NOISE_GROWTH * np.arange(num_classes))
        features = means[labels] + spread[labels, None] * rng.standard_normal((n, input_dim))
        order = rng.permutation(n)
        return Dataset(features[order], labels[order].astype(np.int64))
    except (MemoryError, ValueError) as exc:
        raise DomainError(f"cannot allocate {n} samples of {input_dim} features: {exc}") from exc


def partition(dataset: Dataset, spec: PartitionSpec) -> tuple[Dataset, np.ndarray]:
    """Split a dataset into K disjoint, exhaustive, nonempty client shards.

    Returns the rows grouped by ascending client id, each client's rows in
    dataset order, and each client's row count ``(K,)``.  Every scheme
    assigns a client to each row; a client left empty then takes the last
    row of the first largest client, in client order.
    """
    n = len(dataset)
    if spec.k > n:
        raise DomainError(f"cannot split {n} samples across {spec.k} clients")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    labels = dataset.labels
    # The distinct labels in ascending order; numpy 2's np.unique imports numpy.ma.
    ordered = np.sort(labels)
    classes = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    clients = np.arange(spec.k)
    owner = np.empty(n, dtype=np.int64)

    if spec.scheme is PartitionScheme.IID:
        owner[rng.permutation(n)] = np.repeat(clients, _split_sizes(n, spec.k))

    elif spec.scheme is PartitionScheme.DIRICHLET:
        # Per-client class proportions, then each class pool is divided
        # among clients proportionally (largest-remainder rounding) so the
        # split is disjoint and exhaustive without replacement.
        proportions = rng.dirichlet(spec.alpha * np.ones(classes.size), size=spec.k)
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
            owner[pool] = np.repeat(clients, counts)

    elif spec.scheme is PartitionScheme.PATHOLOGICAL:
        m = spec.classes_per_client
        if spec.k * m < classes.size:
            raise DomainError(
                f"{spec.k} clients x {m} classes cannot cover {classes.size} classes"
            )
        # Slot s = k*m + j is client k's j-th label, class s mod C; a class's
        # holders come in ascending client id, a client once per slot.
        slots = np.arange(spec.k * m)
        for col, cls in enumerate(classes):
            holders = slots[slots % classes.size == col] // m
            pool = np.flatnonzero(labels == cls)
            pool = pool[rng.permutation(pool.size)]
            owner[pool] = np.repeat(holders, _split_sizes(pool.size, holders.size))

    else:
        raise DomainError(f"unknown partition scheme {spec.scheme!r}")

    sizes = np.bincount(owner, minlength=spec.k)
    for empty in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        if sizes[donor] <= 1:
            raise DomainError("not enough samples to give every client one")
        owner[np.flatnonzero(owner == donor)[-1]] = empty
        sizes[donor] -= 1
        sizes[empty] = 1
    return dataset.subset(np.argsort(owner, kind="stable")), sizes


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows and lies in [0, 1]; both branches are the usual stable forms.
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # numpy reduces a short last axis with one inner-loop call per row, so up to
    # 8 classes the max goes column by column (exact; NaN passes through as in
    # ``max``); with more, one call per column costs as much or more.  The sum
    # stays a row sum: by columns it would add in another order from 8 on.
    if logits.shape[-1] > 8:
        top = logits.max(axis=-1)
    else:
        top = logits[..., 0]
        for c in range(1, logits.shape[-1]):
            top = np.maximum(top, logits[..., c])
    shifted = logits - top[..., None]
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _layer_shapes(spec: ModelSpec) -> list[tuple[int, int]]:
    """(outputs, inputs) of each affine layer, in parameter order.

    Each layer stores its weights row-major, then its biases.  Binary
    logistic regression is the one-output case: a single logit.
    """
    d, l = spec.input_dim, spec.num_classes
    if spec.kind is ModelKind.LOGISTIC:
        return [(1 if l == 2 else l, d)]
    return [(spec.hidden, d), (l, spec.hidden)]


def _forward(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Weights of each layer, the input to each layer, and the logits.

    ``params`` is one vector for rows ``x`` of shape ``(n, d)``, or ``(S, P)``
    with one vector per group for rows ``x`` of shape ``(S, m, d)``.  Hidden
    layers use the sigmoid.
    """
    lead = params.shape[:-1]
    weights, inputs, start = [], [], 0
    for i, (rows, cols) in enumerate(_layer_shapes(spec)):
        w = params[..., start:start + rows * cols].reshape(*lead, rows, cols)
        start += rows * cols
        b = params[..., None, start:start + rows]
        start += rows
        if i:
            x = _sigmoid(x)
        weights.append(w)
        inputs.append(x)
        x = x @ np.swapaxes(w, -1, -2)
        x += b
    return weights, inputs, x


def _row_losses(logits: np.ndarray, y: np.ndarray, grad: bool = False):
    """Cross-entropy of each row; with ``grad``, also its gradient with
    respect to the logits.  A label outside the model's classes (two for one
    binary logit) is a DomainError."""
    classes = max(2, logits.shape[-1])
    low, high = y.min(), y.max()
    if low < 0 or high >= classes:
        raise DomainError(f"label {low if low < 0 else high} is outside the {classes} classes")
    if logits.shape[-1] == 1:
        prob = _sigmoid(logits[..., 0])
        clipped = np.minimum(np.maximum(prob, 1e-12), 1.0 - 1e-12)
        # One log of the label's probability; for labels in {0, 1} this is
        # bit for bit -(y log p + (1 - y) log(1 - p)).
        losses = -np.log(np.where(y == 1, clipped, 1.0 - clipped))
        return (losses, (prob - y)[..., None]) if grad else losses
    logp = _log_softmax(logits)
    # Row r's label entry sits at r * classes + label in the flat array.
    picked = np.arange(y.size).reshape(y.shape) * classes + y
    losses = -logp.reshape(-1)[picked]
    if not grad:
        return losses
    delta = np.exp(logp)
    delta.reshape(-1)[picked] -= 1.0
    return losses, delta


def check_group_sizes(sizes: np.ndarray, rows: int) -> None:
    """Raise InvalidDimensionError unless ``sizes`` are >= 1 and sum to ``rows``."""
    if sizes.size == 0 or sizes.min() < 1 or sizes.sum() != rows:
        raise InvalidDimensionError(f"group sizes must be >= 1 and sum to the {rows} rows")


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, batch: Dataset, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each group's mean cross-entropy and its exact gradient.

    The batch holds S groups one after another, ``sizes[g]`` rows for group
    g (entries >= 1 that sum to the rows), and ``params`` is ``(S, P)``, one
    model per group.  The call returns each group's mean loss ``(S,)`` and
    gradient ``(S, P)`` from one pass over the whole batch.  Rows never mix
    across groups, so a non-finite group leaves the others untouched.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (sizes.size, spec.param_length):
        raise InvalidDimensionError(
            f"expected {sizes.size} x {spec.param_length} parameters, got shape {params.shape}"
        )
    if not np.all(np.isfinite(params)):
        raise NumericalFailureError("model parameters are non-finite")
    check_group_sizes(sizes, len(batch))

    # Lay the groups out as (S, m) slots, group g's rows first in row g, so
    # every layer is one batched matmul.  When every group is full a reshaped
    # view is that layout; otherwise the rows fill zeroed slots, and padded
    # slots get zero gradient and zero loss.
    full = sizes.min() == sizes.max()
    if full:
        x = batch.features.reshape(sizes.size, -1, batch.features.shape[1])
        y = batch.labels.reshape(sizes.size, -1)
    else:
        filled = np.arange(sizes.max()) < sizes[:, None]
        x = np.zeros(filled.shape + batch.features.shape[1:])
        x[filled] = batch.features
        y = np.zeros(filled.shape, dtype=batch.labels.dtype)
        y[filled] = batch.labels

    weights, inputs, logits = _forward(spec, params, x)
    losses, delta = _row_losses(logits, y, grad=True)
    if not full:
        losses = np.where(filled, losses, 0.0)
        delta = np.where(filled[..., None], delta, 0.0)
    delta /= sizes[:, None, None]
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


@np.errstate(over="ignore", invalid="ignore")
def group_loss(logits: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean cross-entropy within each group of rows, from the rows' logits.

    The rows hold the groups one after another, ``sizes[g]`` rows for group
    g (entries >= 1 that sum to the rows).  No gradient is formed.  A group
    with non-finite logits gets a non-finite loss, without a warning, for the
    caller to check.
    """
    check_group_sizes(sizes, len(labels))
    return np.add.reduceat(_row_losses(logits, labels), np.cumsum(sizes) - sizes) / sizes


# Outputs of the widest layer that one block of a forward pass holds at most:
# every temporary of the pass then stays near 64 KiB of float64, however
# many rows are evaluated.
BLOCK_ELEMENTS = 8192


def _blocks(spec: ModelSpec, n: int) -> list[slice]:
    """Consecutive row slices covering n rows in as few blocks as
    BLOCK_ELEMENTS allows, their sizes differing by at most one.

    Even sizes leave no one-row block behind a long one: numpy's matmul
    takes its vector path for a single row, which rounds differently.
    """
    most = max(1, BLOCK_ELEMENTS // max(rows for rows, _ in _layer_shapes(spec)))
    count = max(1, -(-n // most))
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


@np.errstate(over="ignore", invalid="ignore")
def forward_logits(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Logits of one model on every row, a block at a time, as a new
    ``(n, outputs)`` array.

    In a pass over two rows or more, a row's logits do not depend on the
    rows passed with it.  Overflow gives non-finite logits, without a
    warning, for the caller to check.
    """
    params = np.asarray(params, dtype=float)
    features = np.asarray(features, dtype=float)
    out = np.empty((len(features), _layer_shapes(spec)[-1][0]))
    for rows in _blocks(spec, len(features)):
        out[rows] = _forward(spec, params, features[rows])[2]
    return out


def _predicted(logits: np.ndarray) -> np.ndarray:
    """Each row's predicted class: for one binary logit, class 1 where it is
    positive (so 0 at NaN), else the index of the largest logit."""
    if logits.shape[1] == 1:
        return (logits[:, 0] > 0.0).astype(np.int64)
    return np.argmax(logits, axis=1).astype(np.int64)


def predict(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class predictions for a feature matrix."""
    return _predicted(forward_logits(spec, params, features))


def accuracy(logits: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Fraction of rows predicted correctly within each group of rows, from
    the rows' logits, laid out as for ``group_loss``.

    No forward pass is made.  The correct count per group is an exact float
    and the division is the one ``mean`` makes, so each entry equals the
    mean of the group's correct predictions.
    """
    check_group_sizes(sizes, len(labels))
    correct = (_predicted(logits) == labels).astype(float)
    return np.add.reduceat(correct, np.cumsum(sizes) - sizes) / sizes


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Small random initialization; symmetric zero init would stall the MLP."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return 0.01 * rng.standard_normal(spec.param_length)
