"""Analytic models, synthetic data, and non-IID partitioning.

Models are deliberately small and smooth so gradients are exact and cheap to
verify by finite differences: a binary/multinomial logistic regression and a
one-hidden-layer MLP with a sigmoid nonlinearity.
"""

from __future__ import annotations

import csv
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
            raise DomainError("need input_dim >= 1 and num_classes >= 2")
        if self.kind is ModelKind.MLP and self.hidden < 1:
            raise DomainError("MLP hidden width must be >= 1")

    @property
    def param_length(self) -> int:
        d, l, h = self.input_dim, self.num_classes, self.hidden
        if self.kind is ModelKind.LOGISTIC:
            # Binary uses a single logit (weights + bias); multiclass one
            # logit per class.
            return d + 1 if l == 2 else l * (d + 1)
        return h * (d + 1) + l * (h + 1)


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
            raise DomainError("need at least one client")
        if self.scheme is PartitionScheme.DIRICHLET and self.alpha <= 0.0:
            raise DomainError("Dirichlet concentration must be positive")
        if self.scheme is PartitionScheme.PATHOLOGICAL and self.classes_per_client < 1:
            raise DomainError("classes_per_client must be >= 1")


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

    base, extra = divmod(n, num_classes)
    counts = [base + (1 if c < extra else 0) for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), counts)

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


def _require_min_one(shards: list[np.ndarray]) -> list[np.ndarray]:
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


def partition(dataset: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Split a dataset into K disjoint, exhaustive client shards."""
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
        # Per-client class proportions, then each class pool is divided
        # among clients proportionally (largest-remainder rounding) so the
        # split is disjoint and exhaustive without replacement.
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

    elif spec.scheme is PartitionScheme.PATHOLOGICAL:
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

    else:
        raise DomainError(f"unknown partition scheme {spec.scheme!r}")

    shards = _require_min_one(shards)
    return [dataset.subset(s) for s in shards]


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, batch: Dataset
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient."""
    params = np.asarray(params, dtype=float)
    if params.size != spec.param_length:
        raise InvalidDimensionError(
            f"expected {spec.param_length} parameters, got {params.size}"
        )
    if not np.all(np.isfinite(params)):
        raise NumericalFailureError("model parameters are non-finite")
    if len(batch) == 0:
        raise InvalidDimensionError("batch must be nonempty")

    x, y = batch.features, batch.labels
    n, d = x.shape
    l = spec.num_classes

    if spec.kind is ModelKind.LOGISTIC and l == 2:
        w, b = params[:d], params[d]
        prob = _sigmoid(x @ w + b)
        eps_clipped = np.clip(prob, 1e-12, 1.0 - 1e-12)
        loss = -float(np.mean(y * np.log(eps_clipped) + (1 - y) * np.log(1.0 - eps_clipped)))
        residual = (prob - y) / n
        grad = np.concatenate([x.T @ residual, [residual.sum()]])
        return loss, grad

    if spec.kind is ModelKind.LOGISTIC:
        w = params[: l * d].reshape(l, d)
        b = params[l * d:]
        logp = _log_softmax(x @ w.T + b)
        loss = -float(logp[np.arange(n), y].mean())
        resid = np.exp(logp)
        resid[np.arange(n), y] -= 1.0
        resid /= n
        grad = np.concatenate([(resid.T @ x).ravel(), resid.sum(axis=0)])
        return loss, grad

    # One-hidden-layer MLP with sigmoid activation and softmax output.
    h = spec.hidden
    w1 = params[: h * d].reshape(h, d)
    b1 = params[h * d: h * (d + 1)]
    w2 = params[h * (d + 1): h * (d + 1) + l * h].reshape(l, h)
    b2 = params[h * (d + 1) + l * h:]

    act = _sigmoid(x @ w1.T + b1)
    logp = _log_softmax(act @ w2.T + b2)
    loss = -float(logp[np.arange(n), y].mean())

    resid = np.exp(logp)
    resid[np.arange(n), y] -= 1.0
    resid /= n
    grad_w2 = resid.T @ act
    grad_b2 = resid.sum(axis=0)
    back = (resid @ w2) * act * (1.0 - act)
    grad_w1 = back.T @ x
    grad_b1 = back.sum(axis=0)
    grad = np.concatenate([grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2])
    return loss, grad


def predict(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class predictions for a feature matrix."""
    params = np.asarray(params, dtype=float)
    x = np.asarray(features, dtype=float)
    d, l = spec.input_dim, spec.num_classes
    if spec.kind is ModelKind.LOGISTIC and l == 2:
        return (_sigmoid(x @ params[:d] + params[d]) > 0.5).astype(np.int64)
    if spec.kind is ModelKind.LOGISTIC:
        w = params[: l * d].reshape(l, d)
        b = params[l * d:]
        return np.argmax(x @ w.T + b, axis=1).astype(np.int64)
    h = spec.hidden
    w1 = params[: h * d].reshape(h, d)
    b1 = params[h * d: h * (d + 1)]
    w2 = params[h * (d + 1): h * (d + 1) + l * h].reshape(l, h)
    b2 = params[h * (d + 1) + l * h:]
    act = _sigmoid(x @ w1.T + b1)
    return np.argmax(act @ w2.T + b2, axis=1).astype(np.int64)


def accuracy(
    spec: ModelSpec, params: np.ndarray, data: Dataset, owner: np.ndarray | None = None
) -> float | np.ndarray:
    """Fraction of rows predicted correctly.

    With ``owner`` (one group index per row) it returns the fraction within
    each group 0..max(owner) instead, from a single prediction pass.  The
    correct count per group is an exact float and the division is the one
    ``mean`` makes, so each entry equals the scalar form on that group alone.
    """
    correct = predict(spec, params, data.features) == data.labels
    if owner is None:
        return float(correct.mean())
    return np.bincount(owner, weights=correct) / np.bincount(owner)


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Small random initialization; symmetric zero init would stall the MLP."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return 0.01 * rng.standard_normal(spec.param_length)


def load_csv_dataset(path: str) -> Dataset:
    """Load a dataset from CSV: header row, numeric features, label last.

    Non-numeric cells are rejected with the offending row number (1-based,
    counting the header as row 1).
    """
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError(f"{path}: empty file, expected a header row")
        width = len(header)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DomainError(f"{path}: row {line_no} has {len(row)} cells, expected {width}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise DomainError(f"{path}: row {line_no} has a non-numeric cell") from exc
    if not rows:
        raise DomainError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    labels = arr[:, -1]
    if not np.all(labels == np.round(labels)):
        raise DomainError(f"{path}: labels in the last column must be integers")
    return Dataset(arr[:, :-1], labels.astype(np.int64))


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays covering a shuffled epoch in batches."""
    if batch_size < 1:
        raise DomainError("batch size must be >= 1")
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def central_train_accuracy(
    spec: ModelSpec, data: Dataset, lr: float = 0.5, steps: int = 400
) -> float:
    """Full-batch gradient descent to (near) convergence; train accuracy."""
    params = np.zeros(spec.param_length)
    if spec.kind is ModelKind.MLP:
        params = init_params(spec, seed=0)
    for _ in range(steps):
        _, grad = loss_and_grad(spec, params, data)
        params = params - lr * grad
    return accuracy(spec, params, data)
