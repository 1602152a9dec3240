"""Deterministic federated orchestration.

One round: sample clients, read their feedback losses on the broadcast model,
train locally, turn feedbacks into bounded responses, step the aggregator,
renormalize the decision over the sampled set, mix the deltas, apply the
server optimizer, and evaluate every client.  The master seed fans out to
per-round and per-client substreams through seed sequences, so results never
depend on client execution order; deltas are always reduced in ascending
client id.

The model passes over the pool once per round.  The evaluation that ends
round t is one ``forward_logits`` call over every pool row, whose logits
``run_round`` keeps on the state: that round's accuracy scores them, and
since they belong to the parameters round t+1 broadcasts, that round's
feedback is the loss over the sampled rows' kept logits, with no forward
pass of its own.

The sampled clients train together: each local SGD step is one stacked
gradient pass over every still-training client's minibatch.  ``run_round``
hands ``client_update`` every sampled client's substream entropy.  A client
with more rows than the batch size seeds a generator from it and shuffles its
rows every epoch.  A client whose rows fit one minibatch takes one full-batch
step per epoch, which no order of its rows changes, so it walks them in pool
order and builds no generator.
``client_update`` trains every sampled client and returns deltas ``(S, P)``
and a diverged mask ``(S,)``.  Only mixing drops a client, with a warning,
for non-finite feedback or a diverged delta; the round fails when no client
is left to mix.  The response estimate observes every sampled client, a
dropped one at the worst response ``c2``.

Client data is one pooled dataset, each client's rows together in ascending
client id, plus each client's row count; a round gathers the sampled clients'
rows from it.  Row counts are the only grouping the model layer is given:
every loss, gradient and accuracy call takes its rows one group after
another with the groups' sizes.

An adaptive method takes one ``step`` per round of the optimizer that
``aggregator.optimizer_init`` gave it; a closed-form baseline has none and
computes its coefficients over the round's mixed clients.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from .aggregator import (
    AggregatorMethod,
    FtrlState,
    MethodKind,
    OnsState,
    baseline_coefficients,
    normalize_selected,
    optimizer_init,
)
from .decision import decision_grad, decision_loss, dr_response, linearized_grad
from .errors import DivergenceError, DomainError, InvalidDimensionError
from .metrics import PerformanceSummary, performance_summary
from .modeldata import (
    Dataset,
    ModelSpec,
    accuracy,
    check_group_sizes,
    forward_logits,
    group_loss,
    loss_and_grad,
)
from .response import CdfKind, ResponseBounds, transform_losses
from .simplex import uniform_decision

logger = logging.getLogger(__name__)

# Substream tags for the master-seed fan-out; every consumer derives its
# generator as default_rng([seed, TAG, ...]) so streams never collide.
_STREAM_SAMPLING = 3
_STREAM_CLIENT = 4


class ServerOptKind(enum.Enum):
    SGD = "SGD"
    ADAM = "Adam"
    YOGI = "Yogi"
    ADAGRAD = "Adagrad"


@dataclass
class ServerOptimizer:
    """Server-side optimizer treating the mixed delta as a pseudo-gradient.

    Adaptive kinds keep first/second moments (no bias correction) with a
    denominator floor ``tau``.
    """

    kind: ServerOptKind = ServerOptKind.SGD
    lr: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None

    def __post_init__(self):
        for name, value in (("lr", self.lr), ("tau", self.tau)):
            if value <= 0.0:
                raise DomainError(f"'{name}' must be positive, got {value}")
        for name, value in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= value < 1.0:
                raise DomainError(f"'{name}' must lie in [0, 1), got {value}")


def sample_size(k: int, c: float) -> int:
    """Clients sampled per round: max(1, floor(c*k)) of k, with c*k rounded to 9
    decimals first so that 0.29 * 100 = 28.999999999999996 samples 29."""
    if k < 1:
        raise InvalidDimensionError("need at least one client")
    if not (0.0 < c <= 1.0):
        raise DomainError(f"sampling fraction must be in (0,1], got {c}")
    return max(1, int(np.floor(round(c * k, 9))))


def sample_clients(k: int, c: float, rng: np.random.Generator) -> list[int]:
    """Uniform sample (without replacement) of sample_size(k, c) client ids."""
    chosen = rng.choice(k, size=sample_size(k, c), replace=False)
    return sorted(int(i) for i in chosen)


@np.errstate(over="ignore", invalid="ignore")
def client_update(
    params: np.ndarray,
    data: Dataset,
    sizes: np.ndarray,
    model_spec: ModelSpec,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    prox_mu: float,
    weight_decay: float,
    entropy: np.ndarray | list[list[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Run local SGD from the received model for every client at once.

    ``data`` holds the clients' rows one client after another, ``sizes[i]``
    of them for client i, and ``entropy[i]`` is the ``SeedSequence`` entropy
    of client i's stream.  A client with more than ``batch_size`` rows seeds
    a generator from it and walks one fresh permutation of its rows every
    epoch, ``batch_size`` rows per minibatch.  A client whose rows fit one
    minibatch, and every client at zero epochs, walks its rows in pool order
    and builds no generator.  ``batch_size`` must be at least 1.  SGD step s
    moves every client that still has an s-th minibatch, with one
    ``loss_and_grad`` call over those minibatches stacked together.  With
    prox_mu > 0 every step pulls back toward the received parameters.

    Returns ``(deltas, diverged)`` in the order of ``sizes``: the received
    parameters minus each client's final local ones ``(S, P)``, and a
    boolean mask ``(S,)``.  A client whose loss, gradient or parameters
    become non-finite stops training and is marked in ``diverged``; nothing
    is raised or warned, and its row of ``deltas`` must not be used.
    """
    check_group_sizes(sizes, len(data))
    if len(entropy) != sizes.size:
        raise InvalidDimensionError(f"got {len(entropy)} entropy rows for {sizes.size} clients")
    if batch_size < 1:
        raise DomainError("batch size must be >= 1")
    received = np.asarray(params, dtype=float)
    # Row indices into ``data`` of every client's minibatches, in step order.
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

    for step in range(steps.max()):
        movers = np.flatnonzero((steps > step) & ~diverged)
        if movers.size == 0:
            break
        batches = [schedules[j][step] for j in movers]
        counts = np.array([len(b) for b in batches])
        current = local[movers]
        loss, grad = loss_and_grad(
            model_spec, current, data.subset(np.concatenate(batches)), counts
        )
        if prox_mu > 0.0:
            grad = grad + prox_mu * (current - received)
        if weight_decay > 0.0:
            grad = grad + weight_decay * current
        stepped = current - lr * grad
        # Overflowed parameters can come with a still-finite loss, so the new iterate
        # is checked; as ``current`` is finite, it is non-finite wherever ``grad`` is.
        ok = np.isfinite(loss) & np.isfinite(stepped).all(axis=1)
        local[movers[ok]] = stepped[ok]
        diverged[movers[~ok]] = True

    return received - local, diverged


def server_apply(
    params: np.ndarray, mixed_delta: np.ndarray, opt: ServerOptimizer
) -> np.ndarray:
    """Apply the mixed delta through the server optimizer; updates moments."""
    params = np.asarray(params, dtype=float)
    mixed_delta = np.asarray(mixed_delta, dtype=float)
    if params.shape != mixed_delta.shape:
        raise InvalidDimensionError("delta length does not match model")

    if opt.kind is ServerOptKind.SGD:
        return params - opt.lr * mixed_delta

    if opt.first_moment is None:
        opt.first_moment = np.zeros_like(params)
        opt.second_moment = np.zeros_like(params)
    g = mixed_delta
    opt.first_moment = opt.beta1 * opt.first_moment + (1.0 - opt.beta1) * g
    sq = g * g
    if opt.kind is ServerOptKind.ADAM:
        opt.second_moment = opt.beta2 * opt.second_moment + (1.0 - opt.beta2) * sq
    elif opt.kind is ServerOptKind.YOGI:
        opt.second_moment = opt.second_moment - (1.0 - opt.beta2) * np.sign(
            opt.second_moment - sq
        ) * sq
    elif opt.kind is ServerOptKind.ADAGRAD:
        opt.second_moment = opt.second_moment + sq
    else:
        raise DomainError(f"unknown server optimizer kind {opt.kind!r}")
    return params - opt.lr * opt.first_moment / (np.sqrt(opt.second_moment) + opt.tau)


@dataclass
class RoundReport:
    """What one round observed, decided and scored.

    ``sampled`` holds the sampled ids ``(S,)`` ascending, and ``mixed`` marks
    those whose deltas were mixed.  ``mean_feedback`` is the mixed clients'
    mean feedback, the scale ``transform_losses`` divided their losses by
    (0.0 when all are zero).  ``response`` is the completed ``(K,)`` response,
    estimated at ``propensity``, that ``decision_loss`` and the gradient used.
    """

    round: int
    sampled: np.ndarray
    mixed: np.ndarray
    mean_feedback: float
    propensity: float
    response: np.ndarray
    decision_loss: float
    decision: np.ndarray
    summary: PerformanceSummary

    @property
    def sampled_ids(self) -> list[int]:
        """The mixed clients' ids, ascending."""
        return self.sampled[self.mixed].tolist()


@dataclass
class SimulationState:
    """Everything one seed's run needs, advanced in place by run_round."""

    master_seed: int
    model_spec: ModelSpec
    # Every client's rows in ascending client id, and each client's row count.
    pool: Dataset
    sizes: np.ndarray
    params: np.ndarray
    method: AggregatorMethod
    cdf: CdfKind
    bounds: ResponseBounds
    sampling_c: float
    epochs: int
    batch_size: int
    lr: float
    lr_decay: float
    decay_step: int
    prox_mu: float
    weight_decay: float
    server_opt: ServerOptimizer
    decision: np.ndarray = field(init=False)
    # The adaptive method's optimizer; None for a closed-form baseline.
    optimizer: OnsState | FtrlState | None = field(init=False)
    # Each client's first row in the pool.
    starts: np.ndarray = field(init=False)
    # Each client's chance of being sampled in a round.
    propensity: float = field(init=False)
    # Every pool row's logits, and a copy of the parameters they were
    # computed for; the evaluation that ends a round keeps them for that
    # round's accuracy and the next round's feedback.
    logits: np.ndarray | None = field(init=False, default=None)
    logits_params: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        check_group_sizes(self.sizes, len(self.pool))
        classes = self.model_spec.num_classes
        if self.pool.labels.min() < 0 or self.pool.labels.max() >= classes:
            raise DomainError(f"pool labels must lie in [0, {classes})")
        k = self.sizes.size
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.decision = uniform_decision(k)
        self.propensity = sample_size(k, self.sampling_c) / k
        self.optimizer = optimizer_init(self.method.kind, k, self.bounds, self.propensity)

    @property
    def k(self) -> int:
        return self.sizes.size


def _effective_lr(state: SimulationState, t: int) -> float:
    return state.lr * state.lr_decay ** (t // state.decay_step)


def _client_entropy(seed: int, t: int, clients: np.ndarray) -> np.ndarray:
    """One ``SeedSequence`` entropy row per client, ``(S, W + 3)`` uint32.

    Each row holds the words ``SeedSequence([seed, _STREAM_CLIENT, t,
    client])`` reads from that list: the seed's W 32-bit words, low word
    first (seed 0 gives one zero word), then the tag, the round and the
    client id, one word each.  Both forms give the same streams.
    """
    seed = int(seed)
    words = np.frombuffer(
        seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"), dtype="<u4"
    )
    entropy = np.empty((clients.size, words.size + 3), dtype=np.uint32)
    entropy[:, :words.size] = words
    entropy[:, -3] = _STREAM_CLIENT
    entropy[:, -2] = t
    entropy[:, -1] = clients
    return entropy


def run_round(state: SimulationState, t: int) -> RoundReport:
    """Advance the simulation by one round and report all intermediates.

    Feedback is each sampled client's mean cross-entropy on the received
    model, measured strictly before any training step, as one grouped loss
    over the logits the last round's evaluation kept for these parameters.
    If ``state.params`` differs in value from the parameters those logits
    were computed for (in round 0, or after a caller replaced or wrote into
    them), the pool is evaluated first.  If no feedback is finite, the round
    raises DivergenceError before any training.  A client left out of mixing
    is observed at ``c2``; only the mixed clients' feedback is transformed.

    Every sampled client trains, on the stream ``SeedSequence([seed, 4, t,
    client])``, which ``client_update`` seeds only for a client that shuffles.
    AAggFFD takes the doubly-robust path exactly when ``state.propensity <
    1``, the rule ``optimizer_init`` sizes FTRL by.  The report records who
    was sampled and mixed, the scale, the propensity and the completed response.
    """
    k = state.k
    sampling_rng = np.random.default_rng(
        np.random.SeedSequence([state.master_seed, _STREAM_SAMPLING, t])
    )
    sampled = np.array(sample_clients(k, state.sampling_c, sampling_rng))
    # Ascending client ids, which fixes the reduction order of the deltas.
    # The sampled clients' pool rows, one client after another.
    sizes = state.sizes[sampled]
    ends = np.cumsum(sizes)
    rows = np.repeat(state.starts[sampled] - (ends - sizes), sizes) + np.arange(ends[-1])

    if not np.array_equal(state.logits_params, state.params):
        state.logits = forward_logits(state.model_spec, state.params, state.pool.features)
        state.logits_params = state.params.copy()
    feedback = group_loss(state.logits[rows], state.pool.labels[rows], sizes)
    finite = np.isfinite(feedback)
    if not finite.any():
        raise DivergenceError(f"every sampled client diverged in round {t}", round_index=t)
    deltas, failed = client_update(
        state.params,
        state.pool.subset(rows),
        sizes,
        state.model_spec,
        epochs=state.epochs,
        batch_size=state.batch_size,
        lr=_effective_lr(state, t),
        prox_mu=state.prox_mu,
        weight_decay=state.weight_decay,
        entropy=_client_entropy(state.master_seed, t, sampled),
    )
    mixed = finite & ~failed
    for client_id in sampled[~mixed]:
        logger.warning("dropping diverged client %d in round %d", client_id, t)
    survivors = sampled[mixed]
    if survivors.size == 0:
        raise DivergenceError(f"every sampled client diverged in round {t}", round_index=t)

    # The observed set is the sampled one, at a known propensity; the mixed
    # clients' feedback alone sets the scale, and the rest take the worst.
    responses = np.full(sampled.size, state.bounds.c2)
    responses[mixed] = transform_losses(feedback[mixed], state.cdf, state.bounds)

    observed = np.zeros(k, dtype=bool)
    observed[sampled] = True
    scattered = np.zeros(k)
    scattered[sampled] = responses

    prev_decision = state.decision

    # AAggFFD corrects a partial round by its propensity; every other round
    # is completed at propensity 1, which imputes the observed mean.
    propensity = state.propensity if state.method.kind is MethodKind.AAGGFF_D else 1.0
    r_for_loss = dr_response(scattered, observed, propensity)
    round_loss = decision_loss(prev_decision, r_for_loss)

    if state.optimizer is None:
        new_decision = np.zeros(k)
        new_decision[survivors] = baseline_coefficients(
            state.method, state.sizes[survivors], feedback[mixed]
        )
    else:
        if propensity < 1.0:
            gradient = linearized_grad(r_for_loss, prev_decision, float(responses.mean()))
        else:
            gradient = decision_grad(prev_decision, r_for_loss)
        state.optimizer, new_decision = state.optimizer.step(gradient)

    weights = normalize_selected(new_decision, survivors)
    # sum(axis=0) adds the rows one after another in client order, a fixed
    # reduction order; a matrix product may block and reorder the sums.
    mixed_delta = (weights[:, None] * deltas[mixed]).sum(axis=0)

    state.params = server_apply(state.params, mixed_delta, state.server_opt)
    state.decision = new_decision

    # This round's accuracy and the next round's feedback read these logits,
    # computed for the parameters the next round receives.
    state.logits = forward_logits(state.model_spec, state.params, state.pool.features)
    state.logits_params = state.params.copy()
    client_accuracy = accuracy(state.logits, state.pool.labels, state.sizes)
    return RoundReport(
        round=t,
        sampled=sampled,
        mixed=mixed,
        mean_feedback=float(feedback[mixed].mean()),
        propensity=propensity,
        response=r_for_loss,
        decision_loss=round_loss,
        decision=new_decision,
        summary=performance_summary(client_accuracy),
    )
