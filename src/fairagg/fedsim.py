"""Deterministic federated orchestration.

One round: sample clients, read their feedback losses on the broadcast model,
train locally, turn feedbacks into bounded responses, step the aggregator,
renormalize the decision over the sampled set, mix the deltas, apply the
server optimizer, and evaluate every client.  The master seed fans out to
per-round and per-client substreams through seed sequences, so results never
depend on client execution order; deltas are always reduced in ascending
client id.

The model passes over the pool once per round.  The evaluation that ends
round t keeps every pool row's logits; they belong to the parameters round
t+1 broadcasts, so that round's feedback is the loss over the sampled rows'
kept logits, with no forward pass of its own.

The sampled clients train together: each local SGD step is one stacked
gradient pass over every still-training client's minibatch.
``client_update`` returns arrays over the clients it trains: deltas
``(S, P)`` and a diverged mask ``(S,)``.  A client with non-finite feedback
is not trained, and a diverged client's delta holds no usable values; the
round drops both with a warning and fails only when every sampled client was
dropped.

Client data is one pooled dataset, each client's rows together in ascending
client id, plus each client's row count; a round gathers the sampled clients'
rows from it, and one prediction pass over it scores every client.  Row
counts are the only grouping the model layer is given: every grouped loss,
gradient and accuracy call takes its rows one group after another with the
groups' sizes.

An adaptive method takes one ``step`` per round of the optimizer that
``aggregator.optimizer_init`` gave it; a closed-form baseline has none and
computes its coefficients over the round's surviving clients.
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
    epoch_batches,
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
        if self.lr <= 0.0 or self.tau <= 0.0:
            raise DomainError("lr and tau must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise DomainError("beta1 and beta2 must lie in [0, 1)")


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
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Run local SGD from the received model for every client at once.

    ``data`` holds the clients' rows one client after another, ``sizes[i]``
    of them for client i.  Each client shuffles its own rows with its own
    generator every epoch and walks them in minibatches; SGD step s moves
    every client that still has an s-th minibatch, with one
    ``loss_and_grad`` call over those minibatches stacked together.  With
    prox_mu > 0 every step pulls back toward the received parameters.

    Returns ``(deltas, diverged)`` in the order of ``sizes``: the received
    parameters minus each client's final local ones ``(S, P)``, and a
    boolean mask ``(S,)``.  A client whose loss, gradient or parameters
    become non-finite stops training and is marked in ``diverged``; nothing
    is raised or warned, and its row of ``deltas`` must not be used.
    """
    if sizes.size == 0 or sizes.min() < 1 or sizes.sum() != len(data):
        raise InvalidDimensionError("sizes must be nonempty, positive and cover the data")
    received = np.asarray(params, dtype=float)
    offsets = np.cumsum(sizes) - sizes
    # Row indices into ``data`` of every client's minibatches, in step order.
    schedules = [
        [batch + offset for _ in range(epochs) for batch in epoch_batches(size, batch_size, rng)]
        for size, offset, rng in zip(sizes, offsets, rngs)
    ]
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
        # Overflowed parameters can come with a still-finite loss, so the new
        # iterate is checked too.
        ok = (
            np.isfinite(loss)
            & np.all(np.isfinite(grad), axis=1)
            & np.all(np.isfinite(stepped), axis=1)
        )
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
    round: int
    sampled_ids: list[int]
    mean_feedback: float
    decision_loss: float
    decision: np.ndarray
    summary: PerformanceSummary


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
    # Every pool row's logits, and the parameters array they were computed
    # for; the evaluation that ends a round keeps them for the next round's
    # feedback.  A caller changes the parameters by assigning a new array,
    # never by writing into this one.
    logits: np.ndarray | None = field(init=False, default=None)
    logits_params: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        if self.sizes.size == 0 or self.sizes.min() < 1 or self.sizes.sum() != len(self.pool):
            raise InvalidDimensionError("sizes must be nonempty, positive and cover the pool")
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
    If ``state.params`` is not the array those logits were computed for (in
    round 0, or after a caller replaced it), the pool is evaluated first.  A
    client with non-finite feedback is dropped without training.
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

    if state.logits_params is not state.params:
        state.logits = forward_logits(
            state.model_spec, state.params, state.pool.features, state.logits
        )
        state.logits_params = state.params
    feedback = group_loss(state.logits[rows], state.pool.labels[rows], sizes)
    diverged = ~np.isfinite(feedback)
    trains = ~diverged
    if trains.any():
        deltas, failed = client_update(
            state.params,
            state.pool.subset(rows[np.repeat(trains, sizes)]),
            sizes[trains],
            state.model_spec,
            epochs=state.epochs,
            batch_size=state.batch_size,
            lr=_effective_lr(state, t),
            prox_mu=state.prox_mu,
            weight_decay=state.weight_decay,
            rngs=[
                np.random.default_rng(np.random.SeedSequence(entropy))
                for entropy in _client_entropy(state.master_seed, t, sampled[trains])
            ],
        )
        diverged[trains] = failed
        deltas = deltas[~failed]
    for client_id in sampled[diverged]:
        logger.warning("dropping diverged client %d in round %d", client_id, t)
    survivors = sampled[~diverged]
    if survivors.size == 0:
        raise DivergenceError(f"every sampled client diverged in round {t}", round_index=t)

    feedbacks = feedback[~diverged]
    responses = transform_losses(feedbacks, state.cdf, state.bounds)

    observed = np.zeros(k, dtype=bool)
    observed[survivors] = True
    scattered = np.zeros(k)
    scattered[survivors] = responses

    prev_decision = state.decision

    # AAggFFD corrects a partial round by its propensity; every other round
    # is completed at propensity 1, which imputes the observed mean.
    doubly_robust = state.method.kind is MethodKind.AAGGFF_D and len(survivors) < k
    r_for_loss = dr_response(scattered, observed, state.propensity if doubly_robust else 1.0)
    round_loss = decision_loss(prev_decision, r_for_loss)

    if state.optimizer is None:
        new_decision = np.zeros(k)
        new_decision[survivors] = baseline_coefficients(
            state.method, state.sizes[survivors], feedbacks
        )
    else:
        if doubly_robust:
            gradient = linearized_grad(r_for_loss, prev_decision, float(responses.mean()))
        else:
            gradient = decision_grad(prev_decision, r_for_loss)
        state.optimizer, new_decision = state.optimizer.step(gradient)

    weights = normalize_selected(new_decision, survivors)
    # sum(axis=0) adds the rows one after another in client order, a fixed
    # reduction order; a matrix product may block and reorder the sums.
    mixed_delta = (weights[:, None] * deltas).sum(axis=0)

    state.params = server_apply(state.params, mixed_delta, state.server_opt)
    state.decision = new_decision

    # The next round's feedback reads these logits, computed for the
    # parameters it receives.
    client_accuracy = accuracy(
        state.model_spec, state.params, state.pool, state.sizes, out=state.logits
    )
    state.logits_params = state.params
    return RoundReport(
        round=t,
        sampled_ids=survivors.tolist(),
        mean_feedback=float(feedbacks.mean()),
        decision_loss=round_loss,
        decision=new_decision,
        summary=performance_summary(client_accuracy),
    )
