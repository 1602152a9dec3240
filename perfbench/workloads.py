"""The four benchmark workloads, driven through fairagg's public functions.

Every function is looked up through its module at call time (``cli.build_state``,
``fedsim.run_round``, ...), so the tracer in ``layers.py`` sees the calls the
benchmark makes as well as the ones fairagg makes internally.

A simulation is the unit of work: it sets up from one seed, runs every round
and checks each round's output.  A round is one ``fedsim.run_round`` call, or
on ``regret_stream`` one step of each adaptive method on the same response.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fairagg import aggregator, cli, decision, fedsim, metrics, response

# Decisions must sum to one within the library's own feasibility tolerance.
SIMPLEX_TOL = 1e-9

SUMMARY_FIELDS = ("average", "worst10", "best10", "gini_x100", "acc_parity_gap")


def sim_seed(seed: int, index: int) -> int:
    """Seed of the index-th simulation of a run with the given workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def decision_error(p: np.ndarray, k: int) -> str | None:
    """Why ``p`` is not a point of the k-simplex, or None if it is."""
    p = np.asarray(p, dtype=float)
    if p.shape != (k,):
        return f"decision has shape {p.shape}, expected ({k},)"
    if not np.all(np.isfinite(p)):
        return "decision has non-finite entries"
    if np.any(p < 0.0):
        return f"decision has a negative entry {p.min():.3e}"
    if abs(float(p.sum()) - 1.0) > SIMPLEX_TOL:
        return f"decision sums to {p.sum():.12f}"
    return None


def summary_error(s) -> str | None:
    """Why a performance summary is out of range, or None if it is sound."""
    values = [getattr(s, f) for f in SUMMARY_FIELDS]
    if not all(math.isfinite(v) for v in values):
        return "summary has non-finite values"
    if not (0.0 <= s.worst10 <= s.average <= s.best10 <= 1.0):
        return f"summary tails out of order: {s.worst10}, {s.average}, {s.best10}"
    return None


@dataclass
class SimResult:
    """What one simulation produced; ``errors`` lists every failed check."""

    seed: int
    round_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # Final values per method label: summary fields, or regret and bound.
    finals: dict[str, dict[str, float]] = field(default_factory=dict)
    summary_csv: dict[str, bytes] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class NullTracer:
    """Stands in for ``layers.Tracer`` when tracing is off."""

    def __init__(self):
        self.round_id = -1

    @staticmethod
    def span(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulatorWorkload:
    name: str
    config: dict
    methods: tuple[str, ...]
    rounds: int
    timed_sims: int
    expected_layers: tuple[str, ...]
    kind: str = "simulator"

    def setup(self, seed: int) -> list[tuple[str, fedsim.SimulationState]]:
        """One state per method, each ready for round 0."""
        states = []
        for method in self.methods:
            cfg = cli.ExperimentConfig(
                **self.config, method=method, T=self.rounds, seeds=[seed]
            )
            cli.validate_config(cfg)
            states.append((method, cli.build_state(cfg, seed)))
        return states

    def simulate(self, seed: int, out_dir: Path | None, tracer=None) -> SimResult:
        tracer = tracer or NullTracer()
        result = SimResult(seed=seed)
        states = tracer.span("bench.setup", self.setup, seed)
        for method, state in states:
            reports = []
            for t in range(self.rounds):
                result.attempted += 1
                tracer.round_id += 1
                begin = time.perf_counter()
                try:
                    report = tracer.span("bench.round", fedsim.run_round, state, t)
                except Exception as exc:  # a raising round is a failed operation
                    result.fail(f"{method} seed {seed} round {t} raised {exc!r}")
                    break
                result.round_s.append(time.perf_counter() - begin)
                problem = decision_error(report.decision, state.k) or summary_error(
                    report.summary
                )
                if problem is None and not report.sampled_ids:
                    problem = "no client survived"
                if problem is not None:
                    result.fail(f"{method} seed {seed} round {t}: {problem}")
                reports.append(report)
            else:
                final = reports[-1].summary
                result.finals[method] = {f: float(getattr(final, f)) for f in SUMMARY_FIELDS}
                if out_dir is not None:
                    target = out_dir / method
                    cli.write_results({seed: reports}, {seed: final}, target)
                    result.summary_csv[method] = (target / "summary.csv").read_bytes()
        return result


# ---------------------------------------------------------------------------
# Aggregator-only workload
# ---------------------------------------------------------------------------

def regret_bound(method: str, k: int, horizon: int, l_inf: float) -> float:
    """The envelope ``fairagg regret-bench`` checks each method against."""
    if method == "AAggFFS":
        return 2.0 * l_inf * k * (1.0 + math.log(1.0 + horizon / (16.0 * k)))
    return 2.0 * l_inf * math.sqrt(horizon * math.log(k))


@dataclass
class StreamState:
    responses: np.ndarray
    ons: aggregator.OnsState
    ftrl: aggregator.FtrlState
    l_inf: float


@dataclass(frozen=True)
class RegretWorkload:
    name: str
    k: int
    rounds: int
    timed_sims: int
    expected_layers: tuple[str, ...]
    kind: str = "stream"
    methods: tuple[str, ...] = ("AAggFFS", "AAggFFD")

    def setup(self, seed: int) -> StreamState:
        c2 = 1.0 / self.k
        responses = cli.synthetic_responses(self.k, self.rounds, c2, seed)
        constants = decision.lipschitz_constants(response.ResponseBounds(0.0, c2), 1.0)
        return StreamState(
            responses=responses,
            ons=aggregator.ons_init(self.k, constants.l_inf),
            ftrl=aggregator.ftrl_init(self.k, constants.l_inf),
            l_inf=constants.l_inf,
        )

    def _step(self, state: StreamState, p_s, p_d, r):
        g_s = decision.decision_grad(p_s, r)
        state.ons, p_s = aggregator.aaggff_s_step(state.ons, g_s)
        g_d = decision.decision_grad(p_d, r)
        state.ftrl, p_d = aggregator.aaggff_d_step(state.ftrl, g_d)
        return p_s, p_d

    def simulate(self, seed: int, out_dir: Path | None, tracer=None) -> SimResult:
        tracer = tracer or NullTracer()
        result = SimResult(seed=seed)
        state = tracer.span("bench.setup", self.setup, seed)
        # Decision logs hold the decision played in each round, as
        # ``cli.sequence_regret`` keeps them.
        logs = {"AAggFFS": [], "AAggFFD": []}
        p_s = p_d = np.full(self.k, 1.0 / self.k)
        for t in range(self.rounds):
            result.attempted += 1
            tracer.round_id += 1
            logs["AAggFFS"].append(p_s)
            logs["AAggFFD"].append(p_d)
            begin = time.perf_counter()
            try:
                p_s, p_d = tracer.span(
                    "bench.round", self._step, state, p_s, p_d, state.responses[t]
                )
            except Exception as exc:
                result.fail(f"seed {seed} round {t} raised {exc!r}")
                return result
            result.round_s.append(time.perf_counter() - begin)
            problem = decision_error(p_s, self.k) or decision_error(p_d, self.k)
            if problem is not None:
                result.fail(f"seed {seed} round {t}: {problem}")
        for method, decisions in logs.items():
            regret, _ = metrics.cumulative_regret(decisions, list(state.responses))
            bound = regret_bound(method, self.k, self.rounds, state.l_inf)
            result.finals[method] = {"regret": float(regret), "regret_to_bound": regret / bound}
            if not regret / bound <= 1.0:
                result.fail(f"{method} seed {seed}: regret {regret:.6g} exceeds bound {bound:.6g}")
        return result


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

_SIM_LAYERS = (
    "fedsim.run_round",
    "fedsim.sample_clients",
    "fedsim.client_update",
    "fedsim.server_apply",
    "modeldata.loss_and_grad",
    "modeldata.accuracy",
    "modeldata.make_synthetic",
    "modeldata.partition",
    "response.transform_losses",
    "decision.decision_loss",
    "aggregator.normalize_selected",
    "metrics.performance_summary",
    "cli.build_state",
    "cli.write_results",
)

_ONS_LAYERS = (
    "aggregator.aaggff_s_step",
    "simplex.project_generalized",
    "simplex.minimize_over_simplex",
    "simplex.project_to_simplex",
)

WORKLOADS = {
    w.name: w
    for w in (
        SimulatorWorkload(
            name="cross_silo",
            config=dict(K=20, C=1.0, partition="Dirichlet", alpha=0.01, B=20, E=1,
                        model="LogisticRegression", server_opt="SGD"),
            methods=("Static", "AFL", "QFedAvg", "TERM", "PropFair", "AAggFFS", "AAggFFD"),
            rounds=20,
            timed_sims=1,
            expected_layers=_SIM_LAYERS + _ONS_LAYERS
            + ("aggregator.baseline_coefficients", "aggregator.aaggff_d_step",
               "decision.decision_grad"),
        ),
        SimulatorWorkload(
            name="cross_device",
            config=dict(K=1000, C=0.02, bounds_mode="CrossDevice", partition="Dirichlet",
                        alpha=0.1, num_samples=20000, model="LogisticRegression"),
            methods=("AAggFFD",),
            rounds=20,
            timed_sims=1,
            expected_layers=_SIM_LAYERS
            + ("aggregator.aaggff_d_step", "decision.dr_response", "decision.linearized_grad"),
        ),
        SimulatorWorkload(
            name="mlp_silo",
            config=dict(K=20, C=1.0, partition="Dirichlet", alpha=0.1, model="MLP",
                        input_dim=4, num_classes=4, hidden=16),
            methods=("AAggFFS",),
            rounds=40,
            timed_sims=1,
            expected_layers=_SIM_LAYERS + _ONS_LAYERS + ("decision.decision_grad",),
        ),
        RegretWorkload(
            name="regret_stream",
            k=200,
            rounds=300,
            timed_sims=2,
            expected_layers=_ONS_LAYERS
            + ("aggregator.aaggff_d_step", "decision.decision_grad",
               "metrics.cumulative_regret", "decision.decision_loss"),
        ),
    )
}
