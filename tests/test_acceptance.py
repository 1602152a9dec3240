"""Acceptance suite: ten numbered end-to-end checks with pinned tolerances,
and a guard on the doubly-robust path.

Each test prints one summary line with the measured quantities; run with
`pytest -s tests/test_acceptance.py` to see the lines inline.  A failed
assert surfaces as the usual pytest FAILED line for that criterion.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from fairagg.aggregator import (
    MethodKind,
    aaggff_s_step,
    baseline_coefficients,
    ftrl_decision,
    ons_init,
)
from fairagg.cli import (
    ROUNDS_HEADER,
    ExperimentConfig,
    build_state,
    parse_config,
    run_experiment,
    sequence_regret,
    synthetic_responses,
)
from fairagg.decision import (
    decision_grad,
    dr_response,
    linearized_grad,
    lipschitz_constants,
)
from fairagg.fedsim import run_round
from fairagg.metrics import regret_envelope
from fairagg.response import (
    CdfFamily,
    CdfKind,
    ResponseBounds,
    transform_losses,
)
from fairagg.simplex import kkt_residual, minimize_over_simplex
from unification import BASELINE_KINDS as BASELINES, eg_unified_step, unify_instance


def report(num: int, detail: str, elapsed: float) -> None:
    print(f"criterion {num:2d} PASS  {detail}  ({elapsed:.2f}s)")


def observed_mask(indices, k: int) -> np.ndarray:
    mask = np.zeros(k, dtype=bool)
    mask[list(indices)] = True
    return mask


# ---------------------------------------------------------------------------
# 1. Every baseline's closed-form coefficients equal one exponentiated-
#    gradient step from the static point, 100 random instances each.
# ---------------------------------------------------------------------------

def test_criterion_01_baseline_unification():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for kind in BASELINES:
        for _ in range(100):
            method, sizes, losses, response, step = unify_instance(kind, rng)
            closed = baseline_coefficients(method, sizes, losses)
            eg = eg_unified_step(sizes / sizes.sum(), response, step)
            worst = max(worst, float(np.max(np.abs(closed - eg))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    report(1, f"unification over 5x100 instances, max deviation {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 2. The reference response-transform table: losses [0.01, 0.10, 0.02] at
#    bounds [0, 1] reproduce all six families' rows to 2 decimal places.
# ---------------------------------------------------------------------------

REFERENCE_ROWS = {
    CdfFamily.WEIBULL: [0.05, 1.00, 0.19],
    CdfFamily.FRECHET: [0.01, 0.65, 0.11],
    CdfFamily.GUMBEL: [0.12, 0.76, 0.18],
    CdfFamily.EXPONENTIAL: [0.21, 0.90, 0.37],
    CdfFamily.LOGISTIC: [0.32, 0.79, 0.37],
    CdfFamily.NORMAL: [0.22, 0.90, 0.29],
}


def agrees_at_2dp(value: float, printed: float) -> bool:
    # The reference rows mix print conventions (0.9951 appears as 1.00 but
    # 0.2951 as 0.29), so accept a value that rounds or truncates to match.
    return (
        round(value, 2) == printed
        or math.floor(value * 100.0) / 100.0 == printed
    )


def test_criterion_02_cdf_reference_table():
    start = time.perf_counter()
    losses = np.array([0.01, 0.10, 0.02])
    bounds = ResponseBounds(0.0, 1.0)
    for family, expected in REFERENCE_ROWS.items():
        out = transform_losses(losses, CdfKind(family), bounds)
        assert all(agrees_at_2dp(v, e) for v, e in zip(out, expected)), family
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    report(2, "all six transform rows match at 2 decimal places", elapsed)


# ---------------------------------------------------------------------------
# 3. Gradient sup-norm bounds at C1=0, C2=C=0.1 over 1,000 random rounds:
#    exact stream within 0.1, linearized estimated stream within 2.1.
# ---------------------------------------------------------------------------

def test_criterion_03_lipschitz_bounds():
    start = time.perf_counter()
    bounds = ResponseBounds(0.0, 0.1)
    participation = 0.1
    constants = lipschitz_constants(bounds, participation)
    assert constants.l_inf == pytest.approx(0.1)
    assert constants.l_inf_dr == pytest.approx(2.1)

    rng = np.random.default_rng(3)
    worst_exact = 0.0
    worst_dr = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 51))
        r = rng.uniform(bounds.c1, bounds.c2, size=k)
        p = rng.dirichlet(np.ones(k))
        worst_exact = max(worst_exact, float(np.abs(decision_grad(p, r)).max()))

        observed = rng.random(k) < participation
        if not observed.any():
            observed[int(rng.integers(k))] = True
        estimate = dr_response(r, observed, participation)
        anchor = float(r[observed].mean())
        g_dr = linearized_grad(estimate, p, anchor)
        worst_dr = max(worst_dr, float(np.abs(g_dr).max()))

    elapsed = time.perf_counter() - start
    assert worst_exact <= constants.l_inf
    assert worst_dr <= constants.l_inf_dr
    report(
        3,
        f"sup norms {worst_exact:.4f} <= 0.1 and {worst_dr:.4f} <= 2.1, "
        "zero violations in 1000 rounds",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 4. The closed-form softmax decision equals the numeric argmin of the
#    entropic objective it claims to minimize, K in {2, 5, 50}.
# ---------------------------------------------------------------------------

def test_criterion_04_closed_form_matches_argmin():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    sizes = (2, 5, 50)
    for i in range(100):
        k = sizes[i % 3]
        l_inf_dr = float(rng.uniform(0.1, 2.5))
        rounds_seen = int(rng.integers(1, 50))
        cum = rng.uniform(-1.0, 1.0, size=k) * l_inf_dr * rounds_seen * 0.1
        zeta = l_inf_dr * math.sqrt(rounds_seen + 1.0) / math.sqrt(math.log(k))

        def objective(p):
            with np.errstate(divide="ignore", invalid="ignore"):
                return float(cum @ p + zeta * np.sum(p * np.log(p)))

        def gradient(p):
            with np.errstate(divide="ignore"):
                return cum + zeta * (1.0 + np.log(p))

        numeric = minimize_over_simplex(
            lambda p: (objective(p), gradient(p)), k, tol=1e-10
        )
        closed = ftrl_decision(cum, rounds_seen, l_inf_dr)
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 30.0
    report(4, f"100 instances, max closed-vs-numeric deviation {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 5. Every quadratic-surrogate decision is stationary for the surrogate
#    objective rebuilt directly from the raw (gradient, decision) history.
# ---------------------------------------------------------------------------

def test_criterion_05_ons_kkt_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 11))
        bounds = ResponseBounds.cross_silo(k)
        state = ons_init(k, l_inf=bounds.c2)
        decision = np.full(k, 1.0 / k)
        history = []
        for _ in range(5):
            r = rng.uniform(bounds.c1, bounds.c2, size=k)
            g = decision_grad(decision, r)
            history.append((g, decision))
            state, decision = aaggff_s_step(state, g)

            mat = 4 * k * bounds.c2 * np.eye(k)
            rhs = np.zeros(k)
            grad_sum = np.zeros(k)
            for g_s, p_s in history:
                mat += state.beta * np.outer(g_s, g_s)
                rhs += state.beta * float(g_s @ p_s) * g_s
                grad_sum += g_s
            grad_at = mat @ decision + grad_sum - rhs
            worst = max(
                worst, kkt_residual(decision, grad_at, active_tol=1e-12)
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-7
    assert elapsed < 30.0
    report(5, f"50 sequences x 5 rounds, max KKT residual {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 6. Cumulative regret stays under the theory envelopes on synthetic bounded
#    sequences, K=8, full participation, at T in {100, 500, 2000}.
# ---------------------------------------------------------------------------

def test_criterion_06_regret_bounds():
    start = time.perf_counter()
    k = 8
    c2 = 1.0 / k
    l_inf = lipschitz_constants(ResponseBounds(0.0, c2), 1.0).l_inf
    pairs = []
    for horizon in (100, 500, 2000):
        responses = synthetic_responses(k, horizon, c2, seed=0)
        ons_regret = sequence_regret(MethodKind.AAGGFF_S, responses, c2)
        ons_bound = regret_envelope(MethodKind.AAGGFF_S, k, horizon, l_inf)
        ftrl_regret = sequence_regret(MethodKind.AAGGFF_D, responses, c2)
        ftrl_bound = regret_envelope(MethodKind.AAGGFF_D, k, horizon, l_inf)
        assert ons_regret <= ons_bound, horizon
        assert ftrl_regret <= ftrl_bound, horizon
        pairs.append(f"T={horizon}: {ons_regret:.3f}<={ons_bound:.3f}, "
                     f"{ftrl_regret:.3f}<={ftrl_bound:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, "; ".join(pairs), elapsed)


# ---------------------------------------------------------------------------
# 7. The partial-feedback estimator's bias, enumerated exhaustively at K=4
#    and Monte-Carlo checked against exhaustive enumeration at K=20.
# ---------------------------------------------------------------------------

ENUMERATED_BIAS = np.array([0.05, 1.0 / 60.0, -1.0 / 60.0, -0.05])


def test_criterion_07_dr_estimator_bias():
    start = time.perf_counter()
    r4 = np.array([0.1, 0.2, 0.3, 0.4])
    estimates = [
        dr_response(r4, observed_mask(sub, 4), 0.5)
        for sub in itertools.combinations(range(4), 2)
    ]
    bias4 = np.mean(estimates, axis=0) - r4
    np.testing.assert_allclose(bias4, ENUMERATED_BIAS, atol=1e-12)
    assert float(np.max(np.abs(bias4))) <= 0.25 * (0.4 - 0.1)

    k, participation, chosen = 20, 0.25, 5
    r20 = np.linspace(0.1, 0.4, k)
    exact = np.zeros(k)
    subsets = list(itertools.combinations(range(k), chosen))
    for sub in subsets:
        exact += dr_response(r20, observed_mask(sub, k), participation)
    exact /= len(subsets)

    rng = np.random.default_rng(7)
    draws = 100_000
    total = np.zeros(k)
    total_sq = np.zeros(k)
    for _ in range(draws):
        sub = rng.choice(k, size=chosen, replace=False)
        est = dr_response(r20, observed_mask(sub, k), participation)
        total += est
        total_sq += est * est
    mc_mean = total / draws
    se = np.sqrt((total_sq / draws - mc_mean**2) / draws)
    gap_in_se = np.abs(mc_mean - exact) / se
    assert float(gap_in_se.max()) <= 3.0

    elapsed = time.perf_counter() - start
    report(
        7,
        f"enumerated bias {np.round(bias4, 4).tolist()} within 0.075; "
        f"MC vs enumeration worst gap {gap_in_se.max():.2f} SE",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 8. Scaled-down fairness direction: the adaptive closed-form method lifts
#    the worst decile over static weighting without hurting the average by
#    more than 2 points.  K=20, Dirichlet 0.01, T=200, logistic, 3 seeds.
# ---------------------------------------------------------------------------

def fairness_run(method: str, seed: int, **overrides):
    cfg = ExperimentConfig(
        K=20, T=200, method=method, partition="Dirichlet", alpha=0.01,
        model="LogisticRegression", input_dim=2, num_classes=2,
        num_samples=2000, seeds=[seed], **overrides,
    )
    state = build_state(cfg, seed=seed)
    last = None
    for t in range(cfg.T):
        last = run_round(state, t)
    return last


def test_criterion_08_fairness_direction():
    start = time.perf_counter()
    worst10 = {}
    average = {}
    for method in ("Static", "AAggFFD"):
        finals = [fairness_run(method, seed).summary for seed in (0, 1, 2)]
        worst10[method] = float(np.mean([s.worst10 for s in finals]))
        average[method] = float(np.mean([s.average for s in finals]))
    margin = worst10["AAggFFD"] - worst10["Static"]
    avg_drop = average["Static"] - average["AAggFFD"]
    elapsed = time.perf_counter() - start
    assert margin > 0.0
    assert avg_drop <= 0.02
    assert elapsed < 300.0
    report(
        8,
        f"worst-10% margin {margin:+.4f} (directional), "
        f"average change {-avg_drop:+.4f} within 2 points",
        elapsed,
    )


# ---------------------------------------------------------------------------
# Guard on the doubly-robust path, which criteria 8 and 9 never take at C=1:
# at C=0.05 AAggFFD's propensity-corrected estimate lifts the worst decile
# over the same runs with the propensity set to 1 (mean imputation), keeps
# the average, and moves the decision further from uniform.  K=200,
# CrossDevice bounds, Dirichlet 0.1, T=200, seeds 0-19.
# ---------------------------------------------------------------------------

def sampled_device_run(seed: int, propensity_corrected: bool):
    cfg = ExperimentConfig(
        K=200, T=200, method="AAggFFD", C=0.05, bounds_mode="CrossDevice",
        partition="Dirichlet", alpha=0.1, num_samples=4000, seeds=[seed],
    )
    state = build_state(cfg, seed=seed)
    if not propensity_corrected:
        state.propensity = 1.0
    for t in range(cfg.T):
        last = run_round(state, t)
    return last.summary, float(state.decision.max()) * cfg.K


def test_doubly_robust_estimate_lifts_the_worst_decile():
    start = time.perf_counter()
    worst10, average, max_weight = [], [], {True: [], False: []}
    for seed in range(20):
        dr, dr_max = sampled_device_run(seed, True)
        imputed, imputed_max = sampled_device_run(seed, False)
        worst10.append(dr.worst10 - imputed.worst10)
        average.append(dr.average - imputed.average)
        max_weight[True].append(dr_max)
        max_weight[False].append(imputed_max)
    margin, avg_change = float(np.mean(worst10)), float(np.mean(average))
    elapsed = time.perf_counter() - start
    assert margin > 0.0
    assert avg_change >= -0.02
    assert np.mean(max_weight[True]) > np.mean(max_weight[False])
    print(
        f"doubly-robust guard PASS  worst-10% margin {margin:+.4f}, "
        f"average change {avg_change:+.4f}, max weight x K "
        f"{np.mean(max_weight[True]):.2f} against {np.mean(max_weight[False]):.2f}  "
        f"({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 9. Plug-and-play: Adam-kind server optimizer plus proximal client updates
#    complete without divergence, emit the full metric schema, and keep the
#    adaptive method's worst decile at or above static weighting.
# ---------------------------------------------------------------------------

def test_criterion_09_plug_and_play(tmp_path):
    start = time.perf_counter()
    worst10 = {}
    for method in ("Static", "AAggFFD"):
        out = tmp_path / method
        cfg = parse_config(json.dumps({
            "K": 20, "T": 200, "method": method,
            "partition": "Dirichlet", "alpha": 0.01,
            "model": "LogisticRegression", "input_dim": 2, "num_classes": 2,
            "num_samples": 2000, "seeds": [0, 1, 2],
            "server_opt": "Adam", "server_lr": 0.01, "prox_mu": 0.01,
            "output_dir": str(out),
        }))
        assert run_experiment(cfg) == 0  # nonzero would mean a diverged run

        rounds = (out / "rounds_seed0.csv").read_text().splitlines()
        assert rounds[0] == ROUNDS_HEADER
        assert len(rounds) == 201
        for row in rounds[1:]:
            cells = row.split(",")
            scalars = [cells[2], cells[3]] + cells[5:]
            assert all(math.isfinite(float(c)) for c in scalars)

        summary = (out / "summary.csv").read_text().splitlines()
        seed_rows = [r.split(",") for r in summary[1:4]]
        worst10[method] = float(np.mean([float(r[2]) for r in seed_rows]))
    elapsed = time.perf_counter() - start
    assert worst10["AAggFFD"] >= worst10["Static"]
    report(
        9,
        f"Adam+proximal runs complete, schema intact, worst-10% "
        f"{worst10['AAggFFD']:.4f} >= {worst10['Static']:.4f}",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 10. Same seed list, different thread counts: byte-identical CSV outputs.
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    body = {
        "K": 8, "T": 25, "method": "AAggFFD", "C": 0.5,
        "partition": "Dirichlet", "alpha": 0.1,
        "num_samples": 400, "seeds": [0, 1],
    }
    produced = {}
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        cfg = parse_config(json.dumps({**body, "output_dir": str(out)}))
        assert run_experiment(cfg, threads=threads) == 0
        produced[threads] = sorted(p for p in out.iterdir())
    names = [p.name for p in produced[1]]
    assert names == [p.name for p in produced[4]]
    assert "summary.csv" in names and "rounds_seed0.csv" in names
    for a, b in zip(produced[1], produced[4]):
        assert a.read_bytes() == b.read_bytes(), a.name
    elapsed = time.perf_counter() - start
    report(10, f"{len(names)} files byte-identical across thread counts", elapsed)
