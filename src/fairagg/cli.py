"""Experiment runner: config parsing, execution, persistence, diagnostics.

One binary, two subcommands:

* ``run``          -- execute a configured experiment across seeds
* ``regret-bench`` -- adaptive methods on synthetic bounded response
                      sequences, checked against their regret bounds

Configs are JSON documents with a flat, fully documented key set; unknown
keys are rejected by name.  All floats are serialized with 12 significant
digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, astuple, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .aggregator import AggregatorMethod, MethodKind, optimizer_init
from .decision import decision_grad, lipschitz_constants
from .errors import ConfigError, DomainError, FairaggError
from .fedsim import (
    RoundReport,
    ServerOptKind,
    ServerOptimizer,
    SimulationState,
    run_round,
)
from .metrics import PerformanceSummary, cumulative_regret, regret_envelope
from .modeldata import (
    ModelKind,
    ModelSpec,
    PartitionScheme,
    PartitionSpec,
    init_params,
    make_synthetic,
    partition,
)
from .response import (
    DEFAULT_CDF_CROSS_DEVICE,
    DEFAULT_CDF_CROSS_SILO,
    CdfFamily,
    CdfKind,
    ResponseBounds,
)
from .simplex import uniform_decision

FLOAT_FORMAT = ".12g"

ROUNDS_HEADER = (
    "round,sampled_ids,mean_feedback,decision_loss,decision,"
    "eval_avg,eval_worst10,eval_best10,gini_x100,gap"
)
SUMMARY_HEADER = "seed,avg,worst10,best10,gini_x100,gap"


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment; field names are config keys."""

    K: int
    T: int
    method: str
    C: float = 1.0
    B: int = 20
    E: int = 1
    lr: float = 0.1
    lr_decay: float = 0.99
    decay_step: int = 10
    prox_mu: float = 0.0
    weight_decay: float = 0.0
    q: float = AggregatorMethod.q
    tilt: float = AggregatorMethod.tilt
    loss_ceiling: float = AggregatorMethod.loss_ceiling
    cdf: str | None = None
    cdf_scale: float = CdfKind.scale
    cdf_shape: float | None = None
    bounds_mode: str = "CrossSilo"
    c1: float | None = None
    c2: float | None = None
    partition: str = "IID"
    alpha: float = PartitionSpec.alpha
    classes_per_client: int = PartitionSpec.classes_per_client
    model: str = "LogisticRegression"
    input_dim: int = 2
    num_classes: int = 2
    hidden: int = ModelSpec.hidden
    num_samples: int = 2000
    server_opt: str = "SGD"
    server_lr: float = ServerOptimizer.lr
    beta1: float = ServerOptimizer.beta1
    beta2: float = ServerOptimizer.beta2
    tau: float = ServerOptimizer.tau
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "results"


# Config key -> its field's annotation as written and as a type.
_HINTS = get_type_hints(ExperimentConfig)
_SCHEMA = {f.name: (f.type, _HINTS[f.name]) for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig)
                  if f.default is MISSING and f.default_factory is MISSING]
_MAGNITUDE = {int: 2**63 - 1, float: sys.float_info.max}


def _fits(hint, value) -> bool:
    """Whether a value fits a field type; a bool fits none, an int fits float.

    An int key takes magnitudes below 2**63, the int64 range numpy sizes and
    seeds with; a float key, values within the float range: ``json`` reads
    ``NaN``, ``Infinity`` and ``1e400`` as non-finite floats, which pass ``<= 0``
    range checks, and a longer integer overflows in float arithmetic.
    """
    if isinstance(value, bool):
        return False
    args = get_args(hint)
    if hint in (int, float):
        return isinstance(value, (int, hint)) and abs(value) <= _MAGNITUDE[hint]
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(args[0], v) for v in value)
    if type(None) in args:
        return value is None or _fits(args[0], value)
    return isinstance(value, hint)


_ENUM_KEYS = {
    "method": {k.value for k in MethodKind},
    "cdf": {f.value for f in CdfFamily},
    "bounds_mode": {"CrossSilo", "CrossDevice", "Explicit"},
    "partition": {s.value for s in PartitionScheme},
    "model": {m.value for m in ModelKind},
    "server_opt": {k.value for k in ServerOptKind},
}


def parse_config(text: str) -> ExperimentConfig:
    """Read a JSON config object with no unknown or missing key, then validate it."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of key/value pairs")

    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")

    cfg = ExperimentConfig(**raw)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """The one gate for any config, parsed, overridden or built in code: a
    value no seed could run raises one ConfigError naming its key or library
    parameter.  Keys must fit their field's type and choices; each value
    ``_config_values`` builds checks its own range.  Only ``num_samples`` and
    ``loss_ceiling`` wait for each seed's data."""
    for key, (annotation, hint) in _SCHEMA.items():
        value = getattr(cfg, key)
        if not _fits(hint, value):
            raise ConfigError(f"config key '{key}' must be {annotation}, got {value!r}")
        if value is not None and key in _ENUM_KEYS and value not in _ENUM_KEYS[key]:
            allowed = ", ".join(sorted(_ENUM_KEYS[key]))
            raise ConfigError(f"config key '{key}' must be one of: {allowed}")
    if cfg.K < 1 or cfg.T < 1:
        raise ConfigError("config keys 'K' and 'T' must be >= 1")
    if not (0.0 < cfg.C <= 1.0):
        raise ConfigError("config key 'C' must lie in (0, 1]")
    if cfg.B < 1 or cfg.E < 0:
        raise ConfigError("config keys 'B' must be >= 1 and 'E' >= 0")
    for key in ("lr", "server_lr"):
        if getattr(cfg, key) <= 0.0:
            raise ConfigError(f"config key '{key}' must be positive")
    # A decay above 1 grows the step size until the power overflows.
    if not (0.0 < cfg.lr_decay <= 1.0):
        raise ConfigError("config key 'lr_decay' must lie in (0, 1]")
    if cfg.decay_step < 1:
        raise ConfigError("config key 'decay_step' must be >= 1")
    if cfg.prox_mu < 0.0 or cfg.weight_decay < 0.0:
        raise ConfigError("config keys 'prox_mu' and 'weight_decay' must be >= 0")
    if cfg.bounds_mode == "Explicit" and (cfg.c1 is None or cfg.c2 is None):
        raise ConfigError("bounds_mode 'Explicit' requires config keys 'c1' and 'c2'")
    # Seeds feed numpy seed sequences, which take nonnegative integers only;
    # a repeated seed would run again and be reported once.
    if not cfg.seeds or min(cfg.seeds) < 0 or len(set(cfg.seeds)) < len(cfg.seeds):
        raise ConfigError(
            "config key 'seeds' must be a nonempty list of distinct nonnegative integers"
        )
    try:
        _config_values(cfg, cfg.seeds[0])
    except FairaggError as exc:
        raise ConfigError(f"config rejected: {exc}") from exc


def resolve_bounds(cfg: ExperimentConfig) -> ResponseBounds:
    if cfg.bounds_mode == "CrossSilo":
        return ResponseBounds.cross_silo(cfg.K)
    if cfg.bounds_mode == "CrossDevice":
        return ResponseBounds.cross_device(cfg.C)
    return ResponseBounds(float(cfg.c1), float(cfg.c2))


def resolve_cdf(cfg: ExperimentConfig) -> CdfKind:
    if cfg.cdf is None:
        default = (
            DEFAULT_CDF_CROSS_DEVICE
            if cfg.bounds_mode == "CrossDevice"
            else DEFAULT_CDF_CROSS_SILO
        )
        family = default.family
    else:
        family = CdfFamily(cfg.cdf)
    shape = cfg.cdf_shape if family is not CdfFamily.EXPONENTIAL else None
    return CdfKind(family, scale=cfg.cdf_scale, shape=shape)


def _config_values(cfg: ExperimentConfig, seed: int) -> tuple[PartitionSpec, dict]:
    """The seed's partition spec and every ``SimulationState`` field the
    config fixes without data or a model-sized array.  Each value is built by
    the library type that holds it, which raises FairaggError on a bad one."""
    split = PartitionSpec(scheme=PartitionScheme(cfg.partition), k=cfg.K, seed=seed,
                          alpha=cfg.alpha, classes_per_client=cfg.classes_per_client)
    return split, dict(
        master_seed=seed,
        model_spec=ModelSpec(kind=ModelKind(cfg.model), input_dim=cfg.input_dim,
                             num_classes=cfg.num_classes, hidden=cfg.hidden),
        method=AggregatorMethod(
            kind=MethodKind(cfg.method), q=cfg.q, tilt=cfg.tilt, loss_ceiling=cfg.loss_ceiling
        ),
        cdf=resolve_cdf(cfg),
        bounds=resolve_bounds(cfg),
        sampling_c=cfg.C,
        epochs=cfg.E,
        batch_size=cfg.B,
        lr=cfg.lr,
        lr_decay=cfg.lr_decay,
        decay_step=cfg.decay_step,
        prox_mu=cfg.prox_mu,
        weight_decay=cfg.weight_decay,
        server_opt=ServerOptimizer(kind=ServerOptKind(cfg.server_opt), lr=cfg.server_lr,
                                   beta1=cfg.beta1, beta2=cfg.beta2, tau=cfg.tau),
    )


def build_state(cfg: ExperimentConfig, seed: int) -> SimulationState:
    split, values = _config_values(cfg, seed)
    dataset = make_synthetic(cfg.num_samples, cfg.input_dim, cfg.num_classes, seed)
    pool, sizes = partition(dataset, split)
    params = init_params(values["model_spec"], seed)
    return SimulationState(pool=pool, sizes=sizes, params=params, **values)


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def _rounds_row(report: RoundReport) -> str:
    return ",".join(
        [
            str(report.round),
            ";".join(str(i) for i in report.sampled_ids),
            _fmt(report.mean_feedback),
            _fmt(report.decision_loss),
            ";".join(_fmt(x) for x in report.decision),
            *(_fmt(v) for v in astuple(report.summary)),
        ]
    )


def write_results(
    reports_by_seed: dict[int, list[RoundReport]],
    summaries: dict[int, PerformanceSummary],
    out_dir: str | Path,
) -> None:
    """Write one rounds CSV per seed plus the aggregated summary CSV."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for seed, reports in reports_by_seed.items():
            lines = [ROUNDS_HEADER] + [_rounds_row(r) for r in reports]
            (out / f"rounds_seed{seed}.csv").write_text("\n".join(lines) + "\n")

        rows = [SUMMARY_HEADER]
        table = []
        for seed in sorted(summaries):
            values = astuple(summaries[seed])
            table.append(values)
            rows.append(str(seed) + "," + ",".join(_fmt(v) for v in values))
        if table:
            arr = np.asarray(table)
            rows.append("mean," + ",".join(_fmt(v) for v in arr.mean(axis=0)))
            rows.append("std," + ",".join(_fmt(v) for v in arr.std(axis=0)))
        (out / "summary.csv").write_text("\n".join(rows) + "\n")
    except OSError as exc:
        raise FairaggError(f"failed writing results under {out}: {exc}") from exc


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> int:
    """Run the configured seeds in turn, holding one seed's reports at a time;
    each that completes is written at once, with a summary of those so far.  A
    seed that raises a FairaggError prints ``error: seed S: message`` and gets
    no rounds file or summary row; the call then returns 1, as it does at once
    on a write failure, else 0.  ``threads`` never affects results."""
    summaries: dict[int, PerformanceSummary] = {}
    for seed in cfg.seeds:
        try:
            state = build_state(cfg, seed)
            reports = [run_round(state, t) for t in range(cfg.T)]
        except FairaggError as exc:
            print(f"error: seed {seed}: {exc}", file=sys.stderr)
            continue
        summaries[seed] = reports[-1].summary
        try:
            write_results({seed: reports}, summaries, cfg.output_dir)
        except FairaggError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        del state, reports
    return 0 if len(summaries) == len(cfg.seeds) else 1


# ---------------------------------------------------------------------------
# regret-bench
# ---------------------------------------------------------------------------

# Rounds between rotations of the favored coordinate in synthetic_responses.
_ROTATION_BLOCK = 50


def synthetic_responses(k: int, rounds: int, c2: float, seed: int) -> np.ndarray:
    """Bounded response sequence whose favored coordinate rotates per block.

    Rotation keeps the sequence from being trivially stationary, which is the
    interesting regime for regret accounting.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    try:
        responses = rng.uniform(0.0, 0.5 * c2, size=(rounds, k))
    except (MemoryError, ValueError) as exc:
        raise DomainError(f"cannot allocate {rounds} rounds of {k} client responses: {exc}") from exc
    for t in range(rounds):
        favored = (t // _ROTATION_BLOCK) % k
        responses[t, favored] = rng.uniform(0.5 * c2, c2)
    return responses


def sequence_regret(kind: MethodKind, responses: np.ndarray, c2: float) -> float:
    """Cumulative regret of an adaptive method on a full-information log.
    A closed-form baseline has no optimizer and raises DomainError."""
    rounds, k = responses.shape
    optimizer = optimizer_init(kind, k, ResponseBounds(0.0, c2), 1.0)
    if optimizer is None:
        raise DomainError(f"{kind} is not an adaptive method")
    decision = uniform_decision(k)
    decisions = []
    for t in range(rounds):
        decisions.append(decision)
        optimizer, decision = optimizer.step(decision_grad(decision, responses[t]))
    regret, _ = cumulative_regret(decisions, list(responses))
    return regret


def cmd_regret_bench(args: argparse.Namespace) -> int:
    k = args.clients
    c2 = 1.0 / k
    l_inf = lipschitz_constants(ResponseBounds(0.0, c2), 1.0).l_inf
    lines = ["method,T,regret,bound"]
    ok = True
    try:
        for horizon in args.rounds:
            responses = synthetic_responses(k, horizon, c2, args.seed)
            for kind in (MethodKind.AAGGFF_S, MethodKind.AAGGFF_D):
                regret = sequence_regret(kind, responses, c2)
                bound = regret_envelope(kind, k, horizon, l_inf)
                passed = regret <= bound
                ok = ok and passed
                print(
                    f"{kind.value}  T={horizon:<6d} regret={regret:.6f}  "
                    f"bound={bound:.6f}  {'PASS' if passed else 'FAIL'}"
                )
                lines.append(f"{kind.value},{horizon},{_fmt(regret)},{_fmt(bound)}")
    except FairaggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        out = Path(args.output)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "regret_bench.csv").write_text("\n".join(lines) + "\n")
        except OSError as exc:
            print(f"error: failed writing results under {out}: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.seeds is not None:
            items = args.seeds.split(",")
            try:
                # Digits only, as JSON reads them: int() also takes signs, "_" and spaces.
                if not all(s.isascii() and s.isdigit() for s in items):
                    raise ValueError
                cfg.seeds = [int(s) for s in items]
            except ValueError:
                raise ConfigError("--seeds must be a comma-separated integer list") from None
            validate_config(cfg)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is not None:
        cfg.output_dir = args.output
    return run_experiment(cfg, threads=args.threads)


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)


def _positive_ints(text: str) -> list[int]:
    """argparse type: a comma-separated list of integers >= 1."""
    return [_positive_int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairagg",
        description="Fairness-aware federated aggregation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--output", default=None, help="output directory override")
    p_run.add_argument("--seeds", default=None, help="comma-separated seed list override")
    p_run.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted for compatibility; clients train in one thread and "
                            "the value never affects results")
    p_run.set_defaults(handler=cmd_run)

    p_bench = sub.add_parser("regret-bench",
                             help="check adaptive methods against regret bounds")
    p_bench.add_argument("--rounds", type=_positive_ints, default="100,500,2000",
                         help="comma-separated horizons")
    p_bench.add_argument("--clients", type=_positive_int, default=8)
    p_bench.add_argument("--seed", type=_int_at_least(0), default=0)
    p_bench.add_argument("--output", default=None, help="optional CSV output directory")
    p_bench.set_defaults(handler=cmd_regret_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
