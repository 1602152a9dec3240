"""Config parsing, CSV persistence, and CLI entry-point tests."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

import fairagg
from fairagg import cli
from fairagg.aggregator import AggregatorMethod, MethodKind
from fairagg.cli import (
    ROUNDS_HEADER,
    SUMMARY_HEADER,
    ExperimentConfig,
    _fmt,
    build_state,
    main,
    parse_config,
    resolve_bounds,
    resolve_cdf,
    run_experiment,
    sequence_regret,
    synthetic_responses,
    validate_config,
    write_results,
)
from fairagg.errors import ConfigError, DomainError
from fairagg.fedsim import ServerOptKind
from fairagg.modeldata import ModelKind, ModelSpec, PartitionScheme, PartitionSpec
from fairagg.response import CdfFamily, CdfKind, ResponseBounds

MINIMAL = '{"K": 10, "T": 50, "method": "Static"}'


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert (cfg.K, cfg.T, cfg.method) == (10, 50, "Static")
    assert cfg.C == 1.0
    assert cfg.B == 20
    assert cfg.E == 1
    assert cfg.seeds == [0]
    assert cfg.partition == "IID"
    bounds = resolve_bounds(cfg)
    assert (bounds.c1, bounds.c2) == (0.0, pytest.approx(0.1))
    assert resolve_cdf(cfg).family is CdfFamily.NORMAL


def test_cross_device_bounds_and_default_cdf():
    cfg = parse_config(
        '{"K": 100, "T": 5, "method": "AAggFFD", "C": 0.01, "bounds_mode": "CrossDevice"}'
    )
    bounds = resolve_bounds(cfg)
    assert (bounds.c1, bounds.c2) == (0.0, pytest.approx(0.01))
    assert resolve_cdf(cfg).family is CdfFamily.WEIBULL


def test_explicit_bounds_require_both_endpoints():
    with pytest.raises(ConfigError, match="c1"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "bounds_mode": "Explicit"}')
    cfg = parse_config(
        '{"K": 4, "T": 5, "method": "Static", "bounds_mode": "Explicit",'
        ' "c1": 0.1, "c2": 0.4}'
    )
    bounds = resolve_bounds(cfg)
    assert (bounds.c1, bounds.c2) == (0.1, 0.4)


def test_exponential_cdf_ignores_shape():
    cfg = parse_config(
        '{"K": 4, "T": 5, "method": "Static", "cdf": "Exponential", "cdf_shape": 2.0}'
    )
    kind = resolve_cdf(cfg)
    assert kind.family is CdfFamily.EXPONENTIAL
    assert kind.shape is None


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "learning_rate": 0.1}')


def test_missing_required_keys_are_named():
    with pytest.raises(ConfigError, match="T, method"):
        parse_config('{"K": 4}')


def test_bad_json_and_non_object_rejected():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{K: 4}")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1, 2]")


def test_type_violations_rejected():
    with pytest.raises(ConfigError, match="'K'"):
        parse_config('{"K": "ten", "T": 5, "method": "Static"}')
    with pytest.raises(ConfigError, match="'K'"):
        parse_config('{"K": true, "T": 5, "method": "Static"}')
    with pytest.raises(ConfigError, match="'lr'"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "lr": "fast"}')


def test_enum_violations_rejected():
    with pytest.raises(ConfigError, match="'method'"):
        parse_config('{"K": 4, "T": 5, "method": "FancyNew"}')
    with pytest.raises(ConfigError, match="'partition'"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "partition": "Sharded"}')


def test_seed_list_violations_rejected():
    with pytest.raises(ConfigError, match="seeds"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "seeds": []}')
    with pytest.raises(ConfigError, match="seeds"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "seeds": [1, "two"]}')
    with pytest.raises(ConfigError, match="seeds"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "seeds": [true]}')


def test_negative_seeds_rejected():
    with pytest.raises(ConfigError, match="seeds"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "seeds": [3, -1]}')


def test_duplicate_seeds_rejected():
    with pytest.raises(ConfigError, match="seeds"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "seeds": [1, 2, 1]}')


def type_error(field, value):
    """parse_config's message rejecting ``value`` as the type of ``field``, or None."""
    doc = {"K": 4, "T": 5, "method": "Static", field.name: value}
    try:
        parse_config(json.dumps(doc))
    except ConfigError as exc:
        if f"config key '{field.name}' must be {field.type}," in str(exc):
            return str(exc)
    return None


@pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
def test_config_key_types_follow_the_dataclass(field):
    hint = get_type_hints(ExperimentConfig)[field.name]
    nullable = type(None) in get_args(hint)
    assert (type_error(field, None) is None) == nullable
    assert type_error(field, True) is not None
    base = get_args(hint)[0] if nullable else hint
    if base is float:
        assert type_error(field, 4) is None
    if base is int:
        assert type_error(field, 4.5) is not None


def test_range_violations_rejected():
    with pytest.raises(ConfigError, match="'C'"):
        parse_config('{"K": 4, "T": 5, "method": "Static", "C": 0.0}')
    with pytest.raises(ConfigError, match="'K' and 'T'"):
        parse_config('{"K": 0, "T": 5, "method": "Static"}')
    with pytest.raises(ConfigError, match="'q'"):
        parse_config('{"K": 4, "T": 5, "method": "QFedAvg", "q": -1.0}')
    with pytest.raises(ConfigError, match="'tilt'"):
        parse_config('{"K": 4, "T": 5, "method": "TERM", "tilt": 0.0}')


@pytest.mark.parametrize("value", [0.0, -0.5, 1.000001, 2.0, 1e200])
def test_lr_decay_must_lie_in_the_unit_interval(value):
    # A decay above 1 grows the step size until lr_decay ** k overflows.
    with pytest.raises(ConfigError, match="config key 'lr_decay' must lie in \\(0, 1\\]"):
        parse_config(json.dumps({"K": 4, "T": 5, "method": "Static", "lr_decay": value}))
    assert parse_config('{"K": 4, "T": 5, "method": "Static", "lr_decay": 1.0}').lr_decay == 1.0


@pytest.mark.parametrize(
    "extra, key",
    [
        ('"method": "QFedAvg", "q": NaN', "q"),
        ('"method": "TERM", "tilt": 1e400', "tilt"),
        ('"method": "Static", "partition": "Dirichlet", "alpha": NaN', "alpha"),
        ('"method": "AAggFFS", "cdf_scale": NaN', "cdf_scale"),
        ('"method": "Static", "lr": Infinity', "lr"),
        ('"method": "Static", "server_lr": 1' + "0" * 400, "server_lr"),
    ],
    ids=["q", "tilt", "alpha", "cdf_scale", "lr", "server_lr"],
)
def test_non_finite_floats_rejected(extra, key):
    # json reads NaN, Infinity and an overflowing 1e400 as non-finite floats;
    # a 401-digit integer overflows the first float operation.
    with pytest.raises(ConfigError, match=f"config key '{key}' must be float, got "):
        parse_config('{"K": 4, "T": 5, ' + extra + "}")


@pytest.mark.parametrize(
    "key, value",
    [("K", 10**400), ("T", -(10**400)), ("num_samples", 10**400), ("seeds", [0, 10**400])],
    ids=["K", "T", "num_samples", "seeds"],
)
def test_integers_past_the_float_range_rejected(key, value):
    # 1 / K overflows for a 401-digit K; no key takes an integer a float cannot hold.
    with pytest.raises(ConfigError, match=f"config key '{key}' must be "):
        parse_config(json.dumps({"K": 4, "T": 5, "method": "Static", key: value}))


@pytest.mark.parametrize(
    "key, value",
    [("K", 2**63), ("num_samples", 10**300), ("B", 2**63), ("seeds", [0, 2**63])],
    ids=["K", "num_samples", "B", "seeds"],
)
def test_integer_keys_fit_int64(key, value):
    # numpy sizes arrays and seeds with int64: a num_samples of 10**300 would
    # overflow in the first split and a 300-digit seed would not fit a file name.
    with pytest.raises(ConfigError, match=f"config key '{key}' must be "):
        parse_config(json.dumps({"K": 4, "T": 5, "method": "Static", key: value}))
    largest = parse_config('{"K": 4, "T": 5, "method": "Static", "seeds": [9223372036854775807]}')
    assert largest.seeds == [2**63 - 1]


@pytest.mark.parametrize(
    "key, value",
    [("method", "Nope"), ("K", "4"), ("seeds", [True]), ("partition", None)],
    ids=["method", "K", "seeds", "partition"],
)
def test_a_config_built_in_code_meets_the_same_gate(key, value):
    body = {"K": 4, "T": 5, "method": "Static", key: value}
    with pytest.raises(ConfigError, match=f"config key '{key}' must be ") as built:
        validate_config(ExperimentConfig(**body))
    with pytest.raises(ConfigError) as parsed:
        parse_config(json.dumps(body))
    assert str(built.value) == str(parsed.value)


def test_an_integer_too_long_to_read_is_a_config_error():
    # Python caps int() at 4300 digits by default, and json reads integers with it.
    with pytest.raises(ConfigError):
        parse_config('{"K": 1' + "0" * 5000 + ', "T": 5, "method": "Static"}')


@pytest.mark.parametrize(
    "extra, name",
    [
        ({"beta1": 1.0}, "beta1"),
        ({"beta2": -0.1}, "beta2"),
        ({"tau": 0.0}, "tau"),
        ({"partition": "Dirichlet", "alpha": 0.0}, "alpha"),
        ({"partition": "Pathological", "classes_per_client": 0}, "classes_per_client"),
        ({"cdf_scale": 0.0}, "scale"),
        ({"cdf": "Weibull", "cdf_shape": -2.0}, "shape"),
        ({"bounds_mode": "Explicit", "c1": 0.2, "c2": 0.2}, "c1"),
        ({"input_dim": 0}, "input_dim"),
        ({"num_classes": 1}, "num_classes"),
        ({"model": "MLP", "hidden": 0}, "hidden"),
        ({"method": "QFedAvg", "q": -0.5}, "q"),
        ({"method": "TERM", "tilt": -1.0}, "tilt"),
    ],
    ids=["beta1", "beta2", "tau", "alpha", "classes_per_client", "cdf_scale", "cdf_shape",
         "c1_not_below_c2", "input_dim", "num_classes", "hidden", "q", "tilt"],
)
def test_library_ranges_are_checked_at_parse(extra, name):
    # Each value is checked by the library type that holds it, once, at parse
    # time; the message names that type's parameter.
    with pytest.raises(ConfigError, match=f"config rejected: .*'{name}'"):
        parse_config(json.dumps({"K": 4, "T": 5, "method": "Static", **extra}))


# Every key a library type holds, at a valid value other than its default.
LIBRARY_KEYS = dict(
    K=6, T=3, method="TERM", C=0.5, B=7, E=2, lr=0.05, lr_decay=0.9, decay_step=4,
    prox_mu=0.01, weight_decay=0.02, q=2.0, tilt=0.5, loss_ceiling=4.0, cdf="Gumbel",
    cdf_scale=1.5, cdf_shape=0.7, bounds_mode="Explicit", c1=0.01, c2=0.3,
    partition="Pathological", alpha=0.3, classes_per_client=3, model="MLP", input_dim=3,
    num_classes=4, hidden=5, num_samples=300, server_opt="Adam", server_lr=0.2, beta1=0.8,
    beta2=0.95, tau=0.01,
)


def test_validation_makes_no_data_or_model(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("validation must not touch data or a model")

    for name in ("make_synthetic", "partition", "init_params"):
        monkeypatch.setattr(cli, name, forbidden)
    assert parse_config(json.dumps(LIBRARY_KEYS)).hidden == 5


def test_build_state_wires_every_library_value(monkeypatch):
    handed = []
    real = cli.partition

    def spy(dataset, spec):
        handed.append(spec)
        return real(dataset, spec)

    monkeypatch.setattr(cli, "partition", spy)
    state = build_state(parse_config(json.dumps(LIBRARY_KEYS)), seed=5)
    assert handed == [PartitionSpec(PartitionScheme.PATHOLOGICAL, k=6, seed=5, alpha=0.3,
                                    classes_per_client=3)]
    assert state.model_spec == ModelSpec(ModelKind.MLP, input_dim=3, num_classes=4, hidden=5)
    assert state.method == AggregatorMethod(MethodKind.TERM, q=2.0, tilt=0.5, loss_ceiling=4.0)
    assert state.cdf == CdfKind(CdfFamily.GUMBEL, scale=1.5, shape=0.7)
    assert state.bounds == ResponseBounds(0.01, 0.3)
    server = state.server_opt
    assert (server.kind, server.lr, server.beta1, server.beta2, server.tau) == (
        ServerOptKind.ADAM, 0.2, 0.8, 0.95, 0.01
    )
    scalars = (state.master_seed, state.sampling_c, state.epochs, state.batch_size, state.lr,
               state.lr_decay, state.decay_step, state.prox_mu, state.weight_decay)
    assert scalars == (5, 0.5, 2, 7, 0.05, 0.9, 4, 0.01, 0.02)
    assert (state.k, len(state.pool)) == (6, 300)
    assert state.params.shape == (state.model_spec.param_length,)


# ---------------------------------------------------------------------------
# float formatting
# ---------------------------------------------------------------------------

def test_floats_carry_12_significant_digits():
    assert _fmt(1.0 / 3.0) == "0.333333333333"
    assert _fmt(1.0) == "1"
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = float(rng.uniform(-10, 10)) * 10.0 ** int(rng.integers(-8, 9))
        back = float(_fmt(x))
        assert back == pytest.approx(x, rel=1e-11)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def small_config(tmp_path, **extra):
    body = {
        "K": 3, "T": 2, "method": "Static", "num_samples": 60,
        "output_dir": str(tmp_path / "out"),
    }
    body.update(extra)
    return parse_config(json.dumps(body))


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = small_config(tmp_path)
    assert run_experiment(cfg) == 0
    out = tmp_path / "out"
    rounds = (out / "rounds_seed0.csv").read_text().splitlines()
    assert rounds[0] == ROUNDS_HEADER
    assert len(rounds) == 3  # header + T rows
    first = rounds[1].split(",")
    assert first[0] == "0"
    assert first[1] == "0;1;2"
    decision = [float(x) for x in first[4].split(";")]
    assert sum(decision) == pytest.approx(1.0)

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == SUMMARY_HEADER
    assert [row.split(",")[0] for row in summary[1:]] == ["0", "mean", "std"]


def test_run_experiment_one_file_per_seed(tmp_path):
    cfg = small_config(tmp_path, seeds=[0, 7])
    assert run_experiment(cfg) == 0
    out = tmp_path / "out"
    assert (out / "rounds_seed0.csv").exists()
    assert (out / "rounds_seed7.csv").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in summary[1:]] == ["0", "7", "mean", "std"]


def test_a_failing_seed_leaves_the_other_seeds_written(tmp_path, capsys):
    # At this learning rate seeds 1 and 2 end in a DivergenceError (in rounds
    # 5 and 1) while seed 0 completes.
    drop = dict(K=8, T=6, C=0.5, method="AAggFFD", lr=1e307, num_classes=3, B=10,
                partition="Dirichlet", alpha=0.1, num_samples=400)
    assert run_experiment(small_config(tmp_path, seeds=[0, 1, 2], **drop)) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == [
        "error: seed 1: every sampled client diverged in round 5",
        "error: seed 2: every sampled client diverged in round 1",
    ]
    out = tmp_path / "out"
    assert sorted(path.name for path in out.iterdir()) == ["rounds_seed0.csv", "summary.csv"]
    alone = small_config(tmp_path, seeds=[0], output_dir=str(tmp_path / "alone"), **drop)
    assert run_experiment(alone) == 0
    for name in ("rounds_seed0.csv", "summary.csv"):
        assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_each_seed_is_written_once_when_it_finishes(tmp_path, monkeypatch):
    calls = []
    real = cli.write_results

    def spy(reports_by_seed, summaries, out_dir):
        calls.append(({s: len(r) for s, r in reports_by_seed.items()}, sorted(summaries)))
        real(reports_by_seed, summaries, out_dir)

    monkeypatch.setattr(cli, "write_results", spy)
    assert run_experiment(small_config(tmp_path, seeds=[7, 0])) == 0
    assert calls == [({7: 2}, [7]), ({0: 2}, [0, 7])]


def test_an_interrupted_run_keeps_the_seeds_it_finished(tmp_path, monkeypatch):
    real = cli.run_round

    def interrupt(state, t):
        if state.master_seed == 2:
            raise KeyboardInterrupt
        return real(state, t)

    monkeypatch.setattr(cli, "run_round", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(small_config(tmp_path, method="AAggFFS", seeds=[0, 1, 2]))
    monkeypatch.setattr(cli, "run_round", real)
    finished = small_config(tmp_path, method="AAggFFS", seeds=[0, 1],
                            output_dir=str(tmp_path / "finished"))
    assert run_experiment(finished) == 0
    out = tmp_path / "out"
    names = sorted(path.name for path in out.iterdir())
    assert names == ["rounds_seed0.csv", "rounds_seed1.csv", "summary.csv"]
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / "finished" / name).read_bytes()


def test_a_write_failure_ends_the_run_at_once(tmp_path, monkeypatch, capsys):
    built = []
    real = cli.build_state

    def spy(cfg, seed):
        built.append(seed)
        return real(cfg, seed)

    monkeypatch.setattr(cli, "build_state", spy)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert run_experiment(small_config(tmp_path, seeds=[0, 1], output_dir=str(blocker))) == 1
    assert built == [0]
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: failed writing results")


def test_reruns_are_byte_identical(tmp_path):
    cfg_a = small_config(tmp_path, method="AAggFFD", C=0.5, output_dir=str(tmp_path / "a"))
    cfg_b = small_config(tmp_path, method="AAggFFD", C=0.5, output_dir=str(tmp_path / "b"))
    assert run_experiment(cfg_a, threads=1) == 0
    assert run_experiment(cfg_b, threads=3) == 0
    for name in ("rounds_seed0.csv", "summary.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_decision_column_round_trips_at_high_precision(tmp_path):
    cfg = small_config(tmp_path, method="AAggFFD", T=3)
    state = build_state(cfg, seed=0)
    from fairagg.fedsim import run_round

    reports = [run_round(state, t) for t in range(cfg.T)]
    assert run_experiment(cfg) == 0
    rows = (tmp_path / "out" / "rounds_seed0.csv").read_text().splitlines()[1:]
    for report, row in zip(reports, rows):
        parsed = np.array([float(x) for x in row.split(",")[4].split(";")])
        np.testing.assert_allclose(parsed, report.decision, rtol=1e-11)


def test_write_results_with_no_seeds_is_header_only(tmp_path):
    write_results({}, {}, tmp_path / "empty")
    summary = (tmp_path / "empty" / "summary.csv").read_text()
    assert summary == SUMMARY_HEADER + "\n"


def test_unwritable_output_directory_fails_cleanly(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg = small_config(tmp_path, output_dir=str(blocker / "sub"))
    assert run_experiment(cfg) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diagnostics helpers
# ---------------------------------------------------------------------------

def test_synthetic_responses_are_bounded_and_deterministic():
    a = synthetic_responses(5, 120, 0.2, seed=1)
    b = synthetic_responses(5, 120, 0.2, seed=1)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (120, 5)
    assert a.min() >= 0.0 and a.max() <= 0.2
    favored = a[:50, 0]
    assert favored.min() >= 0.1  # rotating favored coordinate draws high


def test_sequence_regret_is_positive_and_sublinear():
    responses = synthetic_responses(4, 400, 0.25, seed=2)
    short = sequence_regret(MethodKind.AAGGFF_D, responses[:100], 0.25)
    long = sequence_regret(MethodKind.AAGGFF_D, responses, 0.25)
    assert short >= 0.0
    assert long / 400.0 < short / 100.0
    with pytest.raises(ValueError):
        sequence_regret("sgd", responses, 0.25)


def test_sequence_regret_rejects_a_baseline_kind():
    # A closed-form baseline has no optimizer to step.
    responses = synthetic_responses(4, 10, 0.25, seed=2)
    with pytest.raises(DomainError):
        sequence_regret(MethodKind.STATIC, responses, 0.25)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_main_run_subcommand(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"K": 3, "T": 2, "method": "AAggFFS", "num_samples": 45})
    )
    code = main([
        "run", "--config", str(config_path),
        "--output", str(tmp_path / "results"),
        "--seeds", "1,2",
        "--threads", "2",
    ])
    assert code == 0
    assert (tmp_path / "results" / "rounds_seed1.csv").exists()
    assert (tmp_path / "results" / "rounds_seed2.csv").exists()


def test_main_run_error_paths(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    good = tmp_path / "good.json"
    good.write_text(MINIMAL)
    assert main(["run", "--config", str(good), "--seeds", "1,zwei"]) == 1
    assert "--seeds" in capsys.readouterr().err


def test_main_run_rejects_a_seed_override_past_int64(tmp_path, capsys):
    # The override meets the same gate as the file, before any seed runs.
    good = tmp_path / "good.json"
    good.write_text('{"K": 2, "T": 1, "method": "Static", "num_samples": 20}')
    out = tmp_path / "results"
    assert main(["run", "--config", str(good), "--output", str(out), "--seeds", "7" * 300]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    with pytest.raises(ConfigError) as parsed:
        parse_config(json.dumps({"K": 2, "T": 1, "method": "Static", "seeds": [int("7" * 300)]}))
    assert errors == [f"error: {parsed.value}"]
    assert not out.exists()


# int() alone reads " +1" as 1, "0_7" as 7 and Arabic-Indic digits; a JSON
# seeds list holds none of them.
@pytest.mark.parametrize("seeds", [" +1,0_7", "1, 2", "+1", "0_7", "\u0661", "1,,2", ""])
def test_main_run_takes_only_digits_as_a_seed_override(tmp_path, capsys, seeds):
    good = tmp_path / "good.json"
    good.write_text('{"K": 2, "T": 1, "method": "Static", "num_samples": 20}')
    out = tmp_path / "results"
    assert main(["run", "--config", str(good), "--output", str(out), "--seeds", seeds]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: --seeds must be a comma-separated integer list"]
    assert not out.exists()


def test_a_dataset_too_large_to_allocate_fails_each_seed_cleanly(tmp_path, capsys):
    # numpy refuses 2**62 samples as too big before allocating anything.
    config_path = tmp_path / "huge.json"
    config_path.write_text(json.dumps({
        "K": 2, "T": 1, "method": "Static", "num_samples": 2**62, "seeds": [0, 1],
    }))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert [line.split(":")[1] for line in errors] == [" seed 0", " seed 1"]
    assert all(f"cannot allocate {2**62} samples" in line for line in errors)
    assert "Traceback" not in err
    assert not out.exists()


def test_main_run_rejects_growing_lr_decay(tmp_path, capsys):
    config_path = tmp_path / "decay.json"
    config_path.write_text(json.dumps({
        "K": 4, "T": 3, "method": "Static", "lr_decay": 1e200, "decay_step": 1,
        "num_samples": 200,
    }))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'lr_decay'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_bad_library_value_fails_once_before_any_seed(tmp_path, capsys):
    config_path = tmp_path / "beta1.json"
    config_path.write_text(json.dumps({
        "K": 4, "T": 2, "method": "Static", "beta1": 1.0, "seeds": [0, 1, 2],
    }))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--output", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "'beta1'" in errors[0]
    assert not out.exists()


def test_main_run_non_utf8_config_fails_cleanly(tmp_path, capsys):
    config_path = tmp_path / "latin1.json"
    config_path.write_bytes(b'{"K": 4, "T": 5, "method": "Static", "cdf": "\xe9"}')
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config:")
    assert "Traceback" not in err


def test_main_run_rejects_non_positive_threads(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(MINIMAL)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--config", str(good), "--threads", "-3"])
    assert excinfo.value.code == 2
    assert "argument --threads" in capsys.readouterr().err


def test_main_run_rejects_negative_seed_override(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(MINIMAL)
    out = tmp_path / "results"
    assert main(["run", "--config", str(good), "--output", str(out), "--seeds", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seeds" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_main_run_rejects_duplicate_seed_override(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(MINIMAL)
    out = tmp_path / "results"
    assert main(["run", "--config", str(good), "--output", str(out), "--seeds", "1,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seeds" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--clients", "0"), ("--rounds", "abc"), ("--rounds", "0"), ("--rounds", "50,-3")]
)
def test_regret_bench_rejects_bad_sizes(flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["regret-bench", flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["regret-bench"])
def test_negative_seed_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "argument --seed" in capsys.readouterr().err


def test_unify_check_is_not_a_command(capsys):
    # The unification is checked by the test suite, not by a subcommand.
    with pytest.raises(SystemExit) as excinfo:
        main(["unify-check"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_regret_bench_horizon_too_large_to_allocate_fails_cleanly(tmp_path, capsys):
    # numpy refuses 10**18 rounds of 8 responses as too big before allocating anything.
    out = tmp_path / "bench"
    code = main([
        "regret-bench", "--rounds", str(10**18), "--clients", "8", "--output", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and f"cannot allocate {10**18} rounds of 8" in errors[0]
    assert "Traceback" not in err
    assert not out.exists()


def test_regret_bench_unwritable_output_fails_cleanly(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main([
        "regret-bench", "--rounds", "20", "--clients", "4",
        "--output", str(blocker / "sub"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# numpy 2's np.unique imports numpy.ma on its first call, some 14 ms of a cold
# start that no command needs.  numpy 1.x loads numpy.ma with numpy itself.
NUMPY_MA_PROBE = """
import json, sys
import numpy
before = "numpy.ma" in sys.modules
from fairagg.cli import main, parse_config, run_experiment
for scheme in ("IID", "Dirichlet", "Pathological"):
    body = {"K": 4, "T": 2, "method": "AAggFFS", "partition": scheme, "output_dir": scheme}
    assert run_experiment(parse_config(json.dumps(body))) == 0
assert main(["regret-bench", "--rounds", "20", "--clients", "4"]) == 0
print(before, "numpy.ma" in sys.modules)
"""


def test_commands_load_numpy_ma_only_with_numpy(tmp_path):
    src = str(Path(fairagg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()[-2:]
    assert after == before


def test_main_regret_bench(tmp_path, capsys):
    code = main([
        "regret-bench", "--rounds", "50,100", "--clients", "6",
        "--output", str(tmp_path / "bench"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    csv_lines = (tmp_path / "bench" / "regret_bench.csv").read_text().splitlines()
    assert csv_lines[0] == "method,T,regret,bound"
    assert len(csv_lines) == 5
    for line in csv_lines[1:]:
        label, horizon, regret, bound = line.split(",")
        assert label in ("AAggFFS", "AAggFFD")
        assert float(regret) <= float(bound)
        assert math.isfinite(float(regret))


def test_regret_bench_single_client_passes(capsys):
    # One client leaves one decision, so the regret is 0 and must meet even
    # AAggFFD's bound, which log K = 0 makes 0 too.
    assert main(["regret-bench", "--clients", "1", "--rounds", "100"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_invalid_explicit_bounds_fail_at_build_time(tmp_path):
    # build_state rejects the bounds by itself, without validate_config.
    cfg = ExperimentConfig(K=3, T=2, method="Static", num_samples=60,
                           output_dir=str(tmp_path / "out"),
                           bounds_mode="Explicit", c1=0.5, c2=0.1)
    with pytest.raises(DomainError):
        build_state(cfg, seed=0)
