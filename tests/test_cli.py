"""Config parsing, CSV persistence, and CLI entry-point tests."""

import json
import math
from dataclasses import fields
from typing import get_args, get_type_hints

import numpy as np
import pytest

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
    write_results,
)
from fairagg.errors import ConfigError, DomainError
from fairagg.response import CdfFamily

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
    short = sequence_regret("ftrl", responses[:100], 0.25)
    long = sequence_regret("ftrl", responses, 0.25)
    assert short >= 0.0
    assert long / 400.0 < short / 100.0
    with pytest.raises(ValueError):
        sequence_regret("sgd", responses, 0.25)


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


@pytest.mark.parametrize("value", ["0", "-5"])
def test_unify_check_rejects_instances_below_one(value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["unify-check", "--instances", value])
    assert excinfo.value.code == 2
    assert "argument --instances" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["regret-bench", "unify-check"])
def test_negative_seed_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "argument --seed" in capsys.readouterr().err


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


def test_main_unify_check(capsys):
    assert main(["unify-check", "--instances", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


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
    cfg = small_config(tmp_path, bounds_mode="Explicit", c1=0.5, c2=0.1)
    with pytest.raises(DomainError):
        build_state(cfg, seed=0)
