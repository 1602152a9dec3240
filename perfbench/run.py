"""fairagg benchmark: four workloads, end-to-end timings and a traced breakdown.

    python3 perfbench/run.py --workload cross_silo --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` repeats the workload's simulations for ``--seconds`` with
tracing off and reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of
simulations, sized from ``--seconds``, once untraced and once traced, and
reports the per-layer metrics.  Every run checks outputs; the last line of
standard output is one JSON object, and the exit code is 0 only if every
check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The keys of workloads.WORKLOADS, which cannot be imported before the check
# that the fairagg sources are present.
WORKLOAD_NAMES = ("cross_silo", "cross_device", "mlp_silo", "regret_stream")

# Cold set-ups timed per untraced run.
SETUP_PROBES = 6
# Fewest times every timed round is repeated.
MIN_PASSES = 3

# Simulations per second of --seconds in a traced run, each done twice
# (untraced and traced).  The count is fixed so that counts repeat exactly;
# these rates make a traced run last about --seconds on a 2-vCPU host.
TRACE_SIMS_PER_SECOND = {
    "cross_silo": 0.24,
    "cross_device": 0.56,
    "mlp_silo": 0.48,
    "regret_stream": 1.2,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> float:
    """One cold set-up in a fresh interpreter; raises if the probe fails."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_run(wl, seed: int, seconds: int, out: Path, sim_seed):
    """Repeat the workload's fixed set of simulations until ``seconds`` pass.

    The simulations run round-robin, at least MIN_PASSES times each, so every
    round is timed several times spread over the run.  One cold set-up is
    timed after each of the first passes.
    """
    seeds = [sim_seed(seed, i) for i in range(wl.timed_sims)]
    setup_probe(wl.name, seed)  # fills the bytecode cache; not timed
    passes, setup = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append([wl.simulate(s, out / f"sim{i}") for i, s in enumerate(seeds)])
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(wl.name, seed))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(wl.name, seed))
    return passes, setup


def repeat_errors(passes) -> list[str]:
    """A simulation repeated on the same seed must give the same outputs."""
    errors = []
    for later in passes[1:]:
        for a, b in zip(passes[0], later):
            if a.finals != b.finals or a.summary_csv != b.summary_csv:
                errors.append(f"seed {a.seed}: a repeated simulation gave other outputs")
    return errors


def end_to_end(passes, setup: list[float]) -> tuple[dict, dict]:
    """Each round's median over its repeats, then statistics over rounds.

    On a shared 2-vCPU host, speed changes by up to 2x in phases of seconds
    to minutes.  A round repeated many times across the run has a median
    that reads the run's typical host state; on ten seeds of every workload
    this was steadier than a single pass, the best repeat or an upper
    quartile.
    """
    complete = [
        np.concatenate([s.round_s for s in p]) for p in passes
        if [len(s.round_s) for s in p] == [len(s.round_s) for s in passes[0]]
    ]
    per_round = np.median(np.array(complete), axis=0)
    p50, p95 = np.percentile(per_round, [50, 95])
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "rounds_per_s": metric(per_round.size / float(per_round.sum()), "1/s"),
        "round_p50_ms": metric(1000.0 * float(p50), "ms"),
        "round_p95_ms": metric(1000.0 * float(p95), "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    samples = {
        "distinct_rounds": per_round.size,
        "rounds_beyond_p95": int((per_round > p95).sum()),
        "repeats_per_round": len(complete),
        "simulations": len(passes[0]),
        "setup_probes": len(setup),
    }
    return metrics, samples


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced_run(wl, seed: int, seconds: int, out: Path, sim_seed, Tracer):
    """The same simulations untraced and traced, alternating per simulation."""
    count = max(1, round(seconds * TRACE_SIMS_PER_SECOND[wl.name]))
    tracer = Tracer()
    plain, traced = [], []
    for i in range(count):
        plain.append(wl.simulate(sim_seed(seed, i), out / "untraced" / f"sim{i}"))
        with tracer:
            traced.append(wl.simulate(sim_seed(seed, i), out / "traced" / f"sim{i}", tracer))
    return tracer, plain, traced


def per_layer(spans: dict, rows: dict, plain, traced) -> dict:

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def layer_self(prefix):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix + "."))

    round_s = get("bench.round", "incl_s")

    def share(*names):
        inside = sum(get(n, "incl_s") for n in names)
        return metric(100.0 * inside / round_s if round_s else 0.0, "%")

    step_names = ("aggregator.baseline_coefficients", "aggregator.aaggff_s_step",
                  "aggregator.aaggff_d_step")
    lg_calls = get("modeldata.loss_and_grad", "calls")
    plain_s = sum(t for s in plain for t in s.round_s)
    traced_s = sum(t for s in traced for t in s.round_s)
    return {
        "fedsim.run_round.self_s": metric(get("fedsim.run_round", "self_s"), "s"),
        "fedsim.sample_clients.busy_s": metric(get("fedsim.sample_clients", "self_s"), "s"),
        "fedsim.client_update.busy_s": metric(get("fedsim.client_update", "self_s"), "s"),
        "fedsim.client_update.calls": metric(get("fedsim.client_update", "calls"), "count"),
        "fedsim.client_update.dropped": metric(get("fedsim.client_update", "failed"), "count"),
        "fedsim.client_update.share": share("fedsim.client_update"),
        "fedsim.server_apply.busy_s": metric(get("fedsim.server_apply", "self_s"), "s"),
        "modeldata.loss_and_grad.busy_s": metric(get("modeldata.loss_and_grad", "self_s"), "s"),
        "modeldata.loss_and_grad.calls": metric(lg_calls, "count"),
        "modeldata.loss_and_grad.rows_per_call": metric(
            rows.get("modeldata.loss_and_grad", 0) / lg_calls if lg_calls else 0.0,
            "rows"),
        "modeldata.accuracy.busy_s": metric(get("modeldata.accuracy", "self_s"), "s"),
        "modeldata.accuracy.calls": metric(get("modeldata.accuracy", "calls"), "count"),
        "modeldata.accuracy.share": share("modeldata.accuracy"),
        "modeldata.make_synthetic.busy_s": metric(get("modeldata.make_synthetic", "self_s"), "s"),
        "modeldata.partition.busy_s": metric(get("modeldata.partition", "self_s"), "s"),
        "response.transform_losses.busy_s": metric(
            get("response.transform_losses", "self_s"), "s"),
        "decision.busy_s": metric(layer_self("decision"), "s"),
        "aggregator.step.busy_s": metric(sum(get(n, "self_s") for n in step_names), "s"),
        "aggregator.step.calls": metric(sum(get(n, "calls") for n in step_names), "count"),
        "aggregator.step.share": share(*step_names),
        "aggregator.normalize_selected.busy_s": metric(
            get("aggregator.normalize_selected", "self_s"), "s"),
        "simplex.busy_s": metric(layer_self("simplex"), "s"),
        "simplex.project_generalized.busy_s": metric(
            get("simplex.project_generalized", "self_s"), "s"),
        "simplex.project_generalized.calls": metric(
            get("simplex.project_generalized", "calls"), "count"),
        "simplex.minimize_over_simplex.calls": metric(
            get("simplex.minimize_over_simplex", "calls"), "count"),
        "simplex.project_to_simplex.calls": metric(
            get("simplex.project_to_simplex", "calls"), "count"),
        "metrics.performance_summary.busy_s": metric(
            get("metrics.performance_summary", "self_s"), "s"),
        "metrics.cumulative_regret.busy_s": metric(
            get("metrics.cumulative_regret", "self_s"), "s"),
        "cli.build_state.busy_s": metric(get("cli.build_state", "self_s"), "s"),
        "cli.write_results.busy_s": metric(get("cli.write_results", "self_s"), "s"),
        "trace.rounds": metric(get("bench.round", "calls"), "count"),
        "trace.round_s": metric(round_s, "s"),
        "trace.overhead": metric(traced_s / plain_s if plain_s else 0.0, "ratio"),
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def reference_errors(wl, ref: dict, result) -> list[str]:
    """Compare a reference simulation's final values with the recorded ones."""
    errors = []
    tolerance = ref["tolerance"]
    for method, expected in ref["finals"].items():
        got = result.finals.get(method)
        if got is None:
            errors.append(f"reference {wl.name}/{method}: no final values")
            continue
        for key, want in expected.items():
            if abs(got[key] - want) > tolerance[key]:
                errors.append(
                    f"reference {wl.name}/{method}: {key} {got[key]:.6g} differs from "
                    f"recorded {want:.6g} by more than {tolerance[key]:g}"
                )
    return errors


def trace_errors(plain, traced) -> list[str]:
    """Tracing must change no result byte."""
    errors = []
    for a, b in zip(plain, traced):
        if a.summary_csv != b.summary_csv or a.finals != b.finals:
            errors.append(f"seed {a.seed}: traced and untraced results differ")
    return errors


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    # Timed before fairagg is imported, so it measures only the host.
    from envrecord import calibrate, environment

    calibration_s = calibrate()
    sys.path.insert(1, str(SRC))
    import fairagg
    from layers import Tracer
    from workloads import WORKLOADS, sim_seed

    if Path(fairagg.__file__).resolve().parent != SRC / "fairagg":
        print(f"error: fairagg imported from {fairagg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)

    errors: list[str] = []
    samples: dict = {}
    if args.trace == 0:
        try:
            passes, setup = timed_run(wl, args.seed, args.seconds, out, sim_seed)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"error: set-up probe failed: {exc!r}", file=sys.stderr)
            return 1
        metrics, samples = end_to_end(passes, setup)
        errors += repeat_errors(passes)
        sims = [s for p in passes for s in p]
    else:
        tracer, plain, traced = traced_run(wl, args.seed, args.seconds, out, sim_seed, Tracer)
        spans = tracer.summary()
        metrics = per_layer(spans, tracer.rows, plain, traced)
        errors += trace_errors(plain, traced)
        errors += [f"layer wrapper {name} recorded no calls"
                   for name in wl.expected_layers if spans.get(name, {}).get("calls", 0) == 0]
        tracer.write(out / "spans.csv.gz")
        sims = plain + traced

    quality = {}
    for method in wl.methods:
        finals = [s.finals[method] for s in sims if method in s.finals]
        for key in ("average", "worst10", "regret_to_bound"):
            values = [f[key] for f in finals if key in f]
            if values:
                agg = max if key == "regret_to_bound" else statistics.fmean
                quality[f"{method}.{key}"] = agg(values)

    # Each failed run-level check counts as one more failed operation.
    ref_sim = wl.simulate(reference["seed"], out / "reference")
    ref_problems = reference_errors(wl, reference, ref_sim)
    attempted = len(errors) + (1 if ref_problems else 0)
    failed = attempted
    errors += ref_problems
    for s in sims + [ref_sim]:
        attempted += s.attempted
        failed += s.failed
        errors += s.errors

    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(ROOT, args.seed),
        "calibration_s": calibration_s,
        "samples": samples,
        "quality": quality,
        "wait_metrics": "none: one process runs every layer serially",
        "errors": errors,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, m in metrics.items():
        extra = ""
        if name in ("round_p50_ms", "round_p95_ms", "rounds_per_s"):
            extra = (f"  (n={samples['distinct_rounds']} rounds, each the median of "
                     f"{samples['repeats_per_round']} repeats)")
        print(f"{wl.name:14s} {name:40s} {m['value']:14.6g} {m['unit']}{extra}")
    for key, value in quality.items():
        print(f"{wl.name:14s} quality {key:32s} {value:14.6g}")
    for e in errors[:20]:
        print(f"FAILED: {e}")
    print(f"calibration_s {calibration_s:.6f}  record {OUT / (wl.name + '_trace%d.json' % args.trace)}")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            print(done.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairagg" / "__init__.py").is_file():
        print(f"error: no fairagg sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
