"""Benchmark of primespec experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload curves --seed 11 --seconds 30 --trace 0

One run builds the workload's experiment config from ``--seed`` and, for
``--seconds`` seconds (at least three repetitions), repeats the same work:
import primespec afresh, read the config, ``run_experiment``, a JSON round
trip of the report, ``verify_report`` on the reloaded report, and the
workload's known-answer oracle.  Every repetition must reproduce the same
``report_hash``.  Any verification error, hash drift or oracle mismatch
prints ``"correct": false`` without metrics and exits with code 1.

``--trace 0`` reports the end-to-end metrics; no wrapper is installed.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead.  The
spans are written to ``perfbench/out/`` when the run ends.

Timings are medians over the repetitions of one run, each repetition scaled
to a reference host speed by the calibration kernel of ``calibrate.py``;
the values as measured are printed beside them.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
README.md for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import calibrate
from tracing import Tracer, layer_targets
from workloads import WORKLOADS, GateFailure

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

MIN_REPS = 3
VERIFY_REPEATS = 3
VERIFY_MIN_S = 0.1
TAIL_BEYOND = 10
# End-to-end metrics in the result line.  verify_s and inconclusive_share are
# printed only: on curves and points their spread across seeds comes from how
# many samples happen to be not_prime or inconclusive, and inconclusive_share
# is 0 on points and cuts.
GATED = ("samples_per_s", "sample_ms_p50", "sample_ms_tail", "setup_s", "decided_share",
         "peak_rss_mb")


def import_primespec():
    """Import primespec afresh from src/ next to this directory; returns (experiments, seconds)."""
    for name in [n for n in sys.modules if n == "primespec" or n.startswith("primespec.")]:
        del sys.modules[name]
    start = time.perf_counter()
    experiments = importlib.import_module("primespec.experiments")
    seconds = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(experiments.__file__)) != os.path.join(SRC, "primespec"):
        raise SystemExit(f"imported primespec from {experiments.__file__}, not from {SRC}")
    return experiments, seconds


def read_config(experiments, workload, seed):
    with open(workload.config_path, "r", encoding="ascii") as handle:
        text = handle.read()
    # A relative base keeps the ideal path in the report, and so report_hash,
    # the same in every checkout; main() runs from the checkout root.
    return experiments.parse_experiment_config(
        f"{text}\nseed = {seed}\n", os.path.relpath(os.path.dirname(workload.config_path)))


@dataclass
class Rep:
    """Measurements of one repetition, in seconds unless named otherwise."""

    experiment_s: float
    verify_s: float
    setup_s: float
    elapsed_ms: list[float]
    report_hash: str
    inconclusive: int

    def scaled(self, factor: float) -> Rep:
        return Rep(self.experiment_s * factor, self.verify_s * factor, self.setup_s * factor,
                   [ms * factor for ms in self.elapsed_ms], self.report_hash, self.inconclusive)


def time_verify(experiments, report, min_repeats, min_s) -> float:
    """Median seconds of verify_report, repeated until ``min_s`` has passed."""
    times = []
    while len(times) < min_repeats or sum(times) < min_s:
        start = time.perf_counter()
        try:
            experiments.verify_report(report)
        except Exception as exc:  # any failure to replay fails the gate
            raise GateFailure(f"verify_report raised {exc!r}") from exc
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_rep(experiments, workload, seed, import_s, verify_repeats, verify_min_s) -> Rep:
    start = time.perf_counter()
    config = read_config(experiments, workload, seed)
    config_s = time.perf_counter() - start

    start = time.perf_counter()
    report = experiments.run_experiment(config)
    experiment_s = time.perf_counter() - start

    reloaded = json.loads(json.dumps(report, indent=2))
    verify_s = time_verify(experiments, reloaded, verify_repeats, verify_min_s)
    workload.oracle(reloaded, experiments.monomials_upto)

    elapsed = [sample["elapsed_ms"] for sample in reloaded["samples"]]
    return Rep(
        experiment_s=experiment_s,
        verify_s=verify_s,
        setup_s=import_s + config_s + experiment_s - sum(elapsed) / 1000.0,
        elapsed_ms=elapsed,
        report_hash=experiments.report_hash(reloaded),
        inconclusive=reloaded["aggregate"]["inconclusive"],
    )


def read_steal_ticks():
    """Steal ticks of all CPUs from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


class Host:
    """Host speed over the measured loop.

    The calibration kernel runs now and after every repetition; ``factor``
    scales the repetition that just ended.  ``diagnostics`` adds wall time,
    process CPU time and steal ticks, never gated: they tell a slow host
    phase (kernel slow, CPU time still equal to wall time) apart from a
    slow program.
    """

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self.steal = read_steal_ticks()
        self.calibrations = [calibrate.calibration_s()]

    def elapsed(self) -> float:
        return time.perf_counter() - self.wall

    def factor(self) -> float:
        self.calibrations.append(calibrate.calibration_s())
        return calibrate.factor(statistics.mean(self.calibrations[-2:]))

    def diagnostics(self) -> str:
        wall = self.elapsed()
        cpu = time.process_time() - self.cpu
        steal_now = read_steal_ticks()
        steal = "n/a" if None in (steal_now, self.steal) else steal_now - self.steal
        cal = self.calibrations
        return (f"diag wall_s {wall:.3f} cpu_s {cpu:.3f} cpu/wall {cpu / wall:.3f} "
                f"steal_ticks {steal} calibration_s median {statistics.median(cal):.4f} "
                f"min {min(cal):.4f} max {max(cal):.4f} (reference {calibrate.REFERENCE_S})")


def check_same_hash(reps):
    hashes = {rep.report_hash for rep in reps}
    if len(hashes) != 1:
        raise GateFailure(f"repetitions of one config gave {len(hashes)} report hashes")


def metric(value, unit):
    return {"value": value, "unit": unit}


def timing_metrics(reps: list[Rep]) -> dict[str, dict]:
    """Timings over repetitions: medians, and per-sample medians for p50 and tail."""
    per_sample = sorted(statistics.median(times) for times in zip(*(r.elapsed_ms for r in reps)))
    n = len(per_sample)
    return {
        "samples_per_s": metric(n / statistics.median(r.experiment_s for r in reps), "1/s"),
        "sample_ms_p50": metric(statistics.median(per_sample), "ms"),
        "sample_ms_tail": metric(per_sample[n - TAIL_BEYOND - 1], "ms"),
        "setup_s": metric(statistics.median(r.setup_s for r in reps), "s"),
        "verify_s": metric(statistics.median(r.verify_s for r in reps), "s"),
    }


def end_to_end(workload, seed, seconds):
    host = Host()
    raw, scaled = [], []
    while len(raw) < MIN_REPS or host.elapsed() < seconds:
        experiments, import_s = import_primespec()
        rep = run_rep(experiments, workload, seed, import_s, VERIFY_REPEATS, VERIFY_MIN_S)
        raw.append(rep)
        scaled.append(rep.scaled(host.factor()))
        check_same_hash(raw)

    n = len(raw[0].elapsed_ms)
    inconclusive = raw[0].inconclusive
    printed = timing_metrics(scaled)
    printed["decided_share"] = metric(1.0 - inconclusive / n, "share")
    printed["inconclusive_share"] = metric(inconclusive / n, "share")
    printed["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    as_measured = timing_metrics(raw)

    print(f"workload {workload.name} seed {seed} n {n} reps {len(raw)}")
    print(f"report_hash {raw[0].report_hash}")
    print("metric               host-normalized         as measured")
    for name, entry in printed.items():
        measured = f"{as_measured[name]['value']:.6g}" if name in as_measured else ""
        print(f"{name:<20} {entry['value']:<12.6g} {entry['unit']:<10} {measured}")
    print(f"sample_ms_tail is p{100.0 * (n - TAIL_BEYOND) / n:.4g} of {n} samples "
          f"({TAIL_BEYOND} beyond it); {inconclusive} of {n} samples inconclusive")
    print(host.diagnostics())
    return n, inconclusive, {name: printed[name] for name in GATED}


# Span names reported per layer; the metric names use them as prefixes.
LAYERS = (
    "groebner.buchberger",
    "groebner.normal_form",
    "groebner.ideal_dimension",
    "primality.is_prime",
    "primality.minimal_polynomial",
    "factor.factor_univariate",
    "specialize",
    "parse",
    "experiments.run_sample",
    "experiments.verify_report",
)


def layer_metrics(tracer: Tracer, totals, rep: Rep, factor: float) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (as measured); seconds get host-normalized."""
    wall = rep.experiment_s + rep.verify_s
    empty = {"calls": 0, "self_s": 0.0}
    values = {}
    for span in LAYERS:
        entry = totals.get(span, empty)
        values[f"{span}.calls"] = entry["calls"]
        values[f"{span}.self_s"] = entry["self_s"] * factor
        values[f"{span}.self_share"] = entry["self_s"] / wall
    counters = tracer.counters
    prime_calls = values["primality.is_prime.calls"]
    values["groebner.cache_hit_ratio"] = (
        1.0 - values["groebner.buchberger.calls"] / totals["groebner.Ideal.groebner"]["calls"])
    values["primality.decided_ratio"] = counters["is_prime.decided"] / prime_calls
    values["primality.sections_per_call"] = counters["is_prime.sections"] / prime_calls
    values["primality.krylov_dim_mean"] = (counters["minimal_polynomial.krylov_dim"]
                                           / values["primality.minimal_polynomial.calls"])
    values["factor.degree_mean"] = (counters["factor_univariate.degree"]
                                    / values["factor.factor_univariate.calls"])
    values["experiments.verify_report.replays"] = counters["verify_report.replays"]
    values["experiments.outside_samples_s"] = factor * tracer.outside_children(
        "experiments.run_experiment", "experiments.run_sample")
    return values


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "self_share": "share", "replays": "count",
                   "outside_samples_s": "s", "overhead_s": "s", "overhead_share": "share",
                   "sections_per_call": "count", "krylov_dim_mean": "count",
                   "degree_mean": "degree", "cache_hit_ratio": "ratio", "decided_ratio": "ratio"}


def per_layer_unit(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def write_spans(path, workload, seed, tracers):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {"workload": workload.name, "seed": seed,
               "fields": ["name", "start_us", "duration_us", "parent"], "reps": []}
    for tracer in tracers:
        origin = tracer.spans[0][1]
        payload["reps"].append({
            "spans": [[name, round((start - origin) * 1e6, 1), round((end - start) * 1e6, 1),
                       parent] for name, start, end, parent in tracer.spans],
            "counters": dict(tracer.counters),
        })
    with gzip.open(path, "wt", encoding="ascii") as handle:
        json.dump(payload, handle)


def traced(workload, seed, seconds):
    experiments, _ = import_primespec()
    targets = layer_targets(experiments, importlib.import_module("primespec.primality"),
                            importlib.import_module("primespec.groebner"))
    def once():  # one verify_report call, so the traced spans hold exactly one
        return run_rep(experiments, workload, seed, 0.0, 1, 0.0)

    # A warm-up repetition first, so neither side of the overhead pays for
    # cold caches; then pairs whose order alternates.
    warm_up = once()
    host = Host()
    plain, runs = [], []  # runs: (tracer, traced repetition as measured, host factor)
    while len(runs) < MIN_REPS or host.elapsed() < seconds:
        if len(runs) % 2:
            plain.append(once().scaled(host.factor()))
        tracer = Tracer()
        tracer.install(targets)
        try:
            rep = once()
        finally:
            tracer.uninstall()
        runs.append((tracer, rep, host.factor()))
        if len(runs) % 2:
            plain.append(once().scaled(host.factor()))
        check_same_hash([warm_up, rep] + plain)

    totals = [tracer.layer_totals() for tracer, _, _ in runs]
    per_rep = [layer_metrics(tracer, t, rep, factor)
               for t, (tracer, rep, factor) in zip(totals, runs)]
    values = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    untraced_s = statistics.median(r.experiment_s + r.verify_s for r in plain)
    traced_s = statistics.median((r.experiment_s + r.verify_s) * f for _, r, f in runs)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics = {name: metric(value, per_layer_unit(name)) for name, value in values.items()}

    spans_path = os.path.join(OUT, f"{workload.name}-seed{seed}-spans.json.gz")
    write_spans(spans_path, workload, seed, [tracer for tracer, _, _ in runs])

    n = len(rep.elapsed_ms)
    print(f"workload {workload.name} seed {seed} n {n} traced reps {len(runs)}")
    print(f"report_hash {rep.report_hash}")
    print(f"tracing overhead {values['trace.overhead_s']:.4f} s "
          f"({100 * values['trace.overhead_share']:.1f}% of {untraced_s:.4f} s untraced, "
          "host-normalized)")
    print("self time per traced repetition (median), as a share of traced wall time:")
    names = {name for t in totals for name in t}
    rows = {name: (statistics.median(t.get(name, {"self_s": 0.0})["self_s"]
                                     / (r.experiment_s + r.verify_s)
                                     for t, (_, r, _) in zip(totals, runs)),
                   statistics.median(t.get(name, {"calls": 0})["calls"] for t in totals))
            for name in names}
    for name, (share, calls) in sorted(rows.items(), key=lambda item: -item[1][0]):
        print(f"  {name:<32} {100 * share:6.1f}%  {calls:>8g} calls")
    print(f"spans written to {os.path.relpath(spans_path)}")
    print(host.diagnostics())
    return n, rep.inconclusive, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "primespec")):
        print(f"primespec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(os.path.dirname(HERE))
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    measure = traced if args.trace else end_to_end
    try:
        attempted, failed, metrics = measure(workload, seed, args.seconds)
    except GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
