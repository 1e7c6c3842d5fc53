"""Experiment driver: sample specialization points, check verdicts, report.

A sample is *good* when the specialized ideal is certified prime and its
dimension matches the expected fiber dimension; *bad* when it is
certifiably not prime, collapses to the unit ideal, or has the wrong
dimension; *inconclusive* when the probabilistic test cannot decide or a
budget runs out.  Densities are reported both against all samples and
against the decisive ones, always as exact fractions alongside floats.

Each sample stores its point as JSON (``sample_point``); ``specialize_point``
builds the specialized ideal from that point both when the sample runs and
when ``verify_report`` replays it.

Reports are deterministic for a fixed config and seed: every sample owns
an independent random stream derived from (seed, index), so handing the
samples to a process pool in chunks (``workers > 1``) never affects
results.  ``report_hash`` ignores the timestamp and per-sample timings,
which are the only run-dependent fields.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from random import Random

from . import __version__
from .context import context as make_context
from .errors import BudgetExceededError, ConfigError, HypothesisViolationError, PrimespecError
from .groebner import DEFAULT_LIMITS, GBLimits, Ideal, eliminate
from .orders import grevlex
from .parse import parse_ideal_source, parse_polynomial
from .poly import Polynomial, monomials_upto
from .primality import (DEFAULT_BOX_CAP, DEFAULT_BOX_START, DEFAULT_TRIALS,
                        INCONCLUSIVE, NOT_PRIME, PRIME, UNIT_IDEAL, _certificate_error,
                        is_prime)
from .specialize import (generic_form, intersect_generic, specialize_polynomial,
                         specialize_scalar)

SCALAR_SPEC = "ScalarSpec"
GENERIC_INTERSECT = "GenericIntersect"
POLY_SPEC = "PolySpec"
CONSISTENCY = "Consistency"
KINDS = (SCALAR_SPEC, GENERIC_INTERSECT, POLY_SPEC, CONSISTENCY)

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"


def _require_at_least(key: str, value: int, least: int) -> None:
    """Reject a config value below its minimum, naming the config key."""
    if value < least:
        raise ConfigError(f"key {key!r} must be >= {least}, got {value}")


@dataclass(frozen=True)
class Budgets:
    gb_max_pairs: int = 50_000
    gb_max_term_count: int = 200_000
    primality_box_start: int = DEFAULT_BOX_START
    primality_box_cap: int = DEFAULT_BOX_CAP
    sample_timeout_ms: int = 20_000

    def __post_init__(self):
        _require_at_least("gb.max_pairs", self.gb_max_pairs, 1)
        _require_at_least("gb.max_term_count", self.gb_max_term_count, 1)
        _require_at_least("primality.box_start", self.primality_box_start, 1)
        _require_at_least("primality.box_cap", self.primality_box_cap, self.primality_box_start)
        _require_at_least("sample.timeout_ms", self.sample_timeout_ms, 1)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    ideal_path: str
    box: int
    samples: int
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    degrees: tuple[int, ...] = ()
    workers: int = 1
    budgets: Budgets = field(default_factory=Budgets)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        _require_at_least("n", self.samples, 1)
        _require_at_least("H", self.box, 1)
        _require_at_least("trials", self.trials, 1)
        _require_at_least("workers", self.workers, 1)
        if self.kind == GENERIC_INTERSECT and not self.degrees:
            raise ConfigError("GenericIntersect needs a degrees list")


_CONFIG_KEYS = {
    "kind", "ideal", "H", "n", "seed", "trials", "degrees", "workers",
    "gb.max_pairs", "gb.max_term_count",
    "primality.box_start", "primality.box_cap", "sample.timeout_ms",
}


def parse_experiment_config(text: str, base_dir: str = ".") -> ExperimentConfig:
    """Read ``key = value`` lines; unknown keys are errors."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        data[key] = value
    for required in ("kind", "ideal", "H", "n"):
        if required not in data:
            raise ConfigError(f"missing required key {required!r}")

    def as_int(key, default=None):
        if key not in data:
            return default
        try:
            return int(data[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r} must be an integer") from exc

    degrees = ()
    if "degrees" in data:
        try:
            degrees = tuple(int(part) for part in data["degrees"].split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError("degrees must be a comma-separated integer list") from exc
        if any(d < 0 for d in degrees):
            raise ConfigError("degrees must be non-negative")

    budgets = Budgets(
        gb_max_pairs=as_int("gb.max_pairs", Budgets.gb_max_pairs),
        gb_max_term_count=as_int("gb.max_term_count", Budgets.gb_max_term_count),
        primality_box_start=as_int("primality.box_start", Budgets.primality_box_start),
        primality_box_cap=as_int("primality.box_cap", Budgets.primality_box_cap),
        sample_timeout_ms=as_int("sample.timeout_ms", Budgets.sample_timeout_ms),
    )
    return ExperimentConfig(
        kind=data["kind"],
        ideal_path=os.path.normpath(os.path.join(base_dir, data["ideal"])),
        box=as_int("H"),
        samples=as_int("n"),
        seed=as_int("seed", 0),
        trials=as_int("trials", DEFAULT_TRIALS),
        degrees=degrees,
        workers=as_int("workers", 1),
        budgets=budgets,
    )


def read_experiment_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="ascii") as handle:
        return parse_experiment_config(handle.read(), base_dir=os.path.dirname(path) or ".")


# -- sampling -----------------------------------------------------------------


def derive_seed(seed: int, index: int, purpose: str = "sample") -> int:
    """Independent per-sample stream seed, stable across platforms."""
    digest = hashlib.sha256(f"{seed}/{index}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_point(kind: str, ideal: Ideal, degrees, box: int, rng: Random) -> dict:
    """Draw one specialization point, coordinates uniform on [-H, H].

    Returns the point as the report stores it: scalar values, polynomial
    values with their degree bounds, or one coefficient block per cutting
    hypersurface, each number and polynomial as a string.
    """
    ctx = ideal.context
    if kind in (SCALAR_SPEC, CONSISTENCY):
        return {"kind": "scalar", "values": [str(rng.randint(-box, box)) for _ in range(ctx.r)]}
    if kind == POLY_SPEC:
        y_ctx = ctx.without_params()
        supports = [monomials_upto(y_ctx.s, degree) for degree in degrees]
        values = [str(generic_form(y_ctx, support, [rng.randint(-box, box) for _ in support]))
                  for support in supports]
        return {"kind": "poly", "values": values, "degrees": list(degrees)}
    if kind == GENERIC_INTERSECT:
        return {"kind": "lambda",
                "blocks": [[str(rng.randint(-box, box)) for _ in range(math.comb(ctx.s + d, d))]
                           for d in degrees]}
    raise ConfigError(f"unknown experiment kind {kind!r}")


# -- per-sample work ----------------------------------------------------------


_POINT_KINDS = {SCALAR_SPEC: "scalar", CONSISTENCY: "scalar", POLY_SPEC: "poly",
                GENERIC_INTERSECT: "lambda"}


def specialize_point(ideal: Ideal, kind: str, degrees, point: dict) -> Ideal:
    """The specialized ideal at a point in the form ``sample_point`` returns.

    Raises PrimespecError when the point's form does not fit the experiment
    ``kind`` or a polynomial value exceeds its recorded degree bound,
    ValueError on malformed numbers, counts or block sizes, and
    ZeroDivisionError on a zero denominator.
    """
    if point["kind"] != _POINT_KINDS.get(kind):
        raise PrimespecError(f"a {point['kind']!r} point does not fit a {kind} experiment")
    if point["kind"] == "scalar":
        return specialize_scalar(ideal, [Fraction(v) for v in point["values"]])
    if point["kind"] == "poly":
        y_ctx = ideal.context.without_params()
        values = [parse_polynomial(v, y_ctx) for v in point["values"]]
        for value, bound in zip(values, point["degrees"], strict=True):
            if value.total_degree() > bound:
                raise PrimespecError(f"value {value} exceeds its degree bound {bound}")
        return specialize_polynomial(ideal, values)
    return intersect_generic(ideal, degrees,
                             [[Fraction(v) for v in block] for block in point["blocks"]])


def _is_degenerate(kind, point, specialized):
    if kind == GENERIC_INTERSECT:
        return any(all(Fraction(v) == 0 for v in block) for block in point["blocks"])
    return specialized.is_zero


def _consistent(ideal: Ideal, specialized: Ideal, point: dict, limits: GBLimits) -> bool:
    """Scalar specialization equals specialization at the constant polynomials."""
    twin = specialize_polynomial(
        ideal, [Polynomial.constant(specialized.context, Fraction(v)) for v in point["values"]])
    return (specialized.groebner(grevlex, limits).polys
            == twin.groebner(grevlex, limits).polys)


def run_sample(ideal: Ideal, config: ExperimentConfig, expected: int, index: int) -> dict:
    """Process one sample; budget overruns record an inconclusive verdict."""
    rng = Random(derive_seed(config.seed, index))
    point = sample_point(config.kind, ideal, config.degrees, config.box, rng)
    budgets = config.budgets
    start = time.perf_counter()
    limits = GBLimits(budgets.gb_max_pairs, budgets.gb_max_term_count,
                      deadline=time.monotonic() + budgets.sample_timeout_ms / 1000.0)
    record = {
        "index": index,
        "point": point,
        "verdict": INCONCLUSIVE,
        "dimension": None,
        "expected_dimension": expected,
        "certificate": None,
        "elapsed_ms": 0.0,
    }
    try:
        specialized = specialize_point(ideal, config.kind, config.degrees, point)
        if _is_degenerate(config.kind, point, specialized):
            record["degenerate_specialization"] = True
        if config.kind == CONSISTENCY:
            same = _consistent(ideal, specialized, point, limits)
            record["verdict"] = CONSISTENT if same else INCONSISTENT
            record["dimension"] = specialized.dimension(limits)
        else:
            record["dimension"] = specialized.dimension(limits)
            verdict = is_prime(specialized, trials=config.trials,
                               seed=derive_seed(config.seed, index, "prime"),
                               box_start=budgets.primality_box_start,
                               box_cap=budgets.primality_box_cap, limits=limits)
            record["verdict"] = verdict.status
            if verdict.certificate is not None:
                f, g = verdict.certificate
                record["certificate"] = {"f": str(f), "g": str(g)}
            if verdict.status == INCONCLUSIVE and verdict.reason:
                record["reason"] = verdict.reason
    except BudgetExceededError as exc:
        record["verdict"] = INCONCLUSIVE
        record["reason"] = f"budget: {exc}"
    record["elapsed_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    return record


def classify(record) -> str:
    verdict = record["verdict"]
    if verdict == CONSISTENT:
        return "good"
    if verdict == INCONSISTENT:
        return "bad"
    if verdict == INCONCLUSIVE:
        return "inconclusive"
    if verdict == PRIME and record["dimension"] == record["expected_dimension"]:
        return "good"
    if verdict in (PRIME, NOT_PRIME, UNIT_IDEAL):
        return "bad"
    raise PrimespecError(f"sample {record['index']}: unknown verdict {verdict!r}")


def _aggregate(records) -> dict:
    """The report's tally of sample classes and its densities of good samples."""
    counts = {"good": 0, "bad": 0, "inconclusive": 0}
    for record in records:
        counts[classify(record)] += 1
    n = len(records)
    decisive = counts["good"] + counts["bad"]
    return {
        **counts,
        "density_exact": str(Fraction(counts["good"], n)),
        "density_float": counts["good"] / n,
        "decisive_density_exact": str(Fraction(counts["good"], decisive)) if decisive else None,
        "decisive_density_float": counts["good"] / decisive if decisive else None,
    }


# -- the experiment -----------------------------------------------------------


def _baseline(ideal: Ideal, config: ExperimentConfig, limits: GBLimits) -> int:
    """Hypothesis gate plus the expected dimension of good specializations."""
    ctx = ideal.context
    if config.kind in (SCALAR_SPEC, POLY_SPEC, CONSISTENCY):
        if ctx.r == 0:
            raise ConfigError(f"{config.kind} requires a params: block in the ideal file")
        if config.kind == POLY_SPEC and len(config.degrees) != ctx.r:
            raise ConfigError(f"PolySpec needs {ctx.r} degrees, got {len(config.degrees)}")
        meet = eliminate(ideal, ctx.param_names, limits)
        if not meet.is_zero:
            raise HypothesisViolationError(meet.generators[0])
        return ideal.dimension(limits) - ctx.r
    if ctx.r:
        raise ConfigError("GenericIntersect expects an ideal without parameters")
    d = ideal.dimension(limits)
    rho = len(config.degrees)
    if not 0 < rho <= d:
        raise ConfigError(f"need 0 < rho <= dim = {d}, got rho = {rho}")
    return d - rho


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all samples and assemble the report dictionary."""
    with open(config.ideal_path, "r", encoding="ascii") as handle:
        ideal_text = handle.read()
    ctx, gens = parse_ideal_source(ideal_text)
    ideal = Ideal(ctx, gens)
    limits = GBLimits(config.budgets.gb_max_pairs, config.budgets.gb_max_term_count)
    expected = _baseline(ideal, config, limits)

    task = functools.partial(run_sample, ideal, config, expected)
    indices = range(config.samples)
    if config.workers > 1:
        # Imported here so that serial runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        chunksize = math.ceil(config.samples / (4 * config.workers))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(task, indices, chunksize=chunksize))
    else:
        records = list(map(task, indices))

    config_echo = {
        "kind": config.kind,
        "ideal": config.ideal_path,
        "ideal_source": {
            "params": list(ctx.param_names),
            "vars": list(ctx.var_names),
            "gens": [str(g) for g in ideal.generators],
        },
        "H": config.box,
        "n": config.samples,
        "seed": config.seed,
        "trials": config.trials,
        "degrees": list(config.degrees),
        "rho": len(config.degrees) if config.kind == GENERIC_INTERSECT else None,
        "budgets": asdict(config.budgets),
        "expected_dimension": expected,
    }
    return {
        "config": config_echo,
        "samples": records,
        "aggregate": _aggregate(records),
        "tool_version": __version__,
        "seed": config.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- emission and replay -------------------------------------------------------


def report_hash(report: dict) -> str:
    """Content hash that ignores the timestamp and per-sample timings."""
    stripped = json.loads(json.dumps(report))
    stripped.pop("timestamp", None)
    for sample in stripped.get("samples", ()):
        sample.pop("elapsed_ms", None)
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def emit_report(report: dict, fmt: str, path) -> None:
    """Write the report as JSON or one-row-per-sample CSV."""
    import csv

    if fmt == "json":
        with open(path, "w", encoding="ascii") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        return
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "point", "verdict", "dimension",
                         "expected_dimension", "certificate", "elapsed_ms"])
        for sample in report["samples"]:
            writer.writerow([
                sample["index"],
                json.dumps(sample["point"], sort_keys=True),
                sample["verdict"],
                "" if sample["dimension"] is None else sample["dimension"],
                sample["expected_dimension"],
                json.dumps(sample["certificate"], sort_keys=True)
                if sample["certificate"] else "",
                sample["elapsed_ms"],
            ])


def _replay(ideal: Ideal, config: dict, position: int, sample: dict) -> str | None:
    """Replay the failure witness of a bad sample; None for other samples."""
    try:
        if classify(sample) != "bad":
            return None
        index, verdict, dimension = sample["index"], sample["verdict"], sample["dimension"]
        specialized = specialize_point(ideal, config["kind"], config["degrees"], sample["point"])
        if verdict == NOT_PRIME:
            f, g = (parse_polynomial(sample["certificate"][key], specialized.context)
                    for key in ("f", "g"))
    except (KeyError, TypeError) as exc:
        raise PrimespecError(f"sample {position}: malformed record: {exc!r}") from exc
    if verdict == NOT_PRIME:
        error = _certificate_error(specialized.groebner(), f, g)
        if error is not None:
            raise PrimespecError(f"sample {index}: certificate invalid: {error}")
        return f"sample {index}: NotPrime certificate replayed"
    if verdict == UNIT_IDEAL:
        if not specialized.groebner().is_unit:
            raise PrimespecError(f"sample {index}: unit-ideal verdict does not replay")
        return f"sample {index}: unit ideal confirmed"
    if verdict == INCONSISTENT:
        if _consistent(ideal, specialized, sample["point"], DEFAULT_LIMITS):
            raise PrimespecError(f"sample {index}: inconsistency does not replay")
        return f"sample {index}: inconsistency confirmed"
    dim = specialized.dimension()
    if dim != dimension:
        raise PrimespecError(f"sample {index}: recorded dimension {dimension}, recomputed {dim}")
    if dim == sample["expected_dimension"]:
        raise PrimespecError(f"sample {index}: classified bad but replay looks good")
    return f"sample {index}: dimension mismatch confirmed ({dim})"


def verify_report(report: dict) -> list[str]:
    """Replay every failure witness in a report; raises on any mismatch.

    Confirms every NotPrime certificate (product in the ideal, factors
    outside), every unit-ideal collapse, every dimension mismatch, every
    consistency failure, and then the whole ``aggregate`` against the one
    ``run_experiment`` computes.  A report or sample record with a missing
    or mistyped field, or a sample with an unknown verdict, fails
    verification.  Returns one accounting message and one message per
    replayed check.
    """
    try:
        samples, config, recorded = report["samples"], report["config"], report["aggregate"]
        configured_n, source = config["n"], config["ideal_source"]
        ctx = make_context(source["vars"], params=source["params"])
        ideal = Ideal(ctx, [parse_polynomial(g, ctx) for g in source["gens"]])
    except (KeyError, TypeError) as exc:
        raise PrimespecError(f"malformed report: {exc!r}") from exc
    n = len(samples)
    if n != configured_n:
        raise PrimespecError(f"sample count {n} differs from configured n")
    replays = [_replay(ideal, config, position, sample) for position, sample in enumerate(samples)]
    recomputed = _aggregate(samples)
    if recorded != recomputed:
        missing = object()
        wrong = sorted(key for key in recorded.keys() | recomputed.keys()
                       if recorded.get(key, missing) != recomputed.get(key, missing))
        raise PrimespecError(f"aggregate {wrong} differs from the recomputed {recomputed}")
    return [f"accounting confirmed for {n} samples"] + [m for m in replays if m is not None]
