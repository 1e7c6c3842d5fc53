"""Experiment driver: sample specialization points, check verdicts, report.

A sample is *good* when the specialized ideal is certified prime and its
dimension matches the expected fiber dimension; *bad* when it is
certifiably not prime, collapses to the unit ideal, or has the wrong
dimension; *inconclusive* when ``is_prime`` finds no certificate within
its trials (its reason is recorded) or a budget runs out.  Densities are reported both against all samples and
against the decisive ones, always as exact fractions alongside floats.

Every point is drawn in one place, ``sample_point``, from the sample's own
random stream.  It returns the point as the report stores it, which is
never parsed back, and the drawn values that ``specialize_point`` turns
into the specialized ideal.  ``verify_report`` re-runs every sample from
the echoed config, so it re-draws every point, and requires the stored
record to equal the re-run's.  Everything around the samples is built by
one function, ``_header``, which ``verify_report`` runs again and
compares with the report key by key.

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
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from random import Random

from . import __version__
from .context import context as make_context
from .errors import (BudgetExceededError, ConfigError, ContextMismatchError,
                     HypothesisViolationError, PolynomialSyntaxError, PrimespecError)
from .groebner import (DEFAULT_LIMITS, GBLimits, Ideal, eliminate, fiber_dimension,
                       specialize_basis)
from .parse import parse_ideal_source, parse_polynomial, source_lines
from .poly import Polynomial, monomials_upto  # perfbench's oracles read monomials_upto here
from .primality import (DEFAULT_TRIALS, INCONCLUSIVE, NOT_PRIME, PRIME, UNIT_IDEAL,
                        _certificate_error, is_prime)
from .specialize import (generic_forms, intersect_generic, specialize_polynomial,
                         specialize_scalar)

SCALAR_SPEC = "ScalarSpec"
GENERIC_INTERSECT = "GenericIntersect"
POLY_SPEC = "PolySpec"
CONSISTENCY = "Consistency"
KINDS = (SCALAR_SPEC, GENERIC_INTERSECT, POLY_SPEC, CONSISTENCY)

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"


def _require_at_least(key: str, value, least: int | None) -> None:
    """Reject a config value that is not an int, or is below ``least``, naming the config key.

    A bool is no int here, and ``least`` None sets no minimum.  Every count
    and budget, from a ``.conf`` file or a report's echo, passes this rule.
    """
    if type(value) is not int:
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"key {key!r} must be >= {least}, got {value}")


_BUDGET_FIELDS = {"gb.max_pairs": "gb_max_pairs", "gb.max_term_count": "gb_max_term_count",
                "sample.timeout_ms": "sample_timeout_ms"}


@dataclass(frozen=True)
class Budgets:
    gb_max_pairs: int = GBLimits.max_pairs
    gb_max_term_count: int = GBLimits.max_term_count
    sample_timeout_ms: int = 20_000

    def __post_init__(self):
        for key, name in _BUDGET_FIELDS.items():
            _require_at_least(key, getattr(self, name), 1)

    def limits(self) -> GBLimits:
        """Limits for one sample: these budgets and a deadline ``sample.timeout_ms`` from now."""
        return GBLimits(self.gb_max_pairs, self.gb_max_term_count,
                        deadline=time.monotonic() + self.sample_timeout_ms / 1000.0)


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
        if not isinstance(self.ideal_path, str):
            raise ConfigError(f"key 'ideal' must be a string, got {self.ideal_path!r}")
        for key, name in _INT_FIELDS.items():
            _require_at_least(key, getattr(self, name), None if name == "seed" else 1)
        if self.kind == GENERIC_INTERSECT and not self.degrees:
            raise ConfigError("GenericIntersect needs a degrees list")
        # a GenericIntersect form of degree 0 is a constant, which cuts nothing
        for degree in self.degrees:
            _require_at_least("degrees", degree, int(self.kind == GENERIC_INTERSECT))


# config key -> field of the integers a report echoes, in the echo's order
_ECHOED_FIELDS = {"H": "box", "n": "samples", "seed": "seed", "trials": "trials"}
_INT_FIELDS = {**_ECHOED_FIELDS, "workers": "workers"}
_CONFIG_KEYS = {"kind", "ideal", "degrees", *_INT_FIELDS, *_BUDGET_FIELDS}


def parse_experiment_config(text: str, base_dir: str = ".") -> ExperimentConfig:
    """Read ``key = value`` lines; unknown keys are errors, absent ones take the defaults."""
    data = {}
    for lineno, line in source_lines(text):
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

    def ints(keys):
        """{field: value} of the integer keys (config key -> field) that the config sets."""
        return {name: as_int(key) for key, name in keys.items() if key in data}

    def as_int(key):
        try:
            return int(data[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r} must be an integer") from exc

    fields = {}
    if "degrees" in data:
        try:
            degrees = tuple(int(part) for part in data["degrees"].split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError("degrees must be a comma-separated integer list") from exc
        fields["degrees"] = degrees
    return ExperimentConfig(kind=data["kind"],
                            ideal_path=os.path.normpath(os.path.join(base_dir, data["ideal"])),
                            budgets=Budgets(**ints(_BUDGET_FIELDS)), **fields, **ints(_INT_FIELDS))


def read_experiment_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="ascii") as handle:
        return parse_experiment_config(handle.read(), base_dir=os.path.dirname(path) or ".")


# -- sampling -----------------------------------------------------------------


def derive_seed(seed: int, index: int, purpose: str = "sample") -> int:
    """Independent per-sample stream seed, stable across platforms."""
    digest = hashlib.sha256(f"{seed}/{index}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_point(kind: str, ideal: Ideal, degrees, box: int, rng: Random) -> tuple[dict, list]:
    """Draw one specialization point, coordinates uniform on [-H, H].

    Returns the point as the report stores it, numbers and polynomials as
    strings, and the values ``specialize_point`` takes: one int per
    parameter, or one int block per degree, the coefficients of a generic
    form of that degree in ``monomials_upto`` order (a cut, or a PolySpec
    point's value of one parameter).
    """
    ctx = ideal.context
    if kind in (SCALAR_SPEC, CONSISTENCY):
        values = [rng.randint(-box, box) for _ in range(ctx.r)]
        return {"kind": "scalar", "values": list(map(str, values))}, values
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    blocks = [[rng.randint(-box, box) for _ in range(math.comb(ctx.s + d, d))] for d in degrees]
    if kind == POLY_SPEC:
        values = generic_forms(ctx.without_params(), degrees, blocks)
        return {"kind": "poly", "values": list(map(str, values)), "degrees": list(degrees)}, blocks
    return {"kind": "lambda", "blocks": [list(map(str, block)) for block in blocks]}, blocks


# -- per-sample work ----------------------------------------------------------


def specialize_point(ideal: Ideal, kind: str, degrees, values,
                     limits=DEFAULT_LIMITS) -> tuple[Ideal, bool]:
    """The specialized ideal at the values ``sample_point`` draws, and its degeneracy.

    One rule: a scalar point is the scalar fiber of ``ideal``, and a
    PolySpec point or one cut is the scalar fiber of
    ``ideal.sampling_root`` at its flattened coefficient blocks, so that it
    reads its bases from that root's.  Only two or more cuts, or a root
    that a budget stops, build the specialized ideal per sample: they
    adjoin the forms with ``intersect_generic``, or substitute them with
    ``specialize_polynomial``.  Either way the generators are the same.
    A cut is degenerate when one of its coefficient blocks is all zero.
    Any other point is degenerate when it specializes every generator to
    zero, that is when the specialized ideal's dimension is its number of
    variables; a scalar fiber reads that dimension from its root's leads
    without substituting its generators, and ``run_sample`` reads it
    again from the cache.  The root and the dimension run under
    ``limits``, so a budget can stop them here.
    """
    cut = kind == GENERIC_INTERSECT
    if kind in (SCALAR_SPEC, CONSISTENCY):
        specialized = specialize_scalar(ideal, values, limits)
    elif (not cut or len(degrees) == 1) and (root := ideal.sampling_root(degrees, cut, limits)):
        specialized = specialize_scalar(root, [c for block in values for c in block], limits)
    elif cut:
        specialized = intersect_generic(ideal, degrees, values)
    else:
        forms = generic_forms(ideal.context.without_params(), degrees, values)
        specialized = specialize_polynomial(ideal, forms, limits)
    if cut:
        return specialized, not all(map(any, values))
    return specialized, specialized.dimension(limits) == len(specialized.context)


def _consistent(specialized: Ideal, limits: GBLimits) -> bool:
    """A scalar fiber's specialized basis equals Buchberger's basis of its constant twin.

    The fiber's basis is ``specialize_basis`` of its ``lifted`` block; the
    twin specializes the root at the constant polynomials.
    """
    ideal, values = specialized.root
    ctx = specialized.context
    twin = specialize_polynomial(ideal, [Polynomial.constant(ctx, v) for v in values.values()])
    block, at, _ = specialized.lifted(ctx, limits)
    return specialize_basis(block, at, ctx, limits) == twin.groebner(limits=limits)


def _blank_record(ideal: Ideal, config: ExperimentConfig, expected: int,
                  index: int) -> tuple[dict, list]:
    """The record ``run_sample`` writes before it specializes, and the values of its point."""
    point, values = sample_point(config.kind, ideal, config.degrees, config.box,
                                 Random(derive_seed(config.seed, index)))
    return {"index": index, "point": point, "verdict": INCONCLUSIVE, "dimension": None,
            "expected_dimension": expected, "certificate": None, "elapsed_ms": 0.0}, values


def run_sample(ideal: Ideal, config: ExperimentConfig, expected: int, index: int) -> dict:
    """Process one sample; budget overruns record an inconclusive verdict."""
    record, values = _blank_record(ideal, config, expected, index)
    start = time.perf_counter()
    limits = config.budgets.limits()
    try:
        specialized, degenerate = specialize_point(ideal, config.kind, config.degrees, values,
                                                   limits)
        if degenerate:
            record["degenerate_specialization"] = True
        record["dimension"] = specialized.dimension(limits)
        if config.kind == CONSISTENCY:
            same = _consistent(specialized, limits)
            record["verdict"] = CONSISTENT if same else INCONSISTENT
        else:
            verdict = is_prime(specialized, trials=config.trials,
                               seed=derive_seed(config.seed, index, "prime"), limits=limits)
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


def _check_hypotheses(ideal: Ideal, config: ExperimentConfig, limits: GBLimits) -> None:
    """Refuse an ideal or config that the experiment kind does not apply to."""
    ctx = ideal.context
    if config.kind in (SCALAR_SPEC, POLY_SPEC, CONSISTENCY):
        if ctx.r == 0:
            raise ConfigError(f"{config.kind} requires a params: block in the ideal file")
        wanted = ctx.r if config.kind == POLY_SPEC else 0
        if len(config.degrees) != wanted:
            raise ConfigError(f"{config.kind} needs {wanted} degrees, got {len(config.degrees)}")
        meet = eliminate(ideal, ctx.param_names, limits)
        if not meet.is_zero:
            raise HypothesisViolationError(meet.generators[0])
        return
    if ctx.r:
        raise ConfigError("GenericIntersect expects an ideal without parameters")
    d = ideal.dimension(limits)
    if not 0 < len(config.degrees) <= d:
        raise ConfigError(f"need 0 < rho <= dim = {d}, got rho = {len(config.degrees)}")


def _header(ideal: Ideal, config: ExperimentConfig, limits: GBLimits) -> dict:
    """Everything a report holds but its samples, their aggregate and the timestamp.

    Runs the hypothesis check and then the expected dimension under
    ``limits``, and returns the ``config`` echo, ``tool_version`` and
    ``seed``.  ``run_experiment`` builds its report around the samples
    from it, and ``verify_report`` compares a report with it key by key.
    The expected dimension is that of a good specialization: dim - rho for
    GenericIntersect, else the generic fiber's.  The generic fiber of a
    base P in Q[T, Y] is P over Q(T); for a prime P meeting Q[T] only in 0
    its dimension is dim P - r.
    """
    _check_hypotheses(ideal, config, limits)
    ctx = ideal.context
    cut = config.kind == GENERIC_INTERSECT
    expected = (ideal.dimension(limits) - len(config.degrees) if cut
                else fiber_dimension(ideal, ctx.param_names, limits))
    config_echo = {
        "kind": config.kind,
        "ideal": config.ideal_path,
        "ideal_source": {
            "params": list(ctx.param_names),
            "vars": list(ctx.var_names),
            "gens": [str(g) for g in ideal.generators],
        },
        **{key: getattr(config, name) for key, name in _ECHOED_FIELDS.items()},
        "degrees": list(config.degrees),
        "rho": len(config.degrees) if cut else None,
        "budgets": asdict(config.budgets),
        "expected_dimension": expected,
    }
    return {"config": config_echo, "tool_version": __version__, "seed": config.seed}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all samples and assemble the report dictionary.

    The report is ``_header``'s, which runs under the config's budgets and
    a deadline of ``sample.timeout_ms``, with the samples, their aggregate
    and a timestamp added.
    """
    with open(config.ideal_path, "r", encoding="ascii") as handle:
        ideal = Ideal(*parse_ideal_source(handle.read()))
    header = _header(ideal, config, config.budgets.limits())

    task = functools.partial(run_sample, ideal, config, header["config"]["expected_dimension"])
    indices = range(config.samples)
    if config.workers > 1:
        # Imported here so that serial runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # The fork start method forks every worker on the first submit, so
        # start no more processes than there are cores.
        workers = min(config.workers, os.cpu_count() or 1)
        chunksize = math.ceil(config.samples / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(task, indices, chunksize=chunksize))
    else:
        records = list(map(task, indices))
    return {
        **header,
        "samples": records,
        "aggregate": _aggregate(records),
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
        writer.writerow(["index", "point", "verdict", "dimension", "expected_dimension",
                         "certificate", "reason", "degenerate_specialization", "elapsed_ms"])
        for sample in report["samples"]:
            writer.writerow([
                sample["index"],
                json.dumps(sample["point"], sort_keys=True),
                sample["verdict"],
                "" if sample["dimension"] is None else sample["dimension"],
                sample["expected_dimension"],
                json.dumps(sample["certificate"], sort_keys=True)
                if sample["certificate"] else "",
                sample.get("reason", ""),
                "true" if sample.get("degenerate_specialization") else "",
                sample["elapsed_ms"],
            ])


# What run_sample records when GBLimits.check_deadline stops a sample
_OUT_OF_TIME = "budget: wall-clock budget exceeded"


def _compare(recorded: dict, recomputed: dict, skip, where: str = "") -> None:
    """Raise naming every key outside ``skip`` where ``recorded`` and ``recomputed`` differ."""
    def shown(entry, key):
        return repr(entry[key]) if key in entry else "absent"

    wrong = [f"{key!r} recorded {shown(recorded, key)}, recomputed {shown(recomputed, key)}"
             for key in sorted((recorded.keys() | recomputed.keys()) - skip)
             if shown(recorded, key) != shown(recomputed, key)]
    if wrong:
        raise PrimespecError(where + "; ".join(wrong))


def _replay(ideal: Ideal, config: ExperimentConfig, expected: int, index: int,
            sample: dict) -> str | None:
    """Check one sample by re-running it: one rule for every verdict.

    ``run_sample`` re-runs the sample at ``index`` under its budgets, and
    the record must equal the re-run's in every key but ``elapsed_ms``.
    The re-run reads the experiment's roots, as the run did.  Before it, a
    not_prime sample replays its certificate against Buchberger's basis of
    its own generators, which shares nothing with a root.  A sample that
    ran out of time is not re-run, since the host's clock decided it: its
    record must be what ``run_sample`` writes before the deadline stops it,
    its dimension unchecked, and its degeneracy flag checked only when the
    specialization finishes under the sample's budgets.  Returns the check
    made for a sample that is not good, or None.
    """
    verdict = sample["verdict"]
    record, values = _blank_record(ideal, config, expected, index)
    if sample.get("reason") == _OUT_OF_TIME:
        record["reason"] = _OUT_OF_TIME
        skip = {"elapsed_ms", "dimension"}
        try:
            if specialize_point(ideal, config.kind, config.degrees, values,
                                config.budgets.limits())[1]:
                record["degenerate_specialization"] = True
        except BudgetExceededError:
            skip.add("degenerate_specialization")
        _compare(sample, record, skip)
        return None
    if verdict == NOT_PRIME:
        limits = config.budgets.limits()
        specialized, _ = specialize_point(ideal, config.kind, config.degrees, values, limits)
        f, g = (parse_polynomial(sample["certificate"][key], specialized.context)
                for key in ("f", "g"))
        error = _certificate_error(specialized.groebner(limits=limits), f, g, limits)
        if error is not None:
            raise PrimespecError(f"certificate invalid: {error}")
    _compare(sample, run_sample(ideal, config, expected, index), {"elapsed_ms"})
    if classify(sample) == "good":
        return None
    return "NotPrime certificate replayed" if verdict == NOT_PRIME else f"{verdict} verdict re-run"


def verify_report(report: dict) -> list[str]:
    """Check a report by building it again; raises on any mismatch.

    One rule for the whole report.  Rebuilds the config from its echo and
    the ideal from the echoed source (``config.ideal`` is a label, never
    read), and runs ``_header``, which ``run_experiment`` builds its report
    from: a violated hypothesis raises ``HypothesisViolationError``, and a
    budget that stops the header, in the hypothesis check or the expected
    dimension, fails as ``header: <reason>``.  The report must equal the
    header in every key but ``samples``, ``aggregate`` and ``timestamp``,
    and its ``config`` in every key; so a report of another
    ``tool_version`` fails.  Then checks the sample count and every sample
    with ``_replay``, which re-runs it and requires the same record, naming
    the sample in any error, and last compares ``aggregate`` key by key
    with the one ``run_experiment`` computes.  The header and the re-runs
    run under the echoed budgets with the timeout capped at the default
    20 s, while the echo keeps the echoed timeout.  An echo whose ideal
    does not rebuild (a generator that does not parse, an unknown or
    repeated variable, no variable) or that the config or the hypothesis
    check rejects, a record with a mistyped field, or ``samples`` that is
    not a list or an ``aggregate`` that is not an object, is a malformed
    report.  Returns one accounting message and one per sample that is not
    good.
    """
    try:
        samples, echo, recorded = report["samples"], report["config"], report["aggregate"]
        if not isinstance(samples, list) or not isinstance(recorded, dict):
            raise TypeError("samples must be a list and aggregate an object")
        source = echo["ideal_source"]
        ctx = make_context(source["vars"], params=source["params"])
        ideal = Ideal(ctx, [parse_polynomial(g, ctx) for g in source["gens"]])
        config = ExperimentConfig(kind=echo["kind"], ideal_path=echo["ideal"],
                                  degrees=tuple(echo["degrees"]),
                                  budgets=Budgets(**echo["budgets"]),
                                  **{name: echo[key] for key, name in _ECHOED_FIELDS.items()})
        # a crafted timeout must not stall verification
        capped = replace(config, budgets=replace(config.budgets, sample_timeout_ms=min(
            config.budgets.sample_timeout_ms, Budgets.sample_timeout_ms)))
        header = _header(ideal, config, capped.budgets.limits())
    except (KeyError, TypeError, ValueError, ConfigError, ContextMismatchError,
            PolynomialSyntaxError) as exc:
        raise PrimespecError(f"malformed report: {exc!r}") from exc
    except BudgetExceededError as exc:
        raise PrimespecError(f"header: {exc}") from exc
    _compare(report, header, {"config", "samples", "aggregate", "timestamp"})
    _compare(echo, header["config"], set(), "config: ")
    n = len(samples)
    if n != config.samples:
        raise PrimespecError(f"sample count {n} differs from configured n")
    expected = header["config"]["expected_dimension"]
    replays = []
    for i, sample in enumerate(samples):
        try:
            message = _replay(ideal, capped, expected, i, sample)
        except (KeyError, TypeError) as exc:
            raise PrimespecError(f"sample {i}: malformed record: {exc!r}") from exc
        except (PrimespecError, ValueError, ArithmeticError) as exc:
            raise PrimespecError(f"sample {i}: {exc}") from exc
        if message is not None:
            replays.append(f"sample {i}: {message}")
    _compare(recorded, _aggregate(samples), set(), "aggregate: ")
    return [f"accounting confirmed for {n} samples"] + replays
