"""Experiment configs, sampling, reports, replay verification."""

import csv
import functools
import itertools
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from primespec import (BudgetExceededError, ConfigError, HypothesisViolationError, PrimespecError,
                       __version__, context, experiments, groebner, intersect_generic, is_prime,
                       primality, specialize_polynomial, specialize_scalar)
from primespec.cli import main
from primespec.experiments import (Budgets, ExperimentConfig, _aggregate, classify, derive_seed,
                                   emit_report, parse_experiment_config,
                                   read_experiment_config, report_hash, run_experiment,
                                   sample_point, verify_report)
from primespec.groebner import GBLimits, Ideal
from primespec.parse import parse_ideal_source, parse_polynomial

from conftest import seeded

PARABOLA = "params: T\nvars: Y\ngens:\nY^2 - T\n"
CUBIC_FIBER = "params: T\nvars: Y1, Y2, Y3\ngens:\nY2 - T*Y1^2\nY3 - Y1*Y2\n"
CIRCLE = "vars: Y1, Y2\ngens:\nY1^2 + Y2^2 - 1\n"
SPHERE = "vars: Y1, Y2, Y3\ngens:\nY1^2 + Y2^2 + Y3^2 - 1\n"
BAD = "params: T\nvars: Y\ngens:\nY - T\nY - 1\n"


@pytest.fixture
def parabola_path(tmp_path):
    path = tmp_path / "parabola.ideal"
    path.write_text(PARABOLA)
    return str(path)


@pytest.fixture
def circle_path(tmp_path):
    path = tmp_path / "circle.ideal"
    path.write_text(CIRCLE)
    return str(path)


def scalar_config(path, n=40, box=1000, seed=5, **kw):
    return ExperimentConfig(kind="ScalarSpec", ideal_path=path, box=box,
                            samples=n, seed=seed, **kw)


def test_config_parsing(tmp_path):
    (tmp_path / "i.ideal").write_text(PARABOLA)
    text = """
    kind = ScalarSpec
    ideal = i.ideal
    H = 100          # box half-width
    n = 10
    seed = 3
    trials = 4
    gb.max_pairs = 123
    """
    config = parse_experiment_config(text, str(tmp_path))
    assert config.kind == "ScalarSpec"
    assert config.box == 100 and config.samples == 10
    assert config.trials == 4
    assert config.budgets.gb_max_pairs == 123


def test_config_rejects_unknown_keys():
    for line in ("foo = 2", "rho = 1", "primality.trials = 5", "primality.box_start = 10",
                 "primality.box_cap = 65536"):
        with pytest.raises(ConfigError):
            parse_experiment_config(f"kind = ScalarSpec\nideal = x\nH = 1\nn = 1\n{line}\n")


def test_config_requires_fields():
    with pytest.raises(ConfigError):
        parse_experiment_config("kind = ScalarSpec\nH = 1\nn = 1\n")
    with pytest.raises(ConfigError):
        parse_experiment_config("kind = ScalarSpec\nideal = x\nH = 1\nn = 0\n")
    with pytest.raises(ConfigError):
        parse_experiment_config("kind = Bogus\nideal = x\nH = 1\nn = 1\n")


@pytest.mark.parametrize("line, key", [
    ("workers = 0", "workers"),
    ("workers = -3", "workers"),
    ("sample.timeout_ms = 0", "sample.timeout_ms"),
    ("gb.max_pairs = 0", "gb.max_pairs"),
    ("gb.max_term_count = -1", "gb.max_term_count"),
])
def test_config_rejects_invalid_budgets(line, key):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse_experiment_config(f"kind = ScalarSpec\nideal = x\nH = 1\nn = 1\n{line}\n")


@pytest.mark.parametrize("build, key", [
    (lambda: ExperimentConfig(kind="ScalarSpec", ideal_path="x", box=1, samples=1,
                              workers=-3), "workers"),
    (lambda: Budgets(sample_timeout_ms=0), "sample.timeout_ms"),
    (lambda: ExperimentConfig(kind="GenericIntersect", ideal_path="x", box=1, samples=1,
                              degrees=(1, -1)), "degrees"),
])
def test_direct_construction_rejects_invalid_budgets(build, key):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        build()


def test_config_accepts_smallest_budgets():
    config = parse_experiment_config(
        "kind = ScalarSpec\nideal = x\nH = 1\nn = 1\nworkers = 1\nsample.timeout_ms = 1\n"
        "gb.max_pairs = 1\ngb.max_term_count = 1\n")
    assert config.workers == 1
    assert config.budgets == Budgets(1, 1, 1)


def test_serial_import_skips_multiprocessing():
    # The process pool is imported only when workers > 1.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, primespec.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_sampling_is_deterministic():
    plane = Ideal(context(("Y1", "Y2"), params=("T1", "T2", "T3")), [])
    a, _ = sample_point("ScalarSpec", plane, (), 50, seeded(9))
    b, _ = sample_point("ScalarSpec", plane, (), 50, seeded(9))
    assert a == b
    assert all(-50 <= int(v) <= 50 for v in a["values"])
    circle = Ideal(context(("Y1", "Y2")), [])
    la, _ = sample_point("GenericIntersect", circle, (1, 2), 10, seeded(9))
    lb, _ = sample_point("GenericIntersect", circle, (1, 2), 10, seeded(9))
    assert la == lb
    assert [len(block) for block in la["blocks"]] == [3, 6]


def test_poly_sampling_respects_degree_bounds():
    ideal_ctx = context(("Y",), params=("T",))
    ideal = Ideal(ideal_ctx, [])
    y_ctx = context(("Y",))
    point, _ = sample_point("PolySpec", ideal, (1,), 1, seeded(3))
    assert parse_polynomial(point["values"][0], y_ctx).total_degree() <= 1
    # box 1, degree 1: coefficients drawn from {-1,0,1}
    seen = set()
    for s in range(60):
        value = sample_point("PolySpec", ideal, (1,), 1, seeded(s))[0]["values"][0]
        for coeff in parse_polynomial(value, y_ctx).terms.values():
            assert coeff in (-1, 1)
        seen.add(value)
    assert len(seen) > 3


def test_sample_point_dispatch():
    ideal_ctx = context(("Y",), params=("T",))
    ideal = Ideal(ideal_ctx, [parse_polynomial("Y^2 - T", ideal_ctx)])
    assert sample_point("ScalarSpec", ideal, (), 5, seeded(1))[0]["kind"] == "scalar"
    assert sample_point("PolySpec", ideal, (2,), 5, seeded(1))[0]["kind"] == "poly"


def test_derived_seeds_differ():
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 0) != derive_seed(8, 0)
    assert derive_seed(7, 3, "prime") != derive_seed(7, 3)


def test_scalar_experiment_accounting(parabola_path):
    report = run_experiment(scalar_config(parabola_path))
    agg = report["aggregate"]
    assert agg["good"] + agg["bad"] + agg["inconclusive"] == report["config"]["n"]
    assert 0.0 <= agg["density_float"] <= 1.0
    assert report["config"]["expected_dimension"] == 0
    for sample in report["samples"]:
        assert classify(sample) in ("good", "bad", "inconclusive")


def test_hypothesis_gate_fails_fast(tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text(BAD)
    with pytest.raises(HypothesisViolationError) as err:
        run_experiment(scalar_config(str(path), n=3))
    assert str(err.value.witness) == "T - 1"


def test_verify_report_runs_the_hypothesis_check(monkeypatch, tmp_path, capsys):
    # A report made with the check patched out: every fiber of (Y - T, Y - 1)
    # is bad, since the ideal meets Q[T] in T - 1.  verify-report builds the
    # report's header with run_experiment's code, so it refuses it as
    # experiment does, with exit 3 and the witness.
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = scalar_config(os.path.join(repo, "ideals", "bad_hypothesis.ideal"), n=20, box=5,
                           seed=1)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_check_hypotheses", lambda *args: None)
        report = run_experiment(config)
    assert (report["aggregate"]["bad"], report["aggregate"]["density_exact"]) == (20, "0")
    with pytest.raises(HypothesisViolationError) as err:
        verify_report(report)
    assert str(err.value.witness) == "T - 1"
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    capsys.readouterr()
    assert main(["verify-report", str(path)]) == 3
    assert capsys.readouterr().err == (
        "hypothesis violation: ideal meets the parameter ring: witness T - 1\n")


# Each config breaks one rule of _check_hypotheses: (kind, ideal, degrees, message)
REFUSED_CONFIGS = {
    "ScalarSpec on an ideal without params": (
        "ScalarSpec", CIRCLE, (), "ScalarSpec requires a params: block in the ideal file"),
    "PolySpec with two degrees for one param": (
        "PolySpec", PARABOLA, (1, 1), "PolySpec needs 1 degrees, got 2"),
    "GenericIntersect on an ideal with params": (
        "GenericIntersect", PARABOLA, (1,), "GenericIntersect expects an ideal without parameters"),
    "degrees on ScalarSpec": ("ScalarSpec", PARABOLA, (1,), "ScalarSpec needs 0 degrees, got 1"),
    "degrees on Consistency": ("Consistency", PARABOLA, (2,), "Consistency needs 0 degrees, got 1"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_CONFIGS))
def test_check_hypotheses_refuses_configs(case, parabola_path, tmp_path):
    # run_experiment refuses the config, and verify_report refuses an echo
    # edited into it as a malformed report.
    kind, text, degrees, message = REFUSED_CONFIGS[case]
    path = tmp_path / "refused.ideal"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_experiment(ExperimentConfig(kind=kind, ideal_path=str(path), box=3, samples=2,
                                        degrees=degrees))
    report = run_experiment(scalar_config(parabola_path, n=2, box=3))
    verify_report(report)
    ctx, gens = parse_ideal_source(text)
    report["config"].update(kind=kind, degrees=list(degrees), ideal_source={
        "params": list(ctx.param_names), "vars": list(ctx.var_names),
        "gens": [str(g) for g in gens]})
    with pytest.raises(PrimespecError,
                       match=rf"^malformed report: ConfigError\({re.escape(repr(message))}\)$"):
        verify_report(report)


def test_reports_are_reproducible(parabola_path):
    config = scalar_config(parabola_path, n=30)
    first = run_experiment(config)
    second = run_experiment(config)
    assert report_hash(first) == report_hash(second)
    # the hash ignores timings but the verdict payload must be identical
    strip = lambda rep: [
        {k: v for k, v in s.items() if k != "elapsed_ms"} for s in rep["samples"]]
    assert strip(first) == strip(second)


def test_different_seeds_differ(parabola_path):
    first = run_experiment(scalar_config(parabola_path, n=30, seed=1))
    second = run_experiment(scalar_config(parabola_path, n=30, seed=2))
    assert report_hash(first) != report_hash(second)


def test_emit_json_and_csv_roundtrip(parabola_path, tmp_path):
    report = run_experiment(scalar_config(parabola_path, n=25, box=100))
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    emit_report(report, "json", json_path)
    emit_report(report, "csv", csv_path)
    loaded = json.loads(json_path.read_text())
    assert report_hash(loaded) == report_hash(report)
    import csv as csv_module

    with open(csv_path, newline="") as handle:
        rows = list(csv_module.DictReader(handle))
    assert len(rows) == 25
    for row, sample in zip(rows, report["samples"]):
        assert row["verdict"] == sample["verdict"]
        assert json.loads(row["point"]) == sample["point"]
        if sample["certificate"]:
            assert json.loads(row["certificate"]) == sample["certificate"]


def test_verify_report_confirms_certificates(parabola_path):
    # squares in a tiny box force NotPrime samples
    report = run_experiment(scalar_config(parabola_path, n=60, box=9, seed=2))
    assert any(s["verdict"] == "not_prime" for s in report["samples"])
    messages = verify_report(report)
    assert any("NotPrime certificate replayed" in m for m in messages)


def test_certificate_replay_shares_no_basis_with_the_root(monkeypatch, parabola_path):
    # verify-report re-runs every sample, and the re-run reads the root's
    # bases as the run did.  Only the NotPrime certificate replay before it
    # shares nothing with the root: it checks against Buchberger's basis of
    # the fiber's own generators, and specializes no basis from the root's.
    report = run_experiment(scalar_config(parabola_path, n=60, box=9, seed=2))
    specialize_basis, rerun = primality.specialize_basis, experiments.run_sample
    specialized = []

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate replay specializes no basis")

    def counted(*args):
        specialized.append(args)
        return specialize_basis(*args)

    def reading_the_root(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(primality, "specialize_basis", counted)
            return rerun(*args)

    for module in (groebner, primality):
        monkeypatch.setattr(module, "specialize_basis", refuse)
    monkeypatch.setattr(experiments, "run_sample", reading_the_root)
    messages = verify_report(report)
    assert any("NotPrime certificate replayed" in m for m in messages)
    assert specialized


def test_verify_report_detects_tampering(parabola_path):
    report = run_experiment(scalar_config(parabola_path, n=60, box=9, seed=2))
    # f = 0 keeps f*g in the ideal but puts a factor there
    for bad_f, error in (("Y + 12345", "f*g is not in the ideal"),
                         ("0", "a factor lies in the ideal")):
        tampered = json.loads(json.dumps(report))
        for sample in tampered["samples"]:
            if sample["verdict"] == "not_prime":
                sample["certificate"]["f"] = bad_f
                break
        with pytest.raises(PrimespecError, match=rf"^sample \d+: .*{re.escape(error)}$"):
            verify_report(tampered)
    counted = json.loads(json.dumps(report))
    counted["aggregate"]["good"] += 1
    with pytest.raises(PrimespecError):
        verify_report(counted)


def test_verify_report_rejects_a_not_prime_sample_relabelled_prime(parabola_path):
    # Tamper A: a bad sample relabelled prime with no certificate, the
    # aggregate recomputed, raises the density; its re-run is not_prime.
    report = run_experiment(scalar_config(parabola_path, n=60, box=9, seed=2))
    first = next(s for s in report["samples"] if s["verdict"] == "not_prime")
    certificate = first["certificate"]
    first.update(verdict="prime", certificate=None)
    report["aggregate"] = _aggregate(report["samples"])
    with pytest.raises(PrimespecError, match=re.escape(
            f"sample {first['index']}: 'certificate' recorded None, recomputed {certificate!r}; "
            "'verdict' recorded 'prime', recomputed 'not_prime'")):
        verify_report(report)


def test_verify_report_rejects_a_run_whose_irreducibility_test_lied(monkeypatch, parabola_path):
    # During the run only, every minimal polynomial is called irreducible:
    # the squares t in [-9, 9] turn prime, and the re-run finds them out.
    config = scalar_config(parabola_path, n=60, box=9, seed=2)
    honest = run_experiment(config)["aggregate"]["good"]
    with monkeypatch.context() as patch:
        patch.setattr(primality, "_split_minimal_poly", lambda *args, **kwargs: None)
        report = run_experiment(config)
    assert (honest, report["aggregate"]["good"]) == (49, 60)
    with pytest.raises(PrimespecError, match=r"^sample 8: .*'verdict' recorded 'prime', "
                                             "recomputed 'not_prime'$"):
        verify_report(report)


def test_verify_report_rejects_a_key_that_run_sample_does_not_write(parabola_path):
    report = run_experiment(scalar_config(parabola_path, n=5))
    before = report_hash(report)
    report["samples"][0]["note"] = "checked by hand"
    assert report_hash(report) != before
    with pytest.raises(PrimespecError,
                       match="^sample 0: 'note' recorded 'checked by hand', recomputed absent$"):
        verify_report(report)


SPHERE = "vars: Y1, Y2, Y3\ngens:\nY1^2 + Y2^2 + Y3^2 - 1\n"


@pytest.mark.parametrize("field, value, rule", [
    ("degenerate_specialization", True, "degenerate_specialization should be absent"),
    ("reason", "made up", "a prime sample has a reason"),
])
def test_verify_report_checks_optional_sample_fields(field, value, rule, tmp_path):
    # both fields enter report_hash, and the point and the verdict fix them:
    # the re-run writes neither
    path = tmp_path / "sphere.ideal"
    path.write_text(SPHERE)
    report = run_experiment(ExperimentConfig(kind="GenericIntersect", ideal_path=str(path),
                                             box=20, samples=40, seed=5, degrees=(1,)))
    verify_report(report)
    sample = next(s for s in report["samples"] if s["verdict"] == "prime")
    assert field not in sample, rule
    sample[field] = value
    with pytest.raises(PrimespecError,
                       match=rf"^sample \d+: '{field}' recorded {re.escape(repr(value))}, "
                             "recomputed absent$"):
        verify_report(json.loads(json.dumps(report)))


# the re-run draws its point from the sample's seed; other keys may differ too
POINT_DIFFERS = r"'point' recorded \{[^}]*\}, recomputed \{[^}]*\}"


def _copy_over_a_bad_sample(report, good):
    bad = next(s for s in report["samples"] if classify(s) == "bad")
    report["samples"][bad["index"]] = {**good, "index": bad["index"]}


def _not_prime_relabelled_inconclusive(report, good):
    bad = next(s for s in report["samples"] if s["verdict"] == "not_prime")
    bad.update(verdict="inconclusive", certificate=None,
               reason="no field certificate at 5 specialization points u")


def _not_prime_of_another_dimension(report, good):
    next(s for s in report["samples"] if s["verdict"] == "not_prime").update(dimension=7)


# Each tampering gives a sample record that differs from the one the re-run
# writes, a config field that run_experiment does not echo with these
# samples, or a witness that does not replay.  The aggregate is recomputed,
# so only the tampered field can fail verification, and the error names it.
TAMPERED_RECORDS = {
    "index of another sample": (
        "ScalarSpec", lambda report, sample: sample.update(index=(sample["index"] + 1) % 60),
        r"^sample \d+: 'index' recorded \d+, recomputed \d+$"),
    "consistent verdict in a ScalarSpec report": (
        "ScalarSpec", lambda report, sample: sample.update(verdict="consistent"),
        "'verdict' recorded 'consistent', recomputed 'prime'"),
    "ScalarSpec report relabelled Consistency": (
        "ScalarSpec", lambda report, sample: report["config"].update(kind="Consistency"),
        "'verdict' recorded 'prime', recomputed 'consistent'"),
    "certificate on a prime sample": (
        "ScalarSpec", lambda report, sample: sample.update(certificate={"f": "Y", "g": "Y"}),
        re.escape("'certificate' recorded {'f': 'Y', 'g': 'Y'}, recomputed None")),
    "rho on a ScalarSpec report": (
        "ScalarSpec", lambda report, sample: report["config"].update(rho=1),
        r"^config: 'rho' recorded 1, recomputed None$"),
    "unit_ideal verdict that does not replay": (
        "ScalarSpec", lambda report, sample: sample.update(verdict="unit_ideal"),
        "'verdict' recorded 'unit_ideal', recomputed 'prime'"),
    "inconsistent verdict that does not replay": (
        "Consistency", lambda report, sample: sample.update(verdict="inconsistent"),
        "'verdict' recorded 'inconsistent', recomputed 'consistent'"),
    "prime sample of another dimension": (
        "ScalarSpec", lambda report, sample: sample.update(dimension=1),
        r"^sample \d+: 'dimension' recorded 1, recomputed 0$"),
    "config n other than the sample count": (
        "ScalarSpec", lambda report, sample: report["config"].update(n=61),
        "sample count 60 differs from configured n"),
    "config seed changed": (
        "ScalarSpec", lambda report, sample: report["config"].update(seed=43),
        r"^'seed' recorded 2, recomputed 43$"),
    "config H lowered below the points": (
        "ScalarSpec", lambda report, sample: report["config"].update(H=5), POINT_DIFFERS),
    "config H below 1": (
        "ScalarSpec", lambda report, sample: report["config"].update(H=-5),
        r"^malformed report: .*'H' must be >= 1, got -5"),
    "bad sample replaced by a copy of a good one": (
        "ScalarSpec", _copy_over_a_bad_sample, rf"^sample \d+: (.*; )?{POINT_DIFFERS}"),
    "not_prime sample relabelled inconclusive": (
        "ScalarSpec", _not_prime_relabelled_inconclusive,
        "'verdict' recorded 'inconclusive', recomputed 'not_prime'$"),
    "not_prime sample of another dimension": (
        "ScalarSpec", _not_prime_of_another_dimension,
        r"^sample \d+: 'dimension' recorded 7, recomputed 0$"),
}


# Each edit leaves every sample as it is and moves report_hash; the header
# that verify_report builds again from the echo differs in the edited key.
TAMPERED_HEADERS = {
    "top-level seed": (lambda report: report.update(seed=6), r"^'seed' recorded 6, recomputed 5$"),
    "tool_version": (lambda report: report.update(tool_version="0.0.1"),
                     rf"^'tool_version' recorded '0.0.1', recomputed {re.escape(repr(__version__))}$"),
    "extra top-level key": (lambda report: report.update(note="checked by hand"),
                            "^'note' recorded 'checked by hand', recomputed absent$"),
    "extra config key": (lambda report: report["config"].update(note="checked by hand"),
                         "^config: 'note' recorded 'checked by hand', recomputed absent$"),
    "gens in another form": (
        lambda report: report["config"]["ideal_source"].update(gens=["-T + Y^2"]),
        r"^config: 'ideal_source' recorded \{.*'gens': \['-T \+ Y\^2'\]\}, "
        r"recomputed \{.*'gens': \['Y\^2 - T'\]\}$"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_HEADERS))
def test_verify_report_rejects_tampered_headers(case, parabola_path):
    tamper, message = TAMPERED_HEADERS[case]
    report = run_experiment(scalar_config(parabola_path, n=5))
    verify_report(report)
    before = report_hash(report)
    tamper(report)
    assert report_hash(report) != before
    with pytest.raises(PrimespecError, match=message):
        verify_report(report)


@pytest.mark.parametrize("case", sorted(TAMPERED_RECORDS))
def test_verify_report_rejects_tampered_records(case, parabola_path):
    kind, tamper, message = TAMPERED_RECORDS[case]
    report = run_experiment(ExperimentConfig(kind=kind, ideal_path=parabola_path, box=9,
                                             samples=60, seed=2))
    verify_report(report)
    tamper(report, next(s for s in report["samples"] if classify(s) == "good"))
    report["aggregate"] = _aggregate(report["samples"])
    with pytest.raises(PrimespecError, match=message):
        verify_report(report)


def test_inconclusive_samples_record_the_field_test_reason(tmp_path):
    # At t = 1 and t = 4 the fiber Y1^2 - t*Y2^2 is two rational lines: not
    # prime, but every point u splits the cut and no certificate descends
    # from a split yet, so run_sample writes is_prime's reason.
    path = tmp_path / "cone.ideal"
    path.write_text("params: T\nvars: Y1, Y2\ngens:\nY1^2 - T*Y2^2\n")
    report = run_experiment(ExperimentConfig(kind="ScalarSpec", ideal_path=str(path), box=4,
                                             samples=12, seed=1))
    reasons = {(s["point"]["values"][0], s["reason"])
               for s in report["samples"] if s["verdict"] == "inconclusive"}
    assert reasons == {(t, "no field certificate at 5 specialization points u")
                       for t in ("1", "4")}
    verify_report(report)


def _past_deadline(max_pairs, max_term_count, deadline=None):
    """GBLimits whose per-sample deadline, when it has one, has passed."""
    return GBLimits(max_pairs, max_term_count, None if deadline is None else 0.0)


def _samples_out_of_time(monkeypatch):
    """Run every sample, and not the setup, under limits whose deadline has passed."""
    run_sample = experiments.run_sample

    def late(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "GBLimits", _past_deadline)
            return run_sample(*args)

    monkeypatch.setattr(experiments, "run_sample", late)


def test_verify_report_does_not_rerun_samples_that_ran_out_of_time(monkeypatch, parabola_path):
    with monkeypatch.context() as patch:
        _samples_out_of_time(patch)
        report = run_experiment(scalar_config(parabola_path, n=5))
    assert {s["reason"] for s in report["samples"]} == {"budget: wall-clock budget exceeded"}
    assert verify_report(report) == ["accounting confirmed for 5 samples"]
    # not re-run, but still what run_sample writes before the deadline stops it
    report["samples"][0]["certificate"] = {"f": "Y", "g": "Y"}
    with pytest.raises(PrimespecError, match=r"^sample 0: 'certificate' recorded .*, "
                                             "recomputed None$"):
        verify_report(report)


def test_verify_report_fails_a_rerun_that_runs_out_of_time(monkeypatch, tmp_path):
    # Every sample re-runs with its deadline passed: a re-run that ends on the
    # wall clock confirms nothing, so the first sample, a good one, fails.
    path = tmp_path / "cone.ideal"
    path.write_text("params: T\nvars: Y1, Y2\ngens:\nY1^2 - T*Y2^2\n")
    report = run_experiment(ExperimentConfig(kind="ScalarSpec", ideal_path=str(path), box=4,
                                             samples=12, seed=1))
    assert classify(report["samples"][0]) == "good"
    _samples_out_of_time(monkeypatch)
    with pytest.raises(PrimespecError, match="^" + re.escape(
            "sample 0: 'reason' recorded absent, recomputed 'budget: wall-clock budget exceeded'; "
            "'verdict' recorded 'prime', recomputed 'inconclusive'")):
        verify_report(report)


def test_verify_report_accepts_samples_a_pair_budget_stops(tmp_path):
    # The lead T vanishes at t = 0, so that fiber runs its own Buchberger,
    # which one pair does not finish: run_sample records it inconclusive
    # with no dimension, and verify-report must find the same outcome.
    path = tmp_path / "pair_budget.ideal"
    path.write_text("params: T\nvars: Y1, Y2\ngens:\nT*Y1^2 + Y1*Y2 - 1\nY2^3 - Y1\n")
    report = run_experiment(ExperimentConfig(kind="ScalarSpec", ideal_path=str(path), box=2,
                                             samples=15, budgets=Budgets(gb_max_pairs=1)))
    stopped = [3, 4, 6, 9, 10]
    for index, sample in enumerate(report["samples"]):
        at_zero = sample["point"]["values"] == ["0"]
        assert at_zero == (index in stopped)
        assert (sample["verdict"] == "inconclusive") == at_zero
        if at_zero:
            assert sample["reason"] == "budget: pair budget 1 exceeded"
            assert sample["dimension"] is None
    assert verify_report(report) == (["accounting confirmed for 15 samples"]
                                     + [f"sample {i}: inconclusive verdict re-run"
                                        for i in stopped])
    report["samples"][3]["reason"] = "budget: term budget exceeded"
    with pytest.raises(PrimespecError, match="^sample 3: "):
        verify_report(report)


def _circle_cut_by_small_lines(circle_path):
    # Lines a + b*Y1 + c*Y2 with a, b, c in [-1, 1]: a nonzero constant
    # misses the circle (the unit ideal), and the zero line keeps all of it.
    return run_experiment(ExperimentConfig(kind="GenericIntersect", ideal_path=circle_path,
                                           box=1, samples=60, seed=0, degrees=(1,)))


def test_verify_report_reruns_genuine_bad_samples(circle_path):
    report = _circle_cut_by_small_lines(circle_path)
    samples = report["samples"]
    units = [s["index"] for s in samples if s["verdict"] == "unit_ideal"]
    [line] = [s for s in samples if s.get("degenerate_specialization")]
    assert len(units) == 4 and (line["verdict"], line["dimension"]) == ("prime", 1)
    reruns = {m for m in verify_report(report) if m.endswith(" re-run")}
    assert reruns == {f"sample {i}: unit_ideal verdict re-run" for i in units} | {
        f"sample {line['index']}: prime verdict re-run"}


def test_verify_report_recomputes_the_dimension_of_good_samples(circle_path):
    # Sample 0 is a constant line, the unit ideal; relabelled prime of the
    # expected dimension 0, with the aggregate recomputed, it raises good 8 -> 9.
    report = _circle_cut_by_small_lines(circle_path)
    sample = report["samples"][0]
    assert (sample["verdict"], sample["dimension"]) == ("unit_ideal", -1)
    sample.update(verdict="prime", dimension=0)
    report["aggregate"] = _aggregate(report["samples"])
    assert report["aggregate"]["good"] == 9
    with pytest.raises(PrimespecError, match=r"^sample 0: 'dimension' recorded 0, recomputed -1; "
                                             "'verdict' recorded 'prime', recomputed 'unit_ideal'$"):
        verify_report(report)


def test_certificate_replay_past_its_deadline_fails(monkeypatch, parabola_path, tmp_path, capsys):
    # Inside a certificate check the clock moves an hour per reading, so each
    # check is past its sample's deadline at its first reading.
    report = run_experiment(scalar_config(parabola_path, n=60, box=9, seed=2))
    first = next(s["index"] for s in report["samples"] if s["verdict"] == "not_prime")
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    check = experiments._certificate_error

    def late(*args):
        clock = itertools.count(time.monotonic() + 3600.0, 3600.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(time, "monotonic", lambda: next(clock))
            return check(*args)

    monkeypatch.setattr(experiments, "_certificate_error", late)
    with pytest.raises(PrimespecError, match=rf"^sample {first}: wall-clock budget exceeded$"):
        verify_report(report)
    assert main(["verify-report", str(path)]) == 1
    assert f"sample {first}: wall-clock budget exceeded" in capsys.readouterr().err


def test_verify_report_specializes_under_the_sample_budgets(monkeypatch, parabola_path):
    report = run_experiment(scalar_config(parabola_path, n=5))
    received = []
    specialize = experiments.specialize_point

    def recorded(*args):
        received.append(args[-1])
        return specialize(*args)

    monkeypatch.setattr(experiments, "specialize_point", recorded)
    verify_report(report)
    budgets = Budgets()
    assert len(received) == 5
    assert all(limits.deadline is not None for limits in received)
    assert {(limits.max_pairs, limits.max_term_count) for limits in received} == \
        {(budgets.gb_max_pairs, budgets.gb_max_term_count)}


def _late_replays(monkeypatch):
    """Make the clock move an hour per reading inside every replay."""
    replay = experiments._replay

    def late(*args):
        clock = itertools.count(step=3600.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(time, "monotonic", lambda: next(clock))
            return replay(*args)

    monkeypatch.setattr(experiments, "_replay", late)


def test_a_specialization_past_its_deadline_passes_only_samples_out_of_time(monkeypatch,
                                                                            parabola_path):
    # A PolySpec point builds its substitution root under the deadline, so with
    # the clock an hour on per reading each replay's specialization runs out:
    # a good sample's re-run then records the deadline, and fails.
    config = ExperimentConfig(kind="PolySpec", ideal_path=parabola_path, box=3, samples=4,
                              seed=1, degrees=(1,))
    good = run_experiment(config)
    assert good["aggregate"]["good"] == 4
    with monkeypatch.context() as patch:
        _samples_out_of_time(patch)
        late = run_experiment(config)
    assert {s["reason"] for s in late["samples"]} == {"budget: wall-clock budget exceeded"}
    _late_replays(monkeypatch)
    assert verify_report(late) == ["accounting confirmed for 4 samples"]
    with pytest.raises(PrimespecError, match=re.escape(
            "sample 0: 'dimension' recorded 0, recomputed None; "
            "'reason' recorded absent, recomputed 'budget: wall-clock budget exceeded'; "
            "'verdict' recorded 'prime', recomputed 'inconclusive'")):
        verify_report(good)


def _hourly_clock(monkeypatch):
    """Make time.monotonic move an hour per reading."""
    clock = itertools.count(step=3600.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))


def test_experiment_setup_runs_under_the_sample_deadline(monkeypatch, parabola_path, tmp_path,
                                                         capsys):
    config = tmp_path / "parabola.conf"
    config.write_text(f"kind = ScalarSpec\nideal = {parabola_path}\nH = 9\nn = 3\n")
    _hourly_clock(monkeypatch)
    with pytest.raises(BudgetExceededError, match="^wall-clock budget exceeded$"):
        run_experiment(scalar_config(parabola_path, n=3))
    assert main(["experiment", str(config)]) == 4
    assert "budget exhausted: wall-clock budget exceeded" in capsys.readouterr().err


def test_verify_report_recomputes_the_expected_dimension_under_a_deadline(monkeypatch,
                                                                          parabola_path):
    report = run_experiment(scalar_config(parabola_path, n=5))
    _hourly_clock(monkeypatch)
    with pytest.raises(PrimespecError, match="^header: wall-clock budget exceeded$"):
        verify_report(report)


def test_verify_report_caps_a_crafted_timeout(monkeypatch, parabola_path, tmp_path):
    # A timeout of 10^12 s is echoed as it stands, but verification keeps the
    # default deadline of 20 s: a clock that moves 100 s per reading passes it.
    # The pair and term budgets stay as echoed: under a term budget of 1 every
    # re-run ends on that budget again, as the samples did.
    cubic_path = tmp_path / "cubic_fiber.ideal"
    cubic_path.write_text(CUBIC_FIBER)
    huge = 10**15
    for path, budgets in ((parabola_path, Budgets()),
                          (str(cubic_path), Budgets(gb_max_term_count=1))):
        report = run_experiment(scalar_config(path, n=20, box=9, seed=2, budgets=budgets))
        report["config"]["budgets"]["sample_timeout_ms"] = huge
        assert verify_report(report)[0] == "accounting confirmed for 20 samples"
    assert report["aggregate"]["inconclusive"] == 20
    clock = itertools.count(step=100.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    with pytest.raises(PrimespecError, match="wall-clock budget exceeded$"):
        verify_report(report)


def test_csv_rows_carry_the_reason(tmp_path):
    path = tmp_path / "cone.ideal"
    path.write_text("params: T\nvars: Y1, Y2\ngens:\nY1^2 - T*Y2^2\n")
    report = run_experiment(ExperimentConfig(kind="ScalarSpec", ideal_path=str(path), box=4,
                                             samples=12, seed=1))
    emit_report(report, "csv", tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {(json.loads(row["point"])["values"][0], row["reason"])
            for row in rows if row["verdict"] == "inconclusive"} == {
        (t, "no field certificate at 5 specialization points u") for t in ("1", "4")}
    assert {row["reason"] for row in rows if row["verdict"] != "inconclusive"} == {""}


def test_csv_rows_flag_degenerate_specializations(circle_path, tmp_path):
    report = _circle_cut_by_small_lines(circle_path)
    emit_report(report, "csv", tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as handle:
        flags = [row["degenerate_specialization"] for row in csv.DictReader(handle)]
    assert "true" in flags
    assert flags == ["true" if s.get("degenerate_specialization") else ""
                     for s in report["samples"]]


def _tampered(value):
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    return str(Fraction(value) / 2)


@pytest.mark.parametrize("key", ["good", "bad", "inconclusive", "density_exact", "density_float",
                                 "decisive_density_exact", "decisive_density_float"])
def test_verify_report_checks_every_aggregate_field(key, parabola_path):
    report = run_experiment(scalar_config(parabola_path, n=60, box=9, seed=2))
    verify_report(report)
    report["aggregate"][key] = _tampered(report["aggregate"][key])
    with pytest.raises(PrimespecError, match=rf"^aggregate: '{key}' recorded .*, recomputed "):
        verify_report(report)


TAMPERED_POINTS = {
    "lambda point in a ScalarSpec report": (
        "ScalarSpec", (), 9, lambda point: {"kind": "lambda", "blocks": [["1", "0", "1"]]}),
    "PolySpec value above its degree": (
        "PolySpec", (1,), 3, lambda point: {**point, "values": ["Y^2 - 4"]}),
    "lambda block of the wrong length": (
        "GenericIntersect", (1,), 3, lambda point: {**point, "blocks": [point["blocks"][0][:-1]]}),
    "PolySpec point degrees differ from the config": (
        "PolySpec", (1,), 3, lambda point: {**point, "degrees": [7]}),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_POINTS))
def test_verify_report_rejects_tampered_points(case, parabola_path, circle_path, tmp_path):
    kind, degrees, box, tamper = TAMPERED_POINTS[case]
    path = circle_path if kind == "GenericIntersect" else parabola_path
    report = run_experiment(ExperimentConfig(kind=kind, ideal_path=path, box=box, samples=60,
                                             seed=2, degrees=degrees))
    # every point is re-drawn, so a bad sample's fails like a good one's
    sample = next(s for s in report["samples"] if classify(s) == "bad")
    sample["point"] = tamper(sample["point"])
    with pytest.raises(PrimespecError, match=rf"^sample \d+: {POINT_DIFFERS}$"):
        verify_report(json.loads(json.dumps(report)))
    # main returns the exit code only when it catches the error: no traceback
    report_path = tmp_path / "tampered.json"
    emit_report(report, "json", report_path)
    assert main(["verify-report", str(report_path)]) == 1


def test_intersect_experiment_runs(circle_path):
    config = ExperimentConfig(kind="GenericIntersect", ideal_path=circle_path,
                              box=30, samples=40, seed=6, degrees=(1,))
    report = run_experiment(config)
    agg = report["aggregate"]
    assert agg["good"] > 0
    assert report["config"]["expected_dimension"] == 0
    verify_report(report)


def _load(path):
    with open(path) as handle:
        return Ideal(*parse_ideal_source(handle.read()))


def test_one_cut_samples_are_fibers_of_the_cutting_root(circle_path, monkeypatch):
    # The line 3 + Y1 + 2*Y2 misses the real circle: a closed point of degree 2,
    # certified from the root's eliminant, with no basis of the fiber built.
    circle = _load(circle_path)
    krylov = []
    monkeypatch.setattr(primality, "minimal_polynomial", lambda *args: krylov.append(args))
    fiber, degenerate = experiments.specialize_point(circle, "GenericIntersect", (1,),
                                                     [[3, 1, 2]])
    root, values = fiber.root
    assert root is circle.sampling_root((1,), True) and not degenerate
    assert [str(g) for g in root.generators] == ["Y1^2 + Y2^2 - 1", "L1*Y1 + L2*Y2 + L0"]
    assert values == {"L0": 3, "L1": 1, "L2": 2}
    verdict = is_prime(fiber)
    assert verdict.status == "prime" and not krylov
    assert fiber._cache == {}
    assert fiber.generators == intersect_generic(circle, (1,), [[3, 1, 2]]).generators


def test_polyspec_samples_are_fibers_of_the_substitution_root(parabola_path, monkeypatch):
    # T = 3 + 2*Y + 5*Y^2 gives -4*Y^2 - 2*Y - 3, of discriminant -44: a closed
    # point of degree 2, certified from the root's eliminant, with no basis of
    # the fiber built.
    parabola = _load(parabola_path)
    krylov = []
    monkeypatch.setattr(primality, "minimal_polynomial", lambda *args: krylov.append(args))
    fiber, degenerate = experiments.specialize_point(parabola, "PolySpec", (2,), [[3, 2, 5]])
    root, values = fiber.root
    assert root is parabola.sampling_root((2,), False) and not degenerate
    assert [str(g) for g in root.generators] == ["-L2*Y^2 - L1*Y + Y^2 - L0"]
    assert values == {"L0": 3, "L1": 2, "L2": 5}
    verdict = is_prime(fiber)
    assert verdict.status == "prime" and not krylov
    assert fiber._cache == {}
    value = parse_polynomial("3 + 2*Y + 5*Y^2", fiber.context)
    assert fiber.generators == specialize_polynomial(parabola, [value]).generators


def test_two_cuts_adjoin_their_forms(tmp_path):
    path = tmp_path / "sphere.ideal"
    path.write_text(SPHERE)
    sphere = _load(str(path))
    cut, _ = experiments.specialize_point(sphere, "GenericIntersect", (1, 1), [[0, 1, 0, 0],
                                                                            [0, 0, 1, 0]])
    assert cut.root == (cut, {}) and sphere._roots == {}
    assert [str(g) for g in cut.generators] == ["Y1^2 + Y2^2 + Y3^2 - 1", "Y1", "Y2"]


def test_root_over_budget_falls_back_to_the_adjoined_forms(circle_path, tmp_path, monkeypatch):
    # The circle's root needs 4 pairs and 5 terms for its (Y | L) basis, the
    # sphere's 11 terms.  Each budget below stops the root, and the samples
    # come out as the adjoined forms decide them: the first three budgets
    # stop no fiber, and under the last most fibers end inconclusive, and
    # verification re-runs them under the same budgets, again without the root.
    assert _load(circle_path).sampling_root((1,), True, GBLimits(max_pairs=4)) is not None
    circle = _load(circle_path)
    assert circle.sampling_root((1,), True, GBLimits(max_pairs=3)) is None
    assert circle._roots == {((1,), True): None}
    sphere_path = tmp_path / "sphere.ideal"
    sphere_path.write_text(SPHERE)
    runs = ((circle_path, Budgets(gb_max_pairs=3)), (circle_path, Budgets(gb_max_term_count=4)),
            (str(sphere_path), Budgets(gb_max_term_count=8)),
            (str(sphere_path), Budgets(gb_max_term_count=4)))
    configs = [ExperimentConfig(kind="GenericIntersect", ideal_path=path, box=20, samples=40,
                                seed=3, degrees=(1,), budgets=budgets) for path, budgets in runs]
    reports = [run_experiment(config) for config in configs]
    assert [report["aggregate"]["inconclusive"] for report in reports] == [0, 0, 0, 39]
    for report in reports:
        verify_report(report)
    monkeypatch.setattr(Ideal, "sampling_root", lambda self, degrees, cut, limits: None)
    for config, report in zip(configs, reports):
        assert report_hash(report) == report_hash(run_experiment(config))


# cubic_fiber at degrees 1, H 20, n 30 and seed 9, per gb.max_pairs: 3 pairs stop
# the substitution root, which needs 4, and 4 stop every fiber
POLYSPEC_BUDGET_HASHES = {3: "4f24ed562e8611ee", 4: "e90898c022f9eada", 8: "b07dacdee73f97f3"}


def test_polyspec_reports_are_the_same_without_the_root(tmp_path, monkeypatch):
    # With no substitution root every PolySpec sample substitutes its values,
    # and the reports are the ones the root gives; each verifies either way.
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert _load("ideals/cubic_fiber.ideal").sampling_root((1,), False,
                                                          GBLimits(max_pairs=4)) is not None
    assert _load("ideals/cubic_fiber.ideal").sampling_root((1,), False,
                                                          GBLimits(max_pairs=3)) is None
    two = tmp_path / "two.ideal"
    two.write_text(TWO_PARAMS)
    configs = [read_experiment_config("configs/polyspec_quadric.conf"),
               ExperimentConfig(kind="PolySpec", ideal_path=str(two), box=8, samples=60, seed=22,
                                degrees=(1, 0))]
    configs += [ExperimentConfig(kind="PolySpec", ideal_path="ideals/cubic_fiber.ideal", box=20,
                                 samples=30, seed=9, degrees=(1,),
                                 budgets=Budgets(gb_max_pairs=pairs))
                for pairs in POLYSPEC_BUDGET_HASHES]
    reports = [run_experiment(config) for config in configs]
    hashes = [report_hash(report)[:16] for report in reports]
    assert hashes[0] == SHIPPED_CONFIG_HASHES["polyspec_quadric"]
    assert hashes[2:] == list(POLYSPEC_BUDGET_HASHES.values())
    assert [report["aggregate"]["inconclusive"] for report in reports[2:]] == [30, 30, 0]
    for report in reports:
        verify_report(report)
    monkeypatch.setattr(Ideal, "sampling_root", lambda self, degrees, cut, limits: None)
    for config, report in zip(configs, reports):
        assert report_hash(report) == report_hash(run_experiment(config))
        verify_report(report)


def test_passed_deadline_stops_the_cutting_root(circle_path):
    # The circle's own bases are built first, so only the root's sees the deadline.
    circle = _load(circle_path)
    assert circle.dimension() == 1
    with pytest.raises(BudgetExceededError, match="^wall-clock budget exceeded$"):
        circle.sampling_root((1,), True, GBLimits(deadline=0.0))
    assert circle._roots == {}


def test_intersect_rho_validation(circle_path):
    config = ExperimentConfig(kind="GenericIntersect", ideal_path=circle_path,
                              box=10, samples=5, seed=1, degrees=(1, 1))
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_consistency_experiment(parabola_path):
    config = ExperimentConfig(kind="Consistency", ideal_path=parabola_path,
                              box=50, samples=20, seed=8, degrees=())
    report = run_experiment(config)
    assert report["aggregate"]["good"] == 20
    assert all(s["verdict"] == "consistent" for s in report["samples"])


def test_consistency_compares_the_specialized_basis(parabola_path):
    # With the root's (Y | T) basis replaced by that of another family, a
    # fiber's specialized basis differs from Buchberger's on its twin.
    parabola = _load(parabola_path)
    fiber = specialize_scalar(parabola, [4])
    assert experiments._consistent(fiber, GBLimits())
    other = Ideal(*parse_ideal_source("params: T\nvars: Y\ngens:\nY^3 - T\n"))
    order = parabola.block_order(fiber.context)
    parabola._cache[order] = other.groebner(order)
    assert not experiments._consistent(specialize_scalar(parabola, [4]), GBLimits())


def test_worker_pool_matches_sequential(parabola_path, tmp_path):
    # The cubic fibers are curves: their samples specialize an independent
    # variable, and the ideal reaches the workers with the bases cached by
    # the hypothesis gate.
    cubic_path = tmp_path / "cubic_fiber.ideal"
    cubic_path.write_text(CUBIC_FIBER)
    for path, n in ((parabola_path, 16), (str(cubic_path), 6)):
        sequential = run_experiment(scalar_config(path, n=n, seed=4))
        parallel = run_experiment(scalar_config(path, n=n, seed=4, workers=2))
        assert report_hash(sequential) == report_hash(parallel)


def test_worker_pool_matches_sequential_on_one_cut_intersections(circle_path):
    # Each worker builds the cutting root in its copy of the circle.
    config = ExperimentConfig(kind="GenericIntersect", ideal_path=circle_path, box=20,
                              samples=24, seed=2, degrees=(1,))
    parallel = run_experiment(replace(config, workers=2))
    assert report_hash(run_experiment(config)) == report_hash(parallel)
    assert parallel["aggregate"]["bad"] > 0 and parallel["aggregate"]["good"] > 0


POINTS = "params: T\nvars: Y1, Y2, Y3\ngens:\nY1^3 + T*Y2 - 1\nY2^2 - Y1*Y3 - T\nY3^2 - Y1 - Y2 + T\n"


def test_worker_pool_matches_sequential_on_zero_dimensional_fibers(tmp_path):
    # Every fiber certifies from the root's eliminant of Y3, which each
    # worker builds in its copy of the root
    path = tmp_path / "points.ideal"
    path.write_text(POINTS)
    sequential = run_experiment(scalar_config(str(path), n=12, box=100, seed=1))
    parallel = run_experiment(scalar_config(str(path), n=12, box=100, seed=1, workers=2))
    assert report_hash(sequential) == report_hash(parallel)
    assert sequential["aggregate"]["good"] >= 10


def test_worker_pool_starts_at_most_one_process_per_core(parabola_path, monkeypatch):
    # Under fork every worker is started on the first submit, and reports do
    # not depend on workers: the pool gets min(workers, cores) processes.  A
    # recording stand-in replaces the pool, so no process is started.
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, task, indices, chunksize=1):
            return map(task, indices)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = scalar_config(parabola_path, n=8, seed=4)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    capped = run_experiment(replace(config, workers=100000))
    assert started == [3]
    assert report_hash(capped) == report_hash(run_experiment(config))
    run_experiment(replace(config, workers=2))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_experiment(replace(config, workers=2))
    assert started == [3, 2, 1]


def test_budget_errors_mark_samples_inconclusive(tmp_path):
    # A term budget of 1 passes the baseline but stops every fiber's primality
    # test: in a reduction step, or in the Krylov elimination of the field test.
    path = tmp_path / "cubic_fiber.ideal"
    path.write_text(CUBIC_FIBER)
    config = scalar_config(str(path), n=6, budgets=Budgets(gb_max_term_count=1))
    report = run_experiment(config)
    assert report["aggregate"]["inconclusive"] == 6
    assert all("budget" in s.get("reason", "") for s in report["samples"])


def test_degenerate_specialization_flagged(tmp_path):
    # T specializes the lone generator to zero at t = 0
    path = tmp_path / "line.ideal"
    path.write_text("params: T\nvars: Y\ngens:\nT*Y\n")
    config = ExperimentConfig(kind="ScalarSpec", ideal_path=str(path), box=1,
                              samples=40, seed=0)
    report = run_experiment(config)
    flagged = [s for s in report["samples"] if s.get("degenerate_specialization")]
    assert flagged
    for sample in flagged:
        assert sample["dimension"] == 1  # the whole affine line


TWO_PARAMS = "params: T1, T2\nvars: Y1, Y2\ngens:\nY1^2 - T1\nY2 - T2*Y1\n"


def test_two_parameter_family(tmp_path):
    path = tmp_path / "two.ideal"
    path.write_text(TWO_PARAMS)
    config = ExperimentConfig(kind="ScalarSpec", ideal_path=str(path), box=500,
                              samples=60, seed=21)
    report = run_experiment(config)
    assert report["config"]["expected_dimension"] == 0
    assert report["aggregate"]["good"] > 0
    for sample in report["samples"]:
        assert len(sample["point"]["values"]) == 2
    verify_report(report)


def test_two_parameter_polynomial_values(tmp_path):
    path = tmp_path / "two.ideal"
    path.write_text(TWO_PARAMS)
    config = ExperimentConfig(kind="PolySpec", ideal_path=str(path), box=8,
                              samples=60, seed=22, degrees=(1, 0))
    report = run_experiment(config)
    assert report["aggregate"]["good"] > 0
    verify_report(report)
    # the second value is degree-bounded by 0, hence constant
    y_ctx = context(("Y1", "Y2"))
    for sample in report["samples"]:
        second = parse_polynomial(sample["point"]["values"][1], y_ctx)
        assert second.total_degree() <= 0


SHIPPED_CONFIG_HASHES = {
    "circle_cut": "194ae3fbf574570f",
    "consistency": "281da058afc666f2",
    "cubic_fibers": "fc9210c6e75febda",
    "polyspec_cubic": "ca74412a251092e0",
    "polyspec_quadric": "a656bdafeb19984a",
    "scalar_parabola": "b66fd55b0c76ae8c",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_HASHES))
def test_shipped_config_report_hash(name, monkeypatch):
    # Golden verdicts: a speed-up that changes any verdict, certificate or
    # echoed field of a shipped config changes its hash.  Run from the repo
    # root, since the report echoes the ideal path as the config resolves it.
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    report = run_experiment(read_experiment_config(f"configs/{name}.conf"))
    assert report_hash(report)[:16] == SHIPPED_CONFIG_HASHES[name]
    reloaded = json.loads(json.dumps(report))
    assert report_hash(reloaded) == report_hash(report)
    verify_report(reloaded)


SPHERE_CUT_HASHES = {
    (1,): "99bb4ff2fbe1c7b9",  # curves, each a fiber of the cutting root
    (1, 1): "50925a165aa344c8",  # points, cut by two adjoined planes
}


@pytest.mark.parametrize("degrees", sorted(SPHERE_CUT_HASHES))
def test_sphere_cut_report_hash(degrees, tmp_path, monkeypatch):
    # No shipped config cuts a surface; the path is relative, as the report echoes it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sphere.ideal").write_text(SPHERE)
    report = run_experiment(ExperimentConfig(kind="GenericIntersect", ideal_path="sphere.ideal",
                                             box=20, samples=40, seed=5, degrees=degrees))
    assert report_hash(report)[:16] == SPHERE_CUT_HASHES[degrees]
    assert report["aggregate"]["good"] == 40
    verify_report(report)


@functools.lru_cache(maxsize=None)
def _shipped_report(name):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    report = run_experiment(read_experiment_config(os.path.join(repo, "configs", f"{name}.conf")))
    return json.dumps(report)


TAMPERED_DIMENSIONS = {
    # 100 good -> 0 good
    "cubic_fibers, every expected dimension 2": (
        "cubic_fibers", 2, None, "config: 'expected_dimension' recorded 2, recomputed 1"),
    "cubic_fibers, sample 3 expects 0": (
        "cubic_fibers", 0, 3, "sample 3: 'expected_dimension' recorded 0, recomputed 1"),
    "circle_cut, every expected dimension raised by 1": (
        "circle_cut", 1, None, "config: 'expected_dimension' recorded 1, recomputed 0"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_DIMENSIONS))
def test_verify_report_recomputes_the_expected_dimension(case):
    # With the aggregate recomputed, a rewritten expected dimension moves the
    # density while every replayed witness still holds.
    name, dimension, position, message = TAMPERED_DIMENSIONS[case]
    report = json.loads(_shipped_report(name))
    verify_report(report)
    if position is None:
        targets = [report["config"], *report["samples"]]
    else:
        targets = [report["samples"][position]]
    for target in targets:
        target["expected_dimension"] = dimension
    report["aggregate"] = _aggregate(report["samples"])
    with pytest.raises(PrimespecError, match=rf"^{re.escape(message)}$"):
        verify_report(report)


def test_verify_report_requires_the_expected_dimension():
    report = json.loads(_shipped_report("circle_cut"))
    del report["config"]["expected_dimension"]
    with pytest.raises(PrimespecError,
                       match="^config: 'expected_dimension' recorded absent, recomputed 0$"):
        verify_report(report)


def test_expected_dimension_is_that_of_the_generic_fiber(tmp_path):
    # (T*Y1, T*Y2) meets Q[T] only in 0 and has dimension 2 = r + 1, but its
    # generic fiber (Y1, Y2) is a point: every fiber at t != 0 is good.
    path = tmp_path / "lines.ideal"
    path.write_text("params: T\nvars: Y1, Y2\ngens:\nT*Y1\nT*Y2\n")
    report = run_experiment(scalar_config(str(path), n=20, box=3, seed=1))
    assert report["config"]["expected_dimension"] == 0
    # at t = 0 the ideal is zero: the plane, of dimension 2
    degenerate = [s["point"]["values"] == ["0"] for s in report["samples"]]
    assert 0 < sum(degenerate) < 20
    assert [classify(s) for s in report["samples"]] == ["bad" if d else "good" for d in degenerate]
    verify_report(report)
