"""CLI subcommands, output formats, and exit codes."""

import itertools
import json
import re
import time
from fractions import Fraction

import pytest

from primespec.cli import main

PARABOLA = "params: T\nvars: Y\ngens:\nY^2 - T\n"
TWO_POINTS = "vars: X, Y\ngens:\nY - X\nY - X^2\n"
BAD = "params: T\nvars: Y\ngens:\nY - T\nY - 1\n"


@pytest.fixture
def parabola(tmp_path):
    path = tmp_path / "parabola.ideal"
    path.write_text(PARABOLA)
    return str(path)


def test_gb_lex(tmp_path, capsys):
    path = tmp_path / "two_points.ideal"
    path.write_text(TWO_POINTS)
    assert main(["gb", str(path), "--order", "lex"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["X - Y", "Y^2 - Y"]


def test_dim(parabola, capsys):
    assert main(["dim", parabola]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_prime_not_prime_with_certificate(tmp_path, capsys):
    path = tmp_path / "two_points.ideal"
    path.write_text(TWO_POINTS)
    assert main(["prime", str(path), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "status: not_prime" in out
    assert "certificate f:" in out


def test_prime_prints_the_field_certificate(tmp_path, capsys):
    # the cusp: Y is independent, and the fiber X^3 = u^2 is a field for u != 0
    path = tmp_path / "cusp.ideal"
    path.write_text("vars: X, Y\ngens:\nY^2 - X^3\n")
    assert main(["prime", str(path), "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["status: prime", "U: (Y)"]
    assert re.fullmatch(r"u: \(-?[1-9]\d*\)", out[2])
    assert re.fullmatch(r"linear form: -?\d*\*?X", out[3])
    assert re.fullmatch(r"minimal polynomial: Z\^3 .*", out[4])
    assert len(out) == 5


def test_prime_names_the_minimal_polynomial_variable_apart(tmp_path, capsys):
    # the twisted cubic over (X, Y, Z) owns Z: the minimal polynomial is in Z_
    path = tmp_path / "twisted_cubic.ideal"
    path.write_text("vars: X, Y, Z\ngens:\nY - X^2\nZ - X^3\n")
    assert main(["prime", str(path), "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "status: prime"
    line = out[4]
    assert re.fullmatch(r"minimal polynomial: Z_\^3 .*", line)
    assert set(re.findall(r"[A-Za-z_]\w*", line.split(": ", 1)[1])) == {"Z_"}


def test_factor_command(capsys):
    assert main(["factor", "Y^4 - 5Y^2 + 4"]) == 0
    out = capsys.readouterr().out
    assert "unit: 1" in out
    assert out.count("factor:") == 4


def test_factor_rejects_multivariate(capsys):
    assert main(["factor", "X*Y - 1"]) == 2


@pytest.mark.parametrize("degree", ["99999999999", "9999999999999999999"])
def test_factor_past_the_term_budget_exits_4(degree, capsys):
    # the degree alone exceeds the default term budget: no dense list is built
    assert main(["factor", f"Y^{degree}"]) == 4
    assert capsys.readouterr().err == "budget exhausted: degree exceeds term budget\n"


def test_specialize_scalar(parabola, capsys):
    assert main(["specialize", parabola, "--at", "4"]) == 0
    out = capsys.readouterr().out
    assert "Y^2 - 4" in out


@pytest.mark.parametrize("value", ["\u0663", "1_0", "\uff13", "3.0", "2/-1", "+-3", ""],
                         ids=["arabic-indic three", "underscore", "fullwidth three", "decimal",
                              "signed denominator", "two signs", "empty"])
def test_specialize_at_takes_the_grammars_ascii_rationals_only(value, parabola, capsys):
    # Fraction("\u0663") is 3 and Fraction("1_0") is 10; the polynomial
    # grammar reads neither as a number, and neither does --at.
    assert main(["specialize", parabola, "--at", value]) == 2
    assert capsys.readouterr().err == (
        f"error: --at expects rationals such as -3 or 5/2, got {value!r}\n")


@pytest.mark.parametrize("value, line", [("5/2", "Y^2 - 5/2"), ("-3", "Y^2 + 3"),
                                         ("+7/14", "Y^2 - 1/2")])
def test_specialize_at_a_signed_rational(value, line, parabola, capsys):
    assert main(["specialize", parabola, "--at", value]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_specialize_poly_at(parabola, tmp_path, capsys):
    values = tmp_path / "u.poly"
    values.write_text("# the value of T\n\nY + 1  # degree 1\n")
    assert main(["specialize", parabola, "--poly-at", str(values)]) == 0
    assert "Y^2 - Y - 1" in capsys.readouterr().out


def test_specialize_poly_at_error_names_its_line(parabola, tmp_path, capsys):
    values = tmp_path / "u.poly"
    values.write_text("# the value of T\n\nY^2 +\n")
    assert main(["specialize", parabola, "--poly-at", str(values)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: expected a number, variable or parenthesized expression (at position 5)\n")


def test_specialize_zero_denominator_exit_code(parabola, capsys):
    # main returns the exit code only when it catches the error: no traceback
    assert main(["specialize", parabola, "--at", "1/0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_experiment_writes_report_and_verifies(parabola, tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text(
        f"kind = ScalarSpec\nideal = {parabola}\nH = 9\nn = 30\nseed = 2\n")
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert main(["experiment", str(config), "--out", str(out_path),
                 "--csv", str(csv_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["config"]["n"] == 30
    assert csv_path.read_text().count("\n") == 31  # header + samples
    capsys.readouterr()
    assert main(["verify-report", str(out_path)]) == 0
    assert "all checks confirmed" in capsys.readouterr().out


def test_experiment_hypothesis_violation_exit_code(tmp_path, capsys):
    ideal = tmp_path / "bad.ideal"
    ideal.write_text(BAD)
    config = tmp_path / "exp.conf"
    config.write_text(f"kind = ScalarSpec\nideal = {ideal}\nH = 5\nn = 3\n")
    assert main(["experiment", str(config)]) == 3
    assert "T - 1" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text("kind = ScalarSpec\nideal = x\nH = 5\nn = 3\nbogus = 1\n")
    assert main(["experiment", str(config)]) == 2


def test_budget_exit_code(parabola, tmp_path, capsys):
    # a pair budget of one stops the baseline Groebner run of a 2-generator ideal
    ideal = tmp_path / "curve.ideal"
    ideal.write_text("params: T\nvars: Y1, Y2, Y3\ngens:\nY2 - T*Y1^2\nY3 - Y1*Y2\n")
    config = tmp_path / "exp.conf"
    config.write_text(
        f"kind = ScalarSpec\nideal = {ideal}\nH = 5\nn = 3\ngb.max_pairs = 1\n")
    assert main(["experiment", str(config)]) == 4


def test_tampered_report_fails_verification(parabola, tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text(
        f"kind = ScalarSpec\nideal = {parabola}\nH = 9\nn = 30\nseed = 2\n")
    out_path = tmp_path / "report.json"
    assert main(["experiment", str(config), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    report["aggregate"]["good"] += 1
    out_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify-report", str(out_path)]) == 1


def test_verify_report_zero_denominator_exit_code(parabola, tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text(
        f"kind = ScalarSpec\nideal = {parabola}\nH = 9\nn = 30\nseed = 2\n")
    out_path = tmp_path / "report.json"
    assert main(["experiment", str(config), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    _first_not_prime(report)["point"]["values"] = ["1/0"]
    out_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify-report", str(out_path)]) == 1
    assert capsys.readouterr().err.startswith("verification failed: sample ")


def test_verify_report_decodes_good_sample_points(parabola, tmp_path, capsys):
    # A good sample's point is re-drawn too, so "1/0" there fails like anywhere else.
    config = tmp_path / "exp.conf"
    config.write_text(
        f"kind = ScalarSpec\nideal = {parabola}\nH = 9\nn = 30\nseed = 2\n")
    out_path = tmp_path / "report.json"
    assert main(["experiment", str(config), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    next(s for s in report["samples"] if s["verdict"] == "prime")["point"]["values"] = ["1/0"]
    out_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify-report", str(out_path)]) == 1
    assert capsys.readouterr().err.startswith("verification failed: sample ")


def _first_not_prime(report):
    return next(s for s in report["samples"] if s["verdict"] == "not_prime")


def _first_sample_made_unknown(report):
    # The aggregate is adjusted as if an unknown verdict counted as bad, so
    # only the verdict itself can fail verification.
    sample = report["samples"][0]
    assert sample["verdict"] == "prime" and sample["dimension"] == sample["expected_dimension"]
    sample["verdict"] = "bogus"
    aggregate = report["aggregate"]
    aggregate["good"] -= 1
    aggregate["bad"] += 1
    good, n = aggregate["good"], len(report["samples"])
    decisive = good + aggregate["bad"]
    aggregate.update(density_exact=str(Fraction(good, n)), density_float=good / n,
                     decisive_density_exact=str(Fraction(good, decisive)),
                     decisive_density_float=good / decisive)


MALFORMED_REPORTS = {
    "poly point without values": (
        lambda report: _first_not_prime(report)["point"].pop("values"), r"sample \d+: "),
    "not_prime sample with a null certificate": (
        lambda report: _first_not_prime(report).update(certificate=None), r"sample \d+: "),
    "not_prime certificate that does not parse": (
        lambda report: _first_not_prime(report)["certificate"].update(f="Y^"),
        r"sample \d+: exponent must be an unsigned integer"),
    "config with an unknown kind": (
        lambda report: report["config"].update(kind="Bogus"), "malformed report: "),
    "config with a negative degree": (
        lambda report: report["config"].update(degrees=[-1]), "malformed report: "),
    "aggregate without good": (
        lambda report: report["aggregate"].pop("good"), "aggregate: 'good' recorded absent, "),
    "prime sample with an unknown verdict": (_first_sample_made_unknown, "sample 0: "),
    "report without config": (lambda report: report.pop("config"), "malformed report: "),
    "report without aggregate": (lambda report: report.pop("aggregate"), "malformed report: "),
    "config without n": (lambda report: report["config"].pop("n"), "malformed report: "),
    # An echoed ideal that does not rebuild is a tampered field, not a parse error.
    "echo with gens that do not parse": (
        lambda report: report["config"]["ideal_source"].update(gens=["Y^"]),
        r"malformed report: PolynomialSyntaxError\('exponent must be an unsigned integer"),
    "echo with an unknown variable": (
        lambda report: report["config"]["ideal_source"].update(gens=["Y - Q"]),
        r"malformed report: UnknownVariableError\(\"unknown variable 'Q'"),
    "echo with a repeated variable": (
        lambda report: report["config"]["ideal_source"].update(vars=["Y", "Y"]),
        r"malformed report: ValueError\(\"duplicate variable name 'Y'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_verify_report_rejects_malformed_reports(case, parabola, tmp_path, capsys):
    tamper, reason = MALFORMED_REPORTS[case]
    config = tmp_path / "exp.conf"
    config.write_text(
        f"kind = PolySpec\nideal = {parabola}\nH = 3\nn = 40\nseed = 2\ndegrees = 1\n")
    out_path = tmp_path / "report.json"
    assert main(["experiment", str(config), "--out", str(out_path)]) == 0
    assert main(["verify-report", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    tamper(report)
    out_path.write_text(json.dumps(report))
    capsys.readouterr()
    # main returns the exit code only when it catches the error: no traceback
    assert main(["verify-report", str(out_path)]) == 1
    assert re.match("verification failed: " + reason, capsys.readouterr().err)


@pytest.mark.parametrize("command", [["gb"], ["dim"], ["prime"], ["specialize", "--at", "2"]])
def test_one_shot_commands_run_under_the_default_deadline(command, parabola, monkeypatch, capsys):
    clock = itertools.count(step=3600.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    assert main([command[0], parabola, *command[1:]]) == 4
    assert capsys.readouterr().err == "budget exhausted: wall-clock budget exceeded\n"


def test_factor_runs_under_the_default_deadline(monkeypatch, capsys):
    # Y^4 + 1 splits modulo every prime, so it takes the modular path, which
    # checks the deadline at every step.
    clock = itertools.count(step=3600.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    assert main(["factor", "Y^4 + 1"]) == 4
    assert capsys.readouterr().err == "budget exhausted: wall-clock budget exceeded\n"


def test_help_says_what_verify_report_checks(capsys):
    # verify-report re-runs good samples as well as failures, and rebuilds the header
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "verify-report re-run every sample of a report and compare it with its record" in out
