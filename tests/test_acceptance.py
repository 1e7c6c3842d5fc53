"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible under ``pytest -s``) and
asserts its runtime budget.  Derived expectations come from independent
oracles computed inside the tests: square counting, quadratic
discriminants, fiberwise curve parametrization, exhaustive divisor
search, and staircase bookkeeping.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from primespec import (Polynomial, context, eliminate, factor_univariate, fiber_dimension,
                       is_prime, parse_polynomial)
from primespec.experiments import (ExperimentConfig, classify, report_hash,
                                   run_experiment, verify_report)
from primespec.factor import mignotte_factor_height

from conftest import make_ideal
from factor_oracle import brute_force_factor_oracle

PARABOLA = "params: T\nvars: Y\ngens:\nY^2 - T\n"
CIRCLE = "vars: Y1, Y2\ngens:\nY1^2 + Y2^2 - 1\n"
CUBIC_FIBER = "params: T\nvars: Y1, Y2, Y3\ngens:\nY2 - T*Y1^2\nY3 - Y1*Y2\n"


@pytest.fixture
def ideal_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def timed(budget_s):
    start = time.monotonic()

    def check(label):
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"{label} took {elapsed:.1f}s, budget {budget_s}s"
        return elapsed
    return check


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def test_criterion_1_two_point_counterexample():
    check = timed(1.0)
    ideal = make_ideal(("X", "Y"), ["Y - X", "Y - X^2"])
    verdict = is_prime(ideal, trials=5, seed=0)
    assert verdict.status == "not_prime"
    f, g = verdict.certificate
    basis = ideal.groebner()
    assert basis.contains(f * g)
    assert not basis.contains(f)
    assert not basis.contains(g)
    assert ideal.dimension() == 0
    elapsed = check("criterion 1")
    print(f"\nPASS criterion 1: counterexample certified not prime with replay "
          f"({elapsed:.2f}s)")


def test_criterion_2_scalar_density_codim_1(ideal_file):
    check = timed(30.0)
    config = ExperimentConfig(kind="ScalarSpec", ideal_path=ideal_file("p.ideal", PARABOLA),
                              box=10**6, samples=2000, seed=42, trials=5)
    report = run_experiment(config)
    agg = report["aggregate"]
    decisive = agg["good"] + agg["bad"]
    assert decisive > 0
    assert Fraction(agg["good"], decisive) >= Fraction(99, 100)
    verify_report(report)
    for sample in report["samples"]:
        if classify(sample) == "bad":
            t = int(Fraction(sample["point"]["values"][0]))
            assert is_perfect_square(t), f"bad sample at non-square t={t}"
    elapsed = check("criterion 2")
    print(f"PASS criterion 2: decisive density {agg['good']}/{decisive} >= 0.99, "
          f"all bad points are perfect squares ({elapsed:.1f}s)")


def test_criterion_3_scalar_density_codim_2(ideal_file):
    check = timed(60.0)
    config = ExperimentConfig(kind="ScalarSpec", ideal_path=ideal_file("c.ideal", CUBIC_FIBER),
                              box=100, samples=100, seed=11, trials=5)
    report = run_experiment(config)
    agg = report["aggregate"]
    decisive = agg["good"] + agg["bad"]
    assert decisive > 0
    assert agg["bad"] == 0 and Fraction(agg["good"], decisive) == 1
    assert all(s["dimension"] == 1 for s in report["samples"])
    elapsed = check("criterion 3")
    print(f"PASS criterion 3: decisive density 1.0 ({agg['good']}/{decisive}), "
          f"dimension 1 on all 100 samples ({elapsed:.1f}s)")


def _secant_oracle(l1, l2, l3):
    """Primality of <circle, l1 + l2*Y1 + l3*Y2> by discriminant arithmetic.

    Eliminating one variable leaves a quadratic whose discriminant is a
    perfect square exactly when the intersection points are rational.
    Returns True/False, or None for the degenerate zero line (where the
    cut is the whole circle).
    """
    if l2 == 0 and l3 == 0:
        return None if l1 == 0 else False  # unit ideal: not prime
    return not is_perfect_square(l2 * l2 + l3 * l3 - l1 * l1)


def test_criterion_4_generic_intersection_with_discriminant_oracle(ideal_file):
    check = timed(60.0)
    config = ExperimentConfig(kind="GenericIntersect", ideal_path=ideal_file("ci.ideal", CIRCLE),
                              box=50, samples=500, seed=7, trials=5, degrees=(1,))
    report = run_experiment(config)
    agg = report["aggregate"]
    decisive = agg["good"] + agg["bad"]
    assert decisive > 0
    assert Fraction(agg["good"], decisive) >= Fraction(9, 10)
    for sample in report["samples"]:
        label = classify(sample)
        if label == "inconclusive":
            continue
        l1, l2, l3 = (int(Fraction(v)) for v in sample["point"]["blocks"][0])
        expect = _secant_oracle(l1, l2, l3)
        if expect is None:
            assert sample["verdict"] == "prime" and sample["dimension"] == 1
            continue
        assert (sample["verdict"] == "prime") == expect, sample
        if label == "good":
            assert sample["dimension"] == 0
    verify_report(report)
    elapsed = check("criterion 4")
    print(f"PASS criterion 4: decisive density {agg['good']}/{decisive} >= 0.9, "
          f"100% discriminant-oracle agreement ({elapsed:.1f}s)")


def test_criterion_5_polynomial_specialization_of_quadric(ideal_file):
    check = timed(30.0)
    config = ExperimentConfig(kind="PolySpec", ideal_path=ideal_file("p.ideal", PARABOLA),
                              box=20, samples=500, seed=9, trials=5, degrees=(2,))
    report = run_experiment(config)
    agg = report["aggregate"]
    decisive = agg["good"] + agg["bad"]
    assert decisive > 0
    assert Fraction(agg["good"], decisive) >= Fraction(9, 10)
    y_ctx = context(("Y",))
    y_squared = parse_polynomial("Y^2", y_ctx)
    for sample in report["samples"]:
        label = classify(sample)
        if label == "inconclusive":
            continue
        u = parse_polynomial(sample["point"]["values"][0], y_ctx)
        substituted = y_squared - u
        if substituted.total_degree() <= 0:
            expect_good = False
        else:
            _, factors = factor_univariate(substituted)
            irreducible = len(factors) == 1 and factors[0][1] == 1
            expect_good = irreducible and sample["dimension"] == 0
        assert (label == "good") == expect_good, sample
    elapsed = check("criterion 5")
    print(f"PASS criterion 5: decisive density {agg['good']}/{decisive} >= 0.9, "
          f"all verdicts match univariate factorization ({elapsed:.1f}s)")


def test_criterion_6_degree_zero_consistency(ideal_file):
    check = timed(30.0)
    total = 0
    for name, source, n in (("p.ideal", PARABOLA, 25), ("c.ideal", CUBIC_FIBER, 25)):
        config = ExperimentConfig(kind="Consistency", ideal_path=ideal_file(name, source),
                                  box=1000, samples=n, seed=13)
        report = run_experiment(config)
        assert report["aggregate"]["good"] == n
        assert all(s["verdict"] == "consistent" for s in report["samples"])
        total += n
    elapsed = check("criterion 6")
    print(f"PASS criterion 6: scalar and degree-0 polynomial specialization agree "
          f"on {total} random points ({elapsed:.1f}s)")


def test_criterion_7_factorization_oracle_equivalence():
    check = timed(120.0)
    y_ctx = context(("Y",))

    def build(coeffs):
        return Polynomial(y_ctx, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})

    total = 0
    for degree in range(1, 5):
        for lead in (c for c in range(-3, 4) if c):
            for rest in itertools.product(range(-3, 4), repeat=degree):
                coeffs = list(rest) + [lead]
                p = build(coeffs)
                _, factors = factor_univariate(p)
                reducible = not (len(factors) == 1 and factors[0][1] == 1)
                total += 1
                if degree >= 2:
                    height = mignotte_factor_height(coeffs, degree // 2)
                    found = brute_force_factor_oracle(p, degree // 2, height)
                    assert (found is not None) == reducible, str(p)

    import random
    rng = random.Random(71)
    for _ in range(200):
        degree = rng.randint(1, 8)
        coeffs = [rng.randint(-50, 50) for _ in range(degree)] + [rng.randint(1, 50)]
        p = build(coeffs)
        unit, factors = factor_univariate(p)
        product = Polynomial.constant(y_ctx, unit)
        for factor, multiplicity in factors:
            product = product * factor ** multiplicity
        assert product == p
    elapsed = check("criterion 7")
    print(f"PASS criterion 7: oracle agreement on {total} exhaustive univariates, "
          f"exact reconstruction on 200 random inputs ({elapsed:.1f}s)")


def test_criterion_8_parameter_dimension_bookkeeping():
    check = timed(10.0)
    cases = [
        (make_ideal(("Y",), ["Y^2 - T"], params=("T",)), 0),
        (make_ideal(("Y1", "Y2", "Y3"), ["Y2 - T*Y1^2", "Y3 - Y1*Y2"], params=("T",)), 1),
        (make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"]), 1),
    ]
    for ideal, fiber_dim in cases:
        params = ideal.context.param_names
        if params:
            assert eliminate(ideal, params).is_zero
            assert fiber_dimension(ideal, params) == fiber_dim
        assert ideal.dimension() == len(params) + fiber_dim
    elapsed = check("criterion 8")
    print(f"PASS criterion 8: total dimension equals r + fiber dimension for all "
          f"three families ({elapsed:.1f}s)")


def test_criterion_9_report_determinism(ideal_file):
    check = timed(60.0)
    config = ExperimentConfig(kind="GenericIntersect", ideal_path=ideal_file("ci.ideal", CIRCLE),
                              box=50, samples=500, seed=7, trials=5, degrees=(1,))
    first = run_experiment(config)
    second = run_experiment(config)
    assert report_hash(first) == report_hash(second)
    elapsed = check("criterion 9")
    print(f"PASS criterion 9: identical report hash {report_hash(first)[:16]}... "
          f"across reruns ({elapsed:.1f}s)")
