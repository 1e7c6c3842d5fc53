"""Exhaustive known-answer boxes: every point of a small box, checked both ways.

Each test runs every point of its box through ``experiments.specialize_point``
and ``is_prime`` and compares the verdict with an exact oracle, so a wrong
``prime`` and a wrong ``not_prime`` both fail.  No point may end inconclusive.
The oracles are discriminant rules: a quadratic over Q splits, or has a
double root, exactly when its discriminant is a perfect square.  The
cubic fibers need none: each is parametrized by a line, so it is prime.
The same oracles judge every sample of the shipped configs whose fibers
are circle cuts or parabola fibers.
"""

import collections
import itertools
import math
import os

import pytest

from primespec import context, is_prime, parse_polynomial
from primespec.experiments import read_experiment_config, run_experiment, specialize_point
from primespec.primality import NOT_PRIME, PRIME, UNIT_IDEAL


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def circle_line_oracle(l0, l1, l2):
    """Verdict for the circle cut with l0 + l1*Y1 + l2*Y2 = 0, a non-zero line.

    A constant line gives the unit ideal.  Otherwise eliminating one
    variable leaves a quadratic with discriminant a multiple of
    l1^2 + l2^2 - l0^2: a square means two rational points or a tangent.
    """
    if l1 == l2 == 0:
        return UNIT_IDEAL
    return NOT_PRIME if is_square(l1 * l1 + l2 * l2 - l0 * l0) else PRIME


def cut(ideal, line):
    specialized, _ = specialize_point(ideal, "GenericIntersect", (1,), [line])
    return specialized


def test_scalar_parabola_box(parabola_family):
    # Y^2 - t for every t in [-400, 400]: not prime exactly at the 21 squares.
    for t in range(-400, 401):
        specialized, _ = specialize_point(parabola_family, "ScalarSpec", (), [t])
        expected = NOT_PRIME if is_square(t) else PRIME
        assert is_prime(specialized, seed=0).status == expected, t


def test_circle_line_box(circle):
    # every non-zero line with coefficients in [-4, 4]^3: 728 cuts
    lines = [line for line in itertools.product(range(-4, 5), repeat=3) if any(line)]
    assert len(lines) == 728
    for line in lines:
        assert is_prime(cut(circle, line), seed=0).status == circle_line_oracle(*line), line


def test_circle_zero_line_is_the_whole_circle(circle):
    specialized = cut(circle, (0, 0, 0))
    assert specialized.dimension() == 1
    assert is_prime(specialized, seed=0).status == PRIME


def test_parabola_at_degree_one_values_box(parabola_family):
    # T -> a + b*Y gives Y^2 - b*Y - a: not prime exactly when b^2 + 4a is a square.
    for a, b in itertools.product(range(-15, 16), repeat=2):
        specialized, _ = specialize_point(parabola_family, "PolySpec", (1,), [[a, b]])
        expected = NOT_PRIME if is_square(b * b + 4 * a) else PRIME
        assert is_prime(specialized, seed=0).status == expected, (a, b)


def test_cubic_fiber_box(cubic_fiber_family):
    # Y2 = t*Y1^2, Y3 = Y1*Y2 is the image of a line for every t: a prime curve.
    for t in range(-100, 101):
        specialized, _ = specialize_point(cubic_fiber_family, "ScalarSpec", (), [t])
        assert specialized.dimension() == 1, t
        assert is_prime(specialized, seed=0).status == PRIME, t


def parabola_oracle(value):
    """Verdict for Y^2 - p(Y), p = a + b*Y + c*Y^2 given as text (a constant t included).

    For c != 1 the quadratic (1 - c)*Y^2 - b*Y - a splits, or has a double
    root, exactly when b^2 + 4*(1 - c)*a is a square.
    """
    p = parse_polynomial(value, context(("Y",)))
    a, b, c = (int(p.terms.get((k,), 0)) for k in range(3))
    if c == 1:
        return UNIT_IDEAL if a and not b else PRIME
    return NOT_PRIME if is_square(b * b + 4 * (1 - c) * a) else PRIME


def shipped_sample_oracle(point):
    if point["kind"] == "lambda":
        [line] = point["blocks"]
        return circle_line_oracle(*map(int, line))
    [value] = point["values"]
    return parabola_oracle(value)


@pytest.mark.parametrize("name, counts", [
    ("circle_cut", {PRIME: 468, NOT_PRIME: 32}),
    ("polyspec_quadric", {PRIME: 454, NOT_PRIME: 46}),
    ("scalar_parabola", {PRIME: 1998, NOT_PRIME: 2}),
])
def test_shipped_config_verdicts_match_the_oracles(name, counts, monkeypatch):
    # the report_hash pins also cover the certificates, which may change;
    # the verdicts must always agree with an oracle independent of is_prime
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    report = run_experiment(read_experiment_config(f"configs/{name}.conf"))
    for sample in report["samples"]:
        assert sample["verdict"] == shipped_sample_oracle(sample["point"]), sample
    assert collections.Counter(s["verdict"] for s in report["samples"]) == counts
