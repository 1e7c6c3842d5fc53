"""Exhaustive known-answer boxes: every point of a small box, checked both ways.

Each test runs every point of its box through ``experiments.specialize_point``
and ``is_prime`` and compares the verdict with an exact oracle, so a wrong
``prime`` and a wrong ``not_prime`` both fail.  No point may end inconclusive.
The oracles are discriminant rules: a quadratic over Q splits, or has a
double root, exactly when its discriminant is a perfect square.
"""

import itertools
import math

import pytest

from primespec import is_prime
from primespec.experiments import specialize_point
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
    point = {"kind": "lambda", "blocks": [[str(c) for c in line]]}
    return specialize_point(ideal, "GenericIntersect", (1,), point)


def test_scalar_parabola_box(parabola_family):
    # Y^2 - t for every t in [-400, 400]: not prime exactly at the 21 squares.
    for t in range(-400, 401):
        point = {"kind": "scalar", "values": [str(t)]}
        specialized = specialize_point(parabola_family, "ScalarSpec", (), point)
        expected = NOT_PRIME if is_square(t) else PRIME
        assert is_prime(specialized, seed=0).status == expected, t


def test_circle_line_box(circle):
    # every non-zero line with coefficients in [-4, 4]^3: 728 cuts
    lines = [line for line in itertools.product(range(-4, 5), repeat=3) if any(line)]
    assert len(lines) == 728
    for line in lines:
        assert is_prime(cut(circle, line), seed=0).status == circle_line_oracle(*line), line


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a positive-dimensional prime ideal "
                                       "ends inconclusive when a section splits "
                                       "and its certificate does not descend")
def test_circle_zero_line_is_the_whole_circle(circle):
    specialized = cut(circle, (0, 0, 0))
    assert specialized.dimension() == 1
    assert is_prime(specialized, seed=0).status == PRIME


def test_parabola_at_degree_one_values_box(parabola_family):
    # T -> a + b*Y gives Y^2 - b*Y - a: not prime exactly when b^2 + 4a is a square.
    for a, b in itertools.product(range(-15, 16), repeat=2):
        point = {"kind": "poly", "values": [f"({a}) + ({b})*Y"], "degrees": [1]}
        specialized = specialize_point(parabola_family, "PolySpec", (1,), point)
        expected = NOT_PRIME if is_square(b * b + 4 * a) else PRIME
        assert is_prime(specialized, seed=0).status == expected, (a, b)
