"""Degree-bounded generic forms sum(c_j * Y^e_j) with rational coefficients."""

import math
from fractions import Fraction

import pytest

from primespec import context, generic_form, monomials_upto, parse_polynomial


def y_names(s):
    return tuple(f"Y{i}" for i in range(1, s + 1))


def coefficients(n):
    """n distinct nonzero rationals, so no monomial of the support drops out."""
    return [Fraction((-1) ** j * (j + 1), j + 2) for j in range(n)]


def generic(s, degree, coeffs):
    """The degree-bounded generic form over Y1..Ys with the given coefficients."""
    return generic_form(context(y_names(s)), monomials_upto(s, degree), coeffs)


def test_degree_zero_generic_is_a_single_parameter():
    g = generic(1, 0, (Fraction(3, 7),))
    assert len(g.terms) == 1
    assert str(g) == "3/7"


def test_degree_one_generic_two_variables():
    g = generic(2, 1, coefficients(3))
    assert len(g.terms) == 3
    assert g == parse_polynomial("1/2 - 2/3*Y1 + 3/4*Y2", g.context)


def test_monomial_count_s2_d2():
    assert len(generic(2, 2, coefficients(6)).terms) == 6


@pytest.mark.parametrize("s,degree", [(s, d) for s in range(1, 5) for d in range(6)])
def test_count_matches_binomial(s, degree):
    n = math.comb(s + degree, degree)
    assert len(generic(s, degree, coefficients(n)).terms) == n


def test_block_size_mismatch_rejected():
    with pytest.raises(ValueError):
        generic(2, 1, coefficients(2))
