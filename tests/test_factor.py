"""Univariate factorization over Q and the brute-force divisor oracle."""

import time
from fractions import Fraction

import pytest

from primespec import (BudgetExceededError, GBLimits, Polynomial, brute_force_factor_oracle,
                       context, factor_univariate, is_irreducible_univariate,
                       parse_polynomial)
from primespec.factor import mignotte_factor_height

from conftest import seeded


@pytest.fixture
def y():
    return context(("Y",))


def reassemble(ctx, unit, factors):
    product = Polynomial.constant(ctx, unit)
    for factor, multiplicity in factors:
        product = product * factor ** multiplicity
    return product


def test_difference_of_squares(y):
    unit, factors = factor_univariate(parse_polynomial("Y^2 - 4", y))
    assert unit == 1
    assert [(str(f), m) for f, m in factors] == [("Y - 2", 1), ("Y + 2", 1)]


def test_sqrt_two_irreducible(y):
    unit, factors = factor_univariate(parse_polynomial("Y^2 - 2", y))
    assert unit == 1 and len(factors) == 1 and factors[0][1] == 1


def test_cyclotomic_octic_irreducible(y):
    # no factor of degree <= 2 within the Mignotte height exists
    p = parse_polynomial("Y^4 + 1", y)
    height = mignotte_factor_height([1, 0, 0, 0, 1], 2)
    assert brute_force_factor_oracle(p, 2, height) is None
    assert is_irreducible_univariate(p)


def test_degree_zero_returns_unit_only(y):
    unit, factors = factor_univariate(Polynomial.constant(y, Fraction(-3, 4)))
    assert unit == Fraction(-3, 4) and factors == []


def test_zero_rejected(y):
    with pytest.raises(ValueError):
        factor_univariate(Polynomial.zero(y))


def test_rational_content_extracted(y):
    unit, factors = factor_univariate(parse_polynomial("1/2 Y^2 - 1", y))
    assert unit == Fraction(1, 2)
    assert [str(f) for f, _ in factors] == ["Y^2 - 2"]


def test_multiplicities(y):
    p = parse_polynomial("(Y - 1)^3 (Y + 2)^2 (Y^2 + 1)", y)
    unit, factors = factor_univariate(p)
    assert reassemble(y, unit, factors) == p
    mults = {str(f): m for f, m in factors}
    assert mults == {"Y - 1": 3, "Y + 2": 2, "Y^2 + 1": 1}


def test_exact_reconstruction_on_random_inputs(y):
    rng = seeded(31)
    for _ in range(200):
        degree = rng.randint(1, 8)
        coeffs = [rng.randint(-50, 50) for _ in range(degree)] + [rng.randint(1, 50)]
        p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})
        unit, factors = factor_univariate(p)
        assert reassemble(y, unit, factors) == p
        for factor, _ in factors:
            content, primitive = factor.integer_content_primitive()
            assert content == 1 and primitive == factor


def test_expired_deadline_stops_factorization(y):
    # Y^4 + 1 is irreducible over Q but splits modulo every prime, so the
    # Hensel lift and the subset recombination both run.
    expired = GBLimits(deadline=time.monotonic() - 1)
    p = parse_polynomial("Y^4 + 1", y)
    assert len(factor_univariate(p)[1]) == 1
    with pytest.raises(BudgetExceededError):
        factor_univariate(p, expired)


def test_oracle_finds_first_divisor(y):
    assert str(brute_force_factor_oracle(parse_polynomial("Y^2 - 4", y), 1, 4)) == "Y - 2"
    assert brute_force_factor_oracle(parse_polynomial("Y^2 - 2", y), 1, 10) is None
    assert str(brute_force_factor_oracle(parse_polynomial("Y^3 - 1", y), 2, 2)) == "Y - 1"


def test_oracle_budget(y):
    with pytest.raises(BudgetExceededError):
        brute_force_factor_oracle(parse_polynomial("Y^5 - Y - 1", y), 2, 30, max_candidates=10)


def test_oracle_rejects_non_integer_input(y):
    with pytest.raises(ValueError):
        brute_force_factor_oracle(parse_polynomial("1/2 Y^2 - 1", y), 1, 3)


def test_oracle_agreement_small_family(y):
    # light version of the exhaustive acceptance check: degree <= 3, height <= 2
    import itertools

    for degree in (2, 3):
        for lead in (c for c in range(-2, 3) if c):
            for rest in itertools.product(range(-2, 3), repeat=degree):
                coeffs = list(rest) + [lead]
                p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})
                _, factors = factor_univariate(p)
                reducible = not (len(factors) == 1 and factors[0][1] == 1)
                height = mignotte_factor_height(coeffs, degree // 2)
                found = brute_force_factor_oracle(p, degree // 2, height)
                assert (found is not None) == reducible, str(p)
