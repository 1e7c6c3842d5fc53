"""Generic/quasi-generic constructors and the sufficient hypothesis test."""

import math

import pytest

from primespec import (Polynomial, QuasiGenericSpec, context, generic_form,
                       hypothesis_h_sufficient, monomials_upto, parse_polynomial,
                       quasi_generic)
from primespec.genpoly import HOLDS_BY_LEMMA, UNKNOWN

from conftest import make_ideal


def lam(n, prefix="M"):
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def y_names(s):
    return tuple(f"Y{i}" for i in range(1, s + 1))


def generic(s, degree, names):
    """The degree-bounded generic form over (lambda block | Y block)."""
    ctx = context(y_names(s), lambdas=(("L", names),))
    return generic_form(ctx, monomials_upto(s, degree), names)


def test_degree_zero_generic_is_a_single_parameter():
    g = generic(1, 0, ("M1",))
    assert len(g.terms) == 1
    assert str(g) == "M1"


def test_degree_one_generic_two_variables():
    g = generic(2, 1, lam(3))
    assert len(g.terms) == 3
    assert g == parse_polynomial("M1 + M2*Y1 + M3*Y2", g.context)


def test_monomial_count_s2_d2():
    assert len(generic(2, 2, lam(6)).terms) == 6


@pytest.mark.parametrize("s,degree", [(s, d) for s in range(1, 5) for d in range(6)])
def test_count_matches_binomial(s, degree):
    names = lam(math.comb(s + degree, degree))
    assert len(generic(s, degree, names).terms) == math.comb(s + degree, degree)


def test_block_size_mismatch_rejected():
    with pytest.raises(ValueError):
        generic(2, 1, lam(2))


def test_quasi_generic_degree_zero_offset_minus_parameter():
    ctx = context(("Y",), params=("T1",))
    spec = QuasiGenericSpec(support=((0,),), offset=-Polynomial.variable(ctx, "T1"),
                            lambda_names=("M1",))
    assert str(quasi_generic(spec)) == "M1 - T1"


def test_quasi_generic_full_support_equals_generic():
    # The expected form is built from variables alone, by products and sums.
    for s in range(1, 4):
        for degree in range(4):
            names = lam(math.comb(s + degree, degree))
            spec = QuasiGenericSpec(support=tuple(monomials_upto(s, degree)),
                                    offset=Polynomial.zero(context(y_names(s))),
                                    lambda_names=names)
            ctx = context(y_names(s), lambdas=(("L", names),))
            expected = Polynomial.zero(ctx)
            for name, exp in zip(names, monomials_upto(s, degree)):
                term = Polynomial.variable(ctx, name)
                for y, e in zip(y_names(s), exp):
                    term = term * Polynomial.variable(ctx, y) ** e
                expected = expected + term
            assert quasi_generic(spec) == expected


def test_quasi_generic_partial_support_with_offset():
    ctx = context(("Y1", "Y2"))
    spec = QuasiGenericSpec(support=((0, 0), (1, 0)),
                            offset=parse_polynomial("Y2^3", ctx), lambda_names=lam(2))
    assert quasi_generic(spec) == parse_polynomial("M1 + M2*Y1 + Y2^3", quasi_generic(spec).context)


def test_quasi_generic_validations():
    ctx = context(("Y1", "Y2"))
    zero = Polynomial.zero(ctx)
    with pytest.raises(ValueError):
        QuasiGenericSpec(support=((1, 0), (0, 0)), offset=zero, lambda_names=lam(2))
    with pytest.raises(ValueError):
        QuasiGenericSpec(support=((0, 0), (0, 0)), offset=zero, lambda_names=lam(2))
    with pytest.raises(ValueError):
        QuasiGenericSpec(support=((0, 0),), offset=zero, lambda_names=("Y1",))


def test_hypothesis_holds_for_positive_dimension():
    circle = make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"])
    spec = QuasiGenericSpec(support=tuple(monomials_upto(2, 1)),
                            offset=Polynomial.zero(circle.context), lambda_names=lam(3))
    assert hypothesis_h_sufficient(circle, spec).status == HOLDS_BY_LEMMA


def test_hypothesis_unknown_on_maximal_ideals():
    for gens in (["Y - 3"], ["Y^2 - 2"]):
        ideal = make_ideal(("Y",), gens)
        spec = QuasiGenericSpec(support=tuple(monomials_upto(1, 1)),
                                offset=Polynomial.zero(ideal.context), lambda_names=lam(2))
        status = hypothesis_h_sufficient(ideal, spec, seed=1)
        assert status.status == UNKNOWN
        assert "maximal" in status.reason


def test_hypothesis_holds_for_nonprime_zero_dimensional():
    ideal = make_ideal(("X", "Y"), ["Y - X", "Y - X^2"])
    spec = QuasiGenericSpec(support=tuple(monomials_upto(2, 1)),
                            offset=Polynomial.zero(ideal.context), lambda_names=lam(3))
    assert hypothesis_h_sufficient(ideal, spec, seed=1).status == HOLDS_BY_LEMMA


def test_hypothesis_variable_covered_by_offset():
    # support misses Y2 but the offset equals it
    circle = make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"])
    ctx = circle.context
    spec = QuasiGenericSpec(support=((0, 0), (1, 0)),
                            offset=Polynomial.variable(ctx, "Y2"), lambda_names=lam(2))
    assert hypothesis_h_sufficient(circle, spec).status == HOLDS_BY_LEMMA
    spec_missing = QuasiGenericSpec(support=((0, 0), (1, 0)),
                                    offset=Polynomial.zero(ctx), lambda_names=lam(2))
    assert hypothesis_h_sufficient(circle, spec_missing).status == UNKNOWN


def test_hypothesis_reblocked_parameter_offset():
    family = make_ideal(("Y",), ["Y^2 - T1"], params=("T1",))
    ctx = family.context
    # degree 0: support {1} does not contain Y, stays unknown by convention
    d0 = QuasiGenericSpec(support=((0,),), offset=-Polynomial.variable(ctx, "T1"),
                          lambda_names=("M1",))
    assert hypothesis_h_sufficient(family, d0).status == UNKNOWN
    # degree 1: support contains Y and the offset covers T1
    d1 = QuasiGenericSpec(support=((0,), (1,)), offset=-Polynomial.variable(ctx, "T1"),
                          lambda_names=lam(2))
    assert hypothesis_h_sufficient(family, d1).status == HOLDS_BY_LEMMA
