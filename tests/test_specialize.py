"""Scalar/polynomial specialization, generic forms and generic intersection."""

from fractions import Fraction

import pytest

from primespec import (ContextMismatchError, Polynomial, context, eliminate, generic_form,
                       grevlex, intersect_generic, is_prime, monomials_upto, parse_polynomial,
                       specialize_polynomial, specialize_scalar)
from primespec.primality import NOT_PRIME, PRIME

from conftest import make_ideal, seeded


def test_scalar_specialization_substitutes(parabola_family):
    result = specialize_scalar(parabola_family, (4,))
    assert [str(g) for g in result.generators] == ["Y^2 - 4"]
    assert result.context.param_names == ()


def test_scalar_specialization_preserves_prime_fiber(parabola_family):
    result = specialize_scalar(parabola_family, (2,))
    assert is_prime(result, seed=0).status == PRIME
    assert result.dimension() == 0


def test_scalar_specialization_of_curve_family(cubic_fiber_family):
    result = specialize_scalar(cubic_fiber_family, (1,))
    assert result.dimension() == 1
    assert is_prime(result, seed=0).status == PRIME


def test_scalar_arity_checked(parabola_family):
    with pytest.raises(ValueError):
        specialize_scalar(parabola_family, (1, 2))


def test_scalar_matches_generatorwise_substitution(parabola_family):
    rng = seeded(51)
    target = parabola_family.context.without_params()
    for _ in range(25):
        t = Fraction(rng.randint(-50, 50))
        result = specialize_scalar(parabola_family, (t,))
        direct = [g.substitute({"T": t}, target) for g in parabola_family.generators]
        assert list(result.generators) == [g for g in direct if not g.is_zero]


def test_polynomial_specialization_irreducible_image(parabola_family):
    y_ctx = parabola_family.context.without_params()
    u = parse_polynomial("Y + 1", y_ctx)
    result = specialize_polynomial(parabola_family, (u,))
    assert [str(g) for g in result.generators] == ["Y^2 - Y - 1"]
    assert is_prime(result, seed=0).status == PRIME


def test_polynomial_specialization_degenerate_cancellation(parabola_family):
    y_ctx = parabola_family.context.without_params()
    result = specialize_polynomial(parabola_family, (parse_polynomial("Y^2", y_ctx),))
    assert result.is_zero
    assert result.dimension() == 1  # the whole line: dimension s


def test_degree_zero_matches_scalar_bit_for_bit():
    rng = seeded(52)
    families = [
        make_ideal(("Y",), ["Y^2 - T"], params=("T",)),
        make_ideal(("Y1", "Y2", "Y3"), ["Y2 - T*Y1^2", "Y3 - Y1*Y2"], params=("T",)),
    ]
    for k in range(50):
        family = families[k % len(families)]
        y_ctx = family.context.without_params()
        t = tuple(Fraction(rng.randint(-30, 30)) for _ in family.context.param_names)
        scalar = specialize_scalar(family, t)
        constant = specialize_polynomial(
            family, tuple(Polynomial.constant(y_ctx, v) for v in t))
        assert scalar.generators == constant.generators
        assert scalar.groebner(grevlex).polys == constant.groebner(grevlex).polys


def test_generic_form_rational_block_drops_zeros():
    ctx = context(("Y1", "Y2"))
    form = generic_form(ctx, monomials_upto(2, 1), (2, 0, Fraction(-1, 3)))
    assert form == parse_polynomial("2 - 1/3 Y2", ctx)
    assert form.terms == {(0, 0): 2, (0, 1): Fraction(-1, 3)}
    assert generic_form(ctx, monomials_upto(2, 2), (0,) * 6).is_zero


def test_generic_form_mixed_layout():
    # (T | Y): exponents land on the Y slots, the T slot stays zero
    ctx = context(("Y1", "Y2"), params=("T",))
    form = generic_form(ctx, ((0, 0), (2, 1), (0, 1)), (3, Fraction(1, 2), -5))
    assert form.terms == {(0, 0, 0): 3, (0, 2, 1): Fraction(1, 2), (0, 0, 1): -5}
    assert form == parse_polynomial("3 + 1/2*Y1^2*Y2 - 5*Y2", ctx)


def test_generic_form_length_mismatch_rejected():
    ctx = context(("Y1", "Y2"))
    support = monomials_upto(2, 1)
    for coefficients in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            generic_form(ctx, support, coefficients)
    with pytest.raises(ValueError):
        generic_form(ctx, ((0, 0, 1),), (1,))


def test_intersect_empty_is_identity(circle):
    assert intersect_generic(circle, (), ()) is circle


def test_intersect_bad_lambda_reducible(circle):
    # lambda = (0,0,1) cuts with the line Y2 = 0, leaving Y1^2 - 1: reducible
    cut = intersect_generic(circle, (1,), ((0, 0, 1),))
    assert [str(g) for g in cut.generators] == ["Y1^2 + Y2^2 - 1", "Y2"]
    assert is_prime(cut, seed=0).status == NOT_PRIME


def test_intersect_good_lambda_prime(circle):
    # 2 + Y1 + Y2: eliminating Y2 leaves 2Y1^2 + 4Y1 + 3 with discriminant -8
    cut = intersect_generic(circle, (1,), ((2, 1, 1),))
    verdict = is_prime(cut, seed=0)
    assert verdict.status == PRIME
    assert cut.dimension() == 0


def test_intersect_secant_through_rational_points(circle):
    # 1 + Y1 + Y2 meets the circle at (0,-1) and (-1,0): not prime
    cut = intersect_generic(circle, (1,), ((1, 1, 1),))
    assert is_prime(cut, seed=0).status == NOT_PRIME


def test_intersect_codimension_bounded(circle):
    with pytest.raises(ValueError):
        intersect_generic(circle, (1, 1), ((1, 1, 1), (1, 1, 1)))


def test_intersect_requires_plain_context(parabola_family):
    with pytest.raises(ContextMismatchError):
        intersect_generic(parabola_family, (1,), ((1, 1),))


def test_cut_dimension_drops_by_one_when_prime():
    # whenever the cut is certified prime its dimension is exactly d - rho
    ideals = [
        make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"]),
        make_ideal(("Y1", "Y2", "Y3"), ["Y2 - Y1^2", "Y3 - Y1^3"]),
    ]
    rng = seeded(53)
    for ideal in ideals:
        d = ideal.dimension()
        confirmed = 0
        for _ in range(100):
            block = tuple(Fraction(rng.randint(-20, 20))
                          for _ in range(len(ideal.context.var_names) + 1))
            cut = intersect_generic(ideal, (1,), (block,))
            verdict = is_prime(cut, trials=3, seed=rng.randint(0, 10**6))
            if verdict.status == PRIME:
                confirmed += 1
                assert cut.dimension() == d - 1
        assert confirmed > 0


def test_parametric_pointwise_commutation(parabola_family):
    # Independent oracle: adjoin T - u(Y) and eliminate T.
    ctx = parabola_family.context
    y_ctx = ctx.without_params()
    rng = seeded(54)
    for _ in range(25):
        a = Fraction(rng.randint(-20, 20))
        b = Fraction(rng.randint(-20, 20))
        u = Polynomial.constant(y_ctx, a) + Polynomial.variable(y_ctx, "Y") * b
        direct = specialize_polynomial(parabola_family, (u,))
        graph = parabola_family.adjoin([Polynomial.variable(ctx, "T") - u.embed(ctx)])
        eliminated = eliminate(graph, ("Y",))
        assert eliminated.groebner(grevlex).polys == direct.groebner(grevlex).polys


def test_double_cut_of_sphere_drops_dimension_by_two():
    sphere = make_ideal(("Y1", "Y2", "Y3"), ["Y1^2 + Y2^2 + Y3^2 - 1"])
    assert sphere.dimension() == 2
    rng = seeded(55)
    confirmed = 0
    for k in range(30):
        blocks = tuple(tuple(Fraction(rng.randint(-15, 15)) for _ in range(4))
                       for _ in range(2))
        cut = intersect_generic(sphere, (1, 1), blocks)
        if is_prime(cut, trials=3, seed=k).status == PRIME:
            confirmed += 1
            assert cut.dimension() == 0
    assert confirmed > 10
