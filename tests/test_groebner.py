"""Buchberger engine: bases, normal forms, dimension, elimination, budgets."""

import pytest

from primespec import (BudgetExceededError, GBLimits, Ideal, Polynomial, buchberger,
                       context, eliminate, fiber_dimension, grevlex, lex, parse_polynomial)

from conftest import make_ideal, random_polynomial, seeded, suite_proper_ideals


def test_lex_basis_of_two_point_ideal(two_points):
    # hand Buchberger: g1 = X - Y, spoly with X^2 - Y reduces to Y^2 - Y
    basis = two_points.groebner(lex)
    ctx = two_points.context
    assert basis.polys == (parse_polynomial("X - Y", ctx), parse_polynomial("Y^2 - Y", ctx))


def test_single_generator_is_its_own_basis():
    ideal = make_ideal(("Y",), ["Y^2 - 4"])
    assert ideal.groebner(grevlex).polys == (parse_polynomial("Y^2 - 4", ideal.context),)


def test_unit_ideal_normalizes_to_one():
    ctx = context(("Y",))
    ideal = Ideal(ctx, [Polynomial.constant(ctx, 3)])
    basis = ideal.groebner(grevlex)
    assert basis.polys == (Polynomial.constant(ctx, 1),)
    assert basis.is_unit


def test_normal_form_witnesses_membership(two_points):
    # X^2 - X = (Y - X^2) * (-1) + (Y - X) lies in the ideal
    basis = two_points.groebner(lex)
    assert basis.normal_form(parse_polynomial("X^2 - X", two_points.context)).is_zero


def test_normal_form_of_zero_and_reduced(two_points):
    ctx = context(("Y",))
    basis = make_ideal(("Y",), ["Y^2 - 4"]).groebner(grevlex)
    assert basis.normal_form(Polynomial.zero(ctx)).is_zero
    y = Polynomial.variable(ctx, "Y")
    assert basis.normal_form(y) == y


def test_dimension_of_full_ring():
    ctx = context(("Y1", "Y2"))
    assert Ideal(ctx, ()).dimension() == 2


def test_dimension_of_twisted_cubic(twisted_cubic):
    # the curve (y, y^2, y^3) is one-dimensional
    assert twisted_cubic.dimension() == 1


def test_dimension_of_two_points(two_points):
    assert two_points.dimension() == 0
    assert len(two_points.context) - two_points.dimension() == 2


def test_dimension_of_unit_ideal():
    ctx = context(("Y",))
    ideal = Ideal(ctx, [Polynomial.constant(ctx, 1)])
    assert ideal.dimension() == -1


def test_eliminate_trivial_intersection(parabola_family):
    meet = eliminate(parabola_family, ("T",))
    assert meet.is_zero


def test_eliminate_linear():
    ideal = make_ideal(("Y",), ["Y - T", "Y - 1"], params=("T",))
    meet = eliminate(ideal, ("T",))
    assert [str(g) for g in meet.generators] == ["T - 1"]


def test_eliminate_keeps_y_side():
    ideal = make_ideal(("Y",), ["Y - T"], params=("T",))
    meet = eliminate(ideal, ("Y",))
    assert meet.is_zero


def test_basis_idempotence():
    for ideal in suite_proper_ideals():
        basis = ideal.groebner(grevlex)
        again = buchberger(basis.polys, grevlex)
        assert tuple(again) == basis.polys


def test_membership_soundness_on_random_combinations():
    rng = seeded(21)
    ideals = [i for i in suite_proper_ideals() if not i.is_zero]
    for k in range(50):
        ideal = ideals[k % len(ideals)]
        combo = Polynomial.zero(ideal.context)
        for g in ideal.generators:
            combo = combo + random_polynomial(ideal.context, rng, max_degree=2, max_terms=3) * g
        assert ideal.groebner(grevlex).normal_form(combo).is_zero


def test_membership_completeness_spot_check():
    for ideal in suite_proper_ideals():
        one = Polynomial.constant(ideal.context, 1)
        assert not ideal.groebner(grevlex).normal_form(one).is_zero


def test_dimension_agrees_between_orders():
    # the staircase search must not depend on using grevlex vs lex leads
    for ideal in suite_proper_ideals():
        grev_dim = ideal.dimension()
        lex_leads = ideal.groebner(lex).leading_exponents()
        from primespec.groebner import _max_independent_set
        supports = [frozenset(i for i, e in enumerate(exp) if e) for exp in lex_leads]
        assert _max_independent_set(supports, len(ideal.context)) == grev_dim


def test_parameter_bookkeeping_for_fiber_dimension():
    # dim over K[T,Y] = r + dim over K(T)[Y] whenever the ideal misses K[T]
    for ideal in suite_proper_ideals():
        params = ideal.context.param_names
        if not params:
            continue
        assert eliminate(ideal, params).is_zero
        total = ideal.dimension()
        fiber = fiber_dimension(ideal, params)
        assert total == len(params) + fiber
        # height formulation: (r+s) - dim == s - fiber_dim
        n = len(ideal.context)
        assert n - total == ideal.context.s - fiber


def test_pair_budget_raises():
    ideal = make_ideal(("Y1", "Y2", "Y3"),
                       ["Y1^2*Y2 - Y3^2", "Y2^3 - Y1*Y3", "Y3^2*Y1 - Y2 - 1"])
    with pytest.raises(BudgetExceededError):
        ideal.groebner(grevlex, GBLimits(max_pairs=1))


def test_term_budget_raises():
    ideal = make_ideal(("Y1", "Y2"), ["Y1^4 + Y1*Y2 + 1", "Y2^4 - Y1^2*Y2^2 - Y1"])
    with pytest.raises(BudgetExceededError):
        ideal.groebner(grevlex, GBLimits(max_term_count=2))


def test_bases_are_monic_and_sorted():
    for ideal in suite_proper_ideals():
        for order in (grevlex, lex):
            basis = ideal.groebner(order)
            leads = [p.leading_term(order) for p in basis]
            assert all(coeff == 1 for _, coeff in leads)
            keys = [order.key(exp) for exp, _ in leads]
            assert keys == sorted(keys, reverse=True)
            # reduced: no leading exponent divides a monomial of another element
            for i, p in enumerate(basis):
                for j, q in enumerate(basis):
                    if i == j:
                        continue
                    lead = leads[j][0]
                    for exp in p.terms:
                        assert not all(a <= b for a, b in zip(lead, exp))
