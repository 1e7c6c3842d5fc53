"""Buchberger engine: bases, normal forms, dimension, elimination, budgets."""

import time

import pytest

from primespec import (BudgetExceededError, GBLimits, GroebnerBasis, Ideal, Polynomial,
                       buchberger, context, eliminate, fiber_dimension,
                       grevlex, is_prime, lex, parse_polynomial, specialize_scalar)
from primespec import groebner
from primespec.groebner import ideal_dimension, saturation, specialize_basis
from primespec.orders import target_first

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


def test_reduced_basis_reduces_tails_under_coprime_leads():
    # no lead divides another, but the tail X of Y^2 + X is the lead of X
    ideal = make_ideal(("X", "Y"), ["Y^2 + X", "X"])
    assert ideal.groebner(grevlex).polys == tuple(
        parse_polynomial(g, ideal.context) for g in ("Y^2", "X"))


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
        again = GroebnerBasis(ideal.context, grevlex, buchberger(basis.polys, grevlex))
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
        assert len(_max_independent_set(lex_leads, len(ideal.context))) == grev_dim


def test_max_independent_set_is_the_first_largest():
    from primespec.groebner import _max_independent_set
    # leads X*Y and X*Z over (X, Y, Z): {Y, Z} is the one free pair
    assert _max_independent_set([(1, 1, 0), (1, 0, 1)], 3) == (1, 2)
    # lead X*Y: {X} comes before {Y}; no lead at all: every variable
    assert _max_independent_set([(1, 1)], 2) == (0,)
    assert _max_independent_set([], 2) == (0, 1)
    assert _max_independent_set([(1,)], 1) == ()
    # leads Y^2 and X*Z: Y is never free, {X} comes before {Z}
    assert _max_independent_set([(0, 2, 0), (1, 0, 1)], 3) == (0,)


def test_saturation_removes_the_components_inside_h():
    # (X^2, XY) : Y^oo = (X), the embedded point at the origin goes;
    # a prime ideal missing h is its own saturation
    embedded = make_ideal(("X", "Y"), ["X^2", "X*Y"])
    y = parse_polynomial("Y", embedded.context)
    assert [str(g) for g in saturation(embedded, y).generators] == ["X"]
    hyperbola = make_ideal(("X", "Y"), ["X*Y - 1"])
    saturated = saturation(hyperbola, parse_polynomial("X", hyperbola.context))
    assert saturated.groebner().polys == hyperbola.groebner().polys


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
            leads = [max(p.terms, key=order.key) for p in basis]
            assert all(p.terms[exp] == 1 for p, exp in zip(basis, leads))
            keys = [order.key(exp) for exp in leads]
            assert keys == sorted(keys, reverse=True)
            # reduced: no leading exponent divides a monomial of another element
            for i, p in enumerate(basis):
                for j, q in enumerate(basis):
                    if i == j:
                        continue
                    lead = leads[j]
                    for exp in p.terms:
                        assert not all(a <= b for a, b in zip(lead, exp))


RATIONAL_GENERATORS = [
    ["1/2*Y1^2 - 3/7*Y2", "Y1*Y2 - 5/3"],
    ["2/3*Y1^2*Y2 - 1/5*Y3 + 7", "3/4*Y2^2 - 2/9*Y1*Y3", "5/8*Y3^2 - Y1 + 1/6"],
]

# Reduced bases of RATIONAL_GENERATORS under grevlex, lex and the block
# order (Y1 | Y2, Y3), captured from the reduction over Q.
GOLDEN_RATIONAL_BASES = [
    [["Y1^2 - 6/7*Y2", "Y1*Y2 - 5/3", "Y2^2 - 35/18*Y1"],
     ["-18/35*Y2^2 + Y1", "Y2^3 - 175/54"],
     ["-18/35*Y2^2 + Y1", "Y2^3 - 175/54"]],
    [["Y1^4 - 1/6*Y1^3 - 81/80*Y1*Y2 + 2835/128*Y2*Y3 + 27/160*Y2",
      "Y1^3*Y3 - 81/80*Y2*Y3 + 567/16*Y2", "Y1^2*Y2 - 3/10*Y3 + 21/2",
      "Y2^2 - 8/27*Y1*Y3", "Y3^2 - 8/5*Y1 + 4/15"],
     ["-5/8*Y3^2 + Y1 - 1/6",
      "15625/97282840608*Y3^10 + 546875/97282840608*Y3^9 + 57484375/291848521824*Y3^8"
      " + 2011953125/291848521824*Y3^7 + 425625/2702301128*Y3^6 + 14896875/2702301128*Y3^5"
      " + 6894125/164164793526*Y3^4 + 241294375/164164793526*Y3^3"
      " + 919150/246247190289*Y3^2 + Y2 + 160221394/1231235951445*Y3 + 6048/337787641",
      "Y3^11 + 4/3*Y3^9 + 32/45*Y3^7 + 128/675*Y3^5 + 256/10125*Y3^3 - 248832/78125*Y3^2"
      " + 846531584/3796875*Y3 - 12192768/3125"],
     ["-5/8*Y3^2 + Y1 - 1/6", "Y2^5 - 32/225*Y2^2 + 224/243*Y3^2 + 128/18225*Y3",
      "Y2^3*Y3 + 4/81*Y2*Y3^2 + 16/1215*Y2 - 32/225*Y3 + 224/45",
      "Y3^3 - 27/5*Y2^2 + 4/15*Y3"]],
]


def _rational_ideal(gens):
    return make_ideal(("Y1", "Y2", "Y3"), gens)


def _three_orders(ctx):
    return [grevlex, lex, target_first(ctx.keep(("Y1",)), ctx)]


def test_buchberger_rational_generators_golden():
    for gens, golden in zip(RATIONAL_GENERATORS, GOLDEN_RATIONAL_BASES):
        ideal = _rational_ideal(gens)
        for order, expected in zip(_three_orders(ideal.context), golden):
            basis = GroebnerBasis(ideal.context, order, buchberger(ideal.generators, order))
            assert [str(p) for p in basis] == expected


def test_term_budget_threshold_on_rational_generators():
    # Reduction over Q needs 14 live terms here: the integer reduction keeps
    # the same supports, so the budget binds at the same count.
    ideal = _rational_ideal(RATIONAL_GENERATORS[1])
    with pytest.raises(BudgetExceededError):
        buchberger(ideal.generators, lex, GBLimits(max_term_count=13))
    assert len(buchberger(ideal.generators, lex, GBLimits(max_term_count=14))) == 3


def _reference_normal_form(p, basis):
    """Multivariate division by the monic basis in plain Fraction arithmetic."""
    order = basis.order
    leads = [max(g.terms, key=order.key) for g in basis]
    work, remainder = dict(p.terms), {}
    while work:
        exp = max(work, key=order.key)
        coeff = work.pop(exp)
        for lead, g in zip(leads, basis):
            if all(a <= b for a, b in zip(lead, exp)):
                shift = tuple(b - a for a, b in zip(lead, exp))
                for e, c in g.terms.items():
                    target = tuple(a + b for a, b in zip(e, shift))
                    if target != exp:
                        work[target] = work.get(target, 0) - coeff * c
                        if not work[target]:
                            del work[target]
                break
        else:
            remainder[exp] = coeff
    return Polynomial(p.context, remainder)


def _rational_polynomial(ctx, rng, **kw):
    p = random_polynomial(ctx, rng, **kw)
    return Polynomial(ctx, {e: c / rng.randint(1, 9) for e, c in p.terms.items()})


def test_normal_form_matches_fraction_division():
    rng = seeded(8)
    cases = [(ideal, grevlex) for ideal in suite_proper_ideals()]
    for ideal in suite_proper_ideals():
        params = ideal.context.param_names
        if params:
            main = tuple(n for n in ideal.context.names if n not in params)
            cases.append((ideal, target_first(ideal.context.keep(main), ideal.context)))
    for gens in RATIONAL_GENERATORS:
        ideal = _rational_ideal(gens)
        cases += [(ideal, order) for order in _three_orders(ideal.context)]
    for ideal, order in cases:
        basis = ideal.groebner(order)
        for _ in range(6):
            p = _rational_polynomial(ideal.context, rng)
            # a member plus p: the member part must cancel exactly
            member = Polynomial.zero(ideal.context)
            for g in basis:
                member = member + _rational_polynomial(ideal.context, rng, max_degree=2) * g
            for q in (p, member, p + member):
                assert basis.normal_form(q) == _reference_normal_form(q, basis)
            assert basis.normal_form(member).is_zero


def test_expired_deadline_stops_dimension_search():
    # The bases are cached first, so only the staircase search is left to
    # notice the deadline.
    ideal = make_ideal(("Y1", "Y2", "Y3"), ["Y2 - T*Y1^2", "Y3 - Y1*Y2"], params=("T",))
    main = ("Y1", "Y2", "Y3")
    ideal.groebner(grevlex)
    ideal.groebner(target_first(ideal.context.keep(main), ideal.context))
    expired = GBLimits(deadline=time.monotonic() - 1)
    with pytest.raises(BudgetExceededError):
        ideal_dimension(ideal, expired)
    with pytest.raises(BudgetExceededError):
        fiber_dimension(ideal, ("T",), expired)
    assert ideal_dimension(ideal) == 2 and fiber_dimension(ideal, ("T",)) == 1


# The zero-dimensional family of the points benchmark: leads Y1^3, Y2^2, Y3^2.
POINTS_FAMILY = ["Y1^3 + T*Y2 - 1", "Y2^2 - Y1*Y3 - T", "Y3^2 - Y1 - Y2 + T"]


def test_specialized_basis_matches_buchberger():
    # Kalkbrener: where every leading coefficient survives, the specialized
    # grevlex basis of the family is the basis of the fiber; elsewhere
    # (t = 0 for T*Y1^2 - Y2, t = 2 for (T - 2)*Y1^2 - Y2) specialize_basis
    # returns None and Ideal.lifted falls back to the fiber's own basis.
    families = {
        "cubic_fiber": (("Y1", "Y2", "Y3"), ["Y2 - T*Y1^2", "Y3 - Y1*Y2"], range(-100, 101), [0]),
        "parabola": (("Y",), ["Y^2 - T"], range(-20, 21), None),
        "points": (("Y1", "Y2", "Y3"), POINTS_FAMILY, range(-10, 11), None),
        "shifted lead root": (("Y1", "Y2", "Y3"), ["(T - 2)*Y1^2 - Y2", "Y3 - Y1*Y2"],
                              range(-5, 6), [2]),
    }
    for name, (variables, gens, values, vanishing) in families.items():
        family = make_ideal(variables, gens, params=("T",))
        target = family.context.without_params()
        block = family.groebner(family.block_order(target))
        fallbacks = []
        for t in values:
            fiber = specialize_scalar(family, [t])
            expected = GroebnerBasis(target, grevlex, buchberger(fiber.generators, grevlex))
            if specialize_basis(block, {"T": t}, target) is None:
                fallbacks.append(t)
            lifted, at, _ = fiber.lifted(target)
            assert (lifted is block) == bool(at), (name, t)
            assert specialize_basis(lifted, at, target) == expected, (name, t)
        if vanishing is not None:
            assert fallbacks == vanishing, name


def test_specialize_basis_with_no_values_is_the_basis(cubic_fiber_family):
    # With nothing to bind, the basis is already the ideal's reduced grevlex
    # basis: no copy is projected or interreduced.
    fiber = specialize_scalar(cubic_fiber_family, [0])
    for ideal in (fiber, make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"])):
        basis = ideal.groebner(ideal.block_order(ideal.context))
        assert specialize_basis(basis, {}, ideal.context) is basis


def test_fiber_groebner_runs_buchberger_on_its_own_generators(cubic_fiber_family):
    # Ideal.groebner never reads the root: with the root's cached (Y | T)
    # basis replaced by that of another family, a fiber's bases are still
    # Buchberger's on its own generators.
    base = cubic_fiber_family
    target = base.context.without_params()
    order = base.block_order(target)
    other = make_ideal(("Y1", "Y2", "Y3"), ["Y2 - T*Y1^3", "Y3 - Y1"], params=("T",))
    base._cache[order] = other.groebner(order)
    fiber = specialize_scalar(base, [3])
    for order in (grevlex, lex, target_first(target.keep(("Y1",)), target)):
        expected = GroebnerBasis(target, order, buchberger(fiber.generators, order))
        assert fiber.groebner(order) == expected, order


def test_fibers_read_the_set_fiber_dimension_caches(cubic_fiber_family, monkeypatch):
    # fiber_dimension over T searches the leads of the root's basis under
    # (Y | T) once; every fiber whose leading coefficients survive reads that
    # same set from the root instead of searching again.
    calls = []
    search = groebner._max_independent_set

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(groebner, "_max_independent_set", counted)
    assert fiber_dimension(cubic_fiber_family, ("T",)) == 1
    assert len(calls) == 1
    sets = {specialize_scalar(cubic_fiber_family, [t]).independent_set() for t in range(1, 21)}
    assert sets == {(2,)}
    assert len(calls) == 1


def test_fibers_build_each_block_order_once(cubic_fiber_family, monkeypatch):
    # the (Y | T) and (V | T, U) orders that fibers read their bases under
    # are built once, on the root, and not again for each fiber
    built = []

    def counted(*args):
        built.append(args)
        return target_first(*args)

    monkeypatch.setattr(groebner, "target_first", counted)
    for t in range(1, 21):
        fiber = specialize_scalar(cubic_fiber_family, [t])
        assert (fiber.dimension(), is_prime(fiber).status) == (1, "prime")
    assert built and len(built) == len(set(built))
    order = cubic_fiber_family.block_order(fiber.context)
    assert order == target_first(fiber.context, cubic_fiber_family.context)
    assert cubic_fiber_family.block_order(fiber.context) is order


def test_budgets_bind_on_the_specialized_basis(cubic_fiber_family, monkeypatch):
    base = cubic_fiber_family
    fiber = specialize_scalar(base, [2])
    block = base.groebner(base.block_order(fiber.context))

    def refuse(*args, **kwargs):
        raise AssertionError("the root's block basis specializes at t = 2")

    reference = buchberger(fiber.generators, grevlex)
    monkeypatch.setattr(groebner, "buchberger", refuse)
    for limits in (GBLimits(deadline=time.monotonic() - 1), GBLimits(max_term_count=1)):
        with pytest.raises(BudgetExceededError):
            specialize_basis(block, {"T": 2}, fiber.context, limits)
    basis = specialize_basis(block, {"T": 2}, fiber.context)
    assert basis == GroebnerBasis(fiber.context, grevlex, reference)
