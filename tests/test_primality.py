"""Zero-dimensional quotients, minimal polynomials, primality verdicts."""

import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from primespec import (GroebnerBasis, Ideal, Polynomial, PrimespecError, buchberger, context,
                       factor_univariate, grevlex, is_prime, minimal_polynomial, parse_polynomial,
                       target_first)
from primespec import (BudgetExceededError, ContextMismatchError, GBLimits, VariableContext, factor,
                       groebner, primality, specialize_scalar)
from primespec.experiments import derive_seed, sample_point, specialize_point
from primespec.groebner import specialize_basis
from primespec.poly import integer_primitive
from primespec.primality import (INCONCLUSIVE, NOT_PRIME, PRIME, UNIT_IDEAL, _certificate_error,
                                 _evaluate_in_quotient, _multiplication_matrix, _split_minimal_poly,
                                 not_prime_verdict)

from conftest import make_ideal, random_polynomial, seeded


def _quotient_dim(basis):
    """The dimension of the quotient by the basis' ideal: the length of its staircase."""
    return len(basis.staircase(basis.context))


def test_quotient_basis_univariate():
    basis = make_ideal(("Y",), ["Y^2 - 4"]).groebner(grevlex)
    assert basis.staircase(basis.context) == ((0,), (1,))
    assert _quotient_dim(basis) == 2


def test_quotient_basis_two_points(two_points):
    assert _quotient_dim(two_points.groebner(grevlex)) == 2


def test_quotient_basis_rejects_unit_and_positive_dim(circle):
    ctx = context(("Y",))
    unit = Ideal(ctx, [Polynomial.constant(ctx, 1)]).groebner(grevlex)
    with pytest.raises(ValueError, match="dimension > 0"):
        minimal_polynomial(unit, Polynomial.variable(ctx, "Y"))
    with pytest.raises(ValueError, match="dimension > 0"):
        minimal_polynomial(circle.groebner(grevlex), Polynomial.variable(circle.context, "Y1"))


def test_minimal_polynomial_of_generator():
    ideal = make_ideal(("Y",), ["Y^2 - 4"])
    m = minimal_polynomial(ideal.groebner(grevlex), Polynomial.variable(ideal.context, "Y"))
    assert str(m) == "Z^2 - 4"


def test_minimal_polynomial_of_zero():
    ideal = make_ideal(("Y",), ["Y^2 - 4"])
    assert str(minimal_polynomial(ideal.groebner(grevlex), Polynomial.zero(ideal.context))) == "Z"


def test_minimal_polynomial_idempotent_coordinate(two_points):
    # X^2 = X in the quotient, so the minimal polynomial is Z^2 - Z
    m = minimal_polynomial(two_points.groebner(grevlex),
                           Polynomial.variable(two_points.context, "X"))
    assert str(m) == "Z^2 - Z"


def test_two_point_ideal_not_prime_with_replay(two_points):
    verdict = is_prime(two_points, trials=5, seed=0)
    assert verdict.status == NOT_PRIME
    f, g = verdict.certificate
    basis = two_points.groebner()
    assert basis.contains(f * g)
    assert not basis.contains(f) and not basis.contains(g)


def test_irreducible_univariate_prime_deterministically():
    verdict = is_prime(make_ideal(("Y",), ["Y^2 - 2"]), seed=0)
    assert verdict.status == PRIME
    field = verdict.sections[-1]
    assert (field.independent, field.point) == ((), ())  # nothing specialized
    assert field.minimal_poly.total_degree() == field.quotient_dim == 2


def test_unit_ideal_verdict():
    ctx = context(("Y",))
    verdict = is_prime(Ideal(ctx, [Polynomial.constant(ctx, 2)]), seed=0)
    assert verdict.status == UNIT_IDEAL


def test_circle_prime_with_field_certificate(circle):
    # Y2 is the independent variable; the certificate replays on the fiber Y2 = u
    for seed in range(5):
        verdict = is_prime(circle, seed=seed)
        assert verdict.status == PRIME, seed
        field = verdict.sections[-1]
        assert field.independent == ("Y2",)
        (u,) = field.point
        fiber = make_ideal(("Y1",), [f"Y1^2 + ({u * u - 1})"])
        basis = fiber.groebner(grevlex)
        assert _quotient_dim(basis) == field.quotient_dim == 2
        assert minimal_polynomial(basis, field.linear_form) == field.minimal_poly
        _, factors = factor_univariate(field.minimal_poly)
        assert [mult for _, mult in factors] == [1] and factors[0][0].total_degree() == 2


def test_nonradical_ideal_not_prime():
    verdict = is_prime(make_ideal(("Y",), ["Y^2"]), seed=0)
    assert verdict.status == NOT_PRIME


def _assert_certified_not_prime(ideal, seed):
    verdict = is_prime(ideal, seed=seed)
    assert verdict.status == NOT_PRIME, seed
    assert _certificate_error(ideal.groebner(), *verdict.certificate) is None


def test_product_of_lines_never_certified_prime():
    # Y1 is independent with leading coefficient h = Y1: Y2 * Y1 lies in the ideal
    ideal = make_ideal(("Y1", "Y2"), ["Y1*Y2"])
    for seed in range(6):
        _assert_certified_not_prime(ideal, seed)


FORMER_FALSE_PRIMES = {
    # (X) with an embedded point at the origin: X^2 lies in it, X does not
    "(X^2, XY)": (("X", "Y"), ["X^2", "X*Y"]),
    # the line X = 0 and the point (1, 0)
    "(XY, X^2 - X)": (("X", "Y"), ["X*Y", "X^2 - X"]),
    # the plane X = 0 and the line Y = Z = 0
    "(XY, XZ)": (("X", "Y", "Z"), ["X*Y", "X*Z"]),
}


@pytest.mark.parametrize("case", sorted(FORMER_FALSE_PRIMES))
def test_positive_dimensional_non_prime_ideals_never_prime(case):
    # A generic section misses the extra component; the saturation I : h^oo does not.
    variables, gens = FORMER_FALSE_PRIMES[case]
    for seed in range(5):
        _assert_certified_not_prime(make_ideal(variables, gens), seed)


POSITIVE_DIMENSIONAL_PRIMES = {
    "cusp": (("X", "Y"), ["Y^2 - X^3"]),
    "twisted cubic": (("X", "Y", "Z"), ["Y - X^2", "Z - X^3"]),
    # the leading coefficient h = X is not constant: the saturation check runs
    "hyperbola": (("X", "Y"), ["X*Y - 1"]),
}


@pytest.mark.parametrize("case", sorted(POSITIVE_DIMENSIONAL_PRIMES))
def test_positive_dimensional_primes_are_prime(case):
    variables, gens = POSITIVE_DIMENSIONAL_PRIMES[case]
    for seed in range(5):
        verdict = is_prime(make_ideal(variables, gens), seed=seed)
        assert verdict.status == PRIME, seed
        field = verdict.sections[-1]
        assert len(field.independent) == len(field.point) == 1
        assert field.minimal_poly.total_degree() == field.quotient_dim


@pytest.mark.parametrize("case", sorted(POSITIVE_DIMENSIONAL_PRIMES) + ["circle"])
def test_basis_at_u_matches_buchberger(case):
    # The field test at U = u runs on the specialized block basis (V | U);
    # Buchberger on the substituted block basis must give the same basis.
    variables, gens = {**POSITIVE_DIMENSIONAL_PRIMES,
                       "circle": (("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"])}[case]
    for seed in range(5):
        ideal = make_ideal(variables, gens)
        verdict = is_prime(ideal, seed=seed)
        assert verdict.status == PRIME, seed
        for field in verdict.sections:
            bound = context(tuple(n for n in ideal.context.names if n not in field.independent))
            block = ideal.groebner(target_first(bound, ideal.context))
            at = dict(zip(field.independent, field.point))
            cut = specialize_basis(block, at, bound)
            substituted = [g.substitute(at, bound) for g in block]
            assert cut == GroebnerBasis(bound, grevlex, buchberger(substituted, grevlex)), seed
            assert _quotient_dim(cut) == field.quotient_dim


SPLIT_AT_EVERY_POINT = {
    "two lines": (("X", "Y"), ["X^2 - Y^2"]),
    "double circle": (("X", "Y"), ["(X^2 + Y^2 - 1)^2"]),
}


@pytest.mark.parametrize("case", sorted(SPLIT_AT_EVERY_POINT))
def test_split_at_every_point_is_inconclusive_with_reason(case):
    # Not prime, but every fiber splits and no certificate descends from a
    # split yet (ROADMAP item 5): never prime, always a reason.
    variables, gens = SPLIT_AT_EVERY_POINT[case]
    for seed in range(5):
        verdict = is_prime(make_ideal(variables, gens), seed=seed)
        assert verdict.status == INCONCLUSIVE, seed
        assert verdict.reason


def test_inconclusive_reason_counts_zero_and_subfield_forms(monkeypatch):
    # The coordinates Y and X come first, then seed 7 draws -6*Y: each of
    # Z^2 - 3, Z^2 - 2 and Z^2 - 108 is irreducible, but generates a proper
    # subfield of the degree-4 quotient Q(sqrt 2, sqrt 3)
    ideal = make_ideal(("X", "Y"), ["X^2 - 2", "Y^2 - 3"])
    verdict = is_prime(ideal, trials=1, seed=7)
    assert verdict.status == INCONCLUSIVE
    # the rejected forms stay on the verdict with their minimal polynomials
    assert [(str(s.linear_form), str(s.minimal_poly)) for s in verdict.sections] == [
        ("Y", "Z^2 - 3"), ("X", "Z^2 - 2"), ("-6*Y", "Z^2 - 108")]
    for rejected in verdict.sections:
        assert (rejected.independent, rejected.point, rejected.quotient_dim) == ((), (), 4)
    assert verdict.reason == ("no field certificate from 2 coordinate(s) and 1 random linear "
                              "form(s): 0 zero, 3 with an irreducible minimal polynomial of "
                              "degree below 4")
    # a box of radius 0 draws only the zero form after the coordinates
    monkeypatch.setattr(primality, "BOX_START", 0)
    verdict = is_prime(ideal, trials=3, seed=7)
    assert [str(s.linear_form) for s in verdict.sections] == ["Y", "X"]
    assert verdict.reason == ("no field certificate from 2 coordinate(s) and 3 random linear "
                              "form(s): 3 zero, 2 with an irreducible minimal polynomial of "
                              "degree below 4")


def test_biquadratic_field_certified_by_a_random_form_after_the_coordinates():
    # neither coordinate generates Q(sqrt 2, sqrt 3); the first random form does
    verdict = is_prime(make_ideal(("X", "Y"), ["X^2 - 2", "Y^2 - 3"]), seed=0)
    assert verdict.status == PRIME
    assert [str(s.linear_form) for s in verdict.sections[:2]] == ["Y", "X"]
    field = verdict.sections[-1]
    assert len(verdict.sections) == 3 and len(field.linear_form.terms) == 2
    assert field.minimal_poly.total_degree() == field.quotient_dim == 4


def test_points_fibers_certified_by_the_last_coordinate():
    # the fibers of perfbench/ideals/points.ideal are in shape position: Y3 generates
    family = make_ideal(("Y1", "Y2", "Y3"),
                        ["Y1^3 + T*Y2 - 1", "Y2^2 - Y1*Y3 - T", "Y3^2 - Y1 - Y2 + T"],
                        params=("T",))
    for t in (2, 5, 7):
        verdict = is_prime(specialize_scalar(family, [t]), seed=t)
        assert verdict.status == PRIME, t
        [field] = verdict.sections
        assert field.linear_form == Polynomial.variable(field.linear_form.context, "Y3"), t
        assert field.minimal_poly.total_degree() == field.quotient_dim == 12, t


def test_split_coordinate_certifies_not_prime():
    # Y reduces to 0, so its minimal polynomial Z has degree 1 < 2 and the
    # test moves on; X has Z^2 - 1 = (Z - 1)(Z + 1)
    ideal = make_ideal(("X", "Y"), ["X^2 - 1", "Y"])
    verdict = is_prime(ideal, seed=0)
    assert verdict.status == NOT_PRIME
    assert [(str(s.linear_form), str(s.minimal_poly)) for s in verdict.sections] == [
        ("Y", "Z"), ("X", "Z^2 - 1")]
    f, g = verdict.certificate
    assert (str(f), str(g)) == ("X - 1", "X + 1")
    assert _certificate_error(ideal.groebner(), f, g) is None


def _largest_free_sets(ideal):
    """Every largest set of variables free of the grevlex leads, in combinations order."""
    leads = ideal.groebner(grevlex).leading_exponents()
    names = ideal.context.names
    return [tuple(names[i] for i in subset)
            for subset in itertools.combinations(range(len(names)), ideal.dimension())
            if not any(all(e == 0 or i in subset for i, e in enumerate(lead)) for lead in leads)]


def _assert_prime_at_first_of_two_candidates(ideal, seed, expected_u):
    candidates = _largest_free_sets(ideal)
    assert len(candidates) == 2 and candidates[0] == expected_u
    verdict = is_prime(ideal, seed=seed)
    assert verdict.status == PRIME, seed
    assert all(field.independent == expected_u for field in verdict.sections)
    return verdict.sections[-1]


@pytest.mark.parametrize("variables, gens, expected_u", [
    (("X", "Y"), ["X*Y - 1"], ("X",)),
    (("X", "Y", "Z"), ["X*Y - Z^2"], ("X", "Z")),
])
def test_u_is_the_first_largest_independent_set(variables, gens, expected_u):
    for seed in range(5):
        field = _assert_prime_at_first_of_two_candidates(make_ideal(variables, gens), seed,
                                                         expected_u)
        assert field.minimal_poly.total_degree() == field.quotient_dim


def test_polyspec_cubic_fibers_specialize_the_first_candidate(cubic_fiber_family):
    # degree-2 PolySpec fibers of cubic_fiber are curves with grevlex
    # candidates Y2 and Y3; U = Y2 and the fiber at Y2 = u has degree 4
    for index in range(8):
        _, values = sample_point("PolySpec", cubic_fiber_family, (2,), 20,
                                 seeded(derive_seed(3, index)))
        fiber, _ = specialize_point(cubic_fiber_family, "PolySpec", (2,), values)
        field = _assert_prime_at_first_of_two_candidates(fiber, derive_seed(3, index, "prime"),
                                                         ("Y2",))
        assert field.minimal_poly.total_degree() == field.quotient_dim == 4


def _assert_root_and_own_verdicts_agree(fiber, seed):
    # the fiber certified from its root and the same ideal without origin,
    # which is its own root: same verdict, certificate and certifying section
    own = is_prime(Ideal(fiber.context, fiber.generators), seed=seed)
    lifted = is_prime(fiber, seed=seed)
    assert (lifted.status, lifted.certificate, lifted.reason) == \
        (own.status, own.certificate, own.reason)
    assert [(s.independent, s.point, s.minimal_poly) for s in lifted.sections[-1:]] == \
        [(s.independent, s.point, s.minimal_poly) for s in own.sections[-1:]]
    return lifted


def test_cubic_fibers_certified_from_the_root_agree(cubic_fiber_family):
    # t = 0 takes the fallback: the lead coefficient T of T*Y1^2 - Y2 vanishes
    for t in range(-100, 101):
        fiber = specialize_scalar(cubic_fiber_family, [t])
        verdict = _assert_root_and_own_verdicts_agree(fiber, seed=t)
        assert verdict.status == PRIME, t
        assert verdict.sections[-1].independent == (("Y1",) if t == 0 else ("Y3",)), t


def test_hyperbola_fibers_saturate_and_split_only_at_zero():
    # lc_V = Y1 involves U = Y1, so every fiber runs the saturation check;
    # at t = 0, (Y1*Y2) : Y1^oo = (Y2) and the certificate is (Y2, Y1)
    family = make_ideal(("Y1", "Y2"), ["Y1*Y2 - T"], params=("T",))
    for t in range(-20, 21):
        fiber = specialize_scalar(family, [t])
        verdict = _assert_root_and_own_verdicts_agree(fiber, seed=t)
        assert verdict.status == (NOT_PRIME if t == 0 else PRIME), t
        assert grevlex in fiber._cache  # the membership basis of the saturation check
    zero = specialize_scalar(family, [0])
    f, g = is_prime(zero).certificate
    assert (str(f), str(g)) == ("Y2", "Y1")
    assert _certificate_error(zero.groebner(), f, g) is None


def test_saturation_certificate_needs_a_power_of_h():
    # (Z + X^2*Y, Z^2) : h^oo contains g = Y^2 for h = X^2, but g*h does not
    # lie in the ideal; g*h^2 = X^4*Y^2 = Z^2 - (Z - X^2*Y)*(Z + X^2*Y) does
    ideal = make_ideal(("X", "Y", "Z"), ["Z + X^2*Y", "Z^2"])
    verdict = is_prime(ideal)
    assert verdict.status == NOT_PRIME
    f, g = verdict.certificate
    assert (str(f), str(g)) == ("Y^2", "X^4")
    assert not ideal.groebner().contains(f * parse_polynomial("X^2", ideal.context))
    assert _certificate_error(ideal.groebner(), f, g) is None


def test_block_basis_falls_back_where_lc_v_vanishes():
    # The grevlex lead Y1*Y2 has lc 1 for every t, but the (Y2 | T, Y1) lead
    # Y2^2 has lc T: at t = 0 the fiber Y1*Y2 - 1 builds its own block basis
    # (lc Y1, a saturation check); elsewhere it reads the root's.
    family = make_ideal(("Y1", "Y2"), ["T*Y2^2 + Y1*Y2 - 1"], params=("T",))
    for t in range(-20, 21):
        fiber = specialize_scalar(family, [t])
        assert _assert_root_and_own_verdicts_agree(fiber, seed=t).status == PRIME, t
        assert bool(fiber._cache) == (t == 0), t


def _walked_leading(basis, part, values, target):
    """The part-leading coefficients at ``values``, by a walk over every term of every element."""
    ctx = basis.context
    positions = ctx.indices_of(part.names)
    keep = [None if i in positions else i for i in ctx.indices_of(target.names)]
    coefficients = []
    for lead, lc, terms in basis._reducers:
        coefficient = {}
        for e, c in terms.items():
            if all(e[i] == lead[i] for i in positions):
                for name, v in values.items():
                    c *= v ** e[ctx.index[name]]
                rest = tuple(0 if i is None else e[i] for i in keep)
                coefficient[rest] = coefficient.get(rest, 0) + Fraction(c, lc)
        coefficients.append({e: c for e, c in coefficient.items() if c})
    return coefficients


def test_leading_coefficient_tables_agree_with_the_term_walk():
    # Ideal.lifted reads the leading coefficients at t from tables compiled on
    # the basis; it falls back exactly where a walked coefficient vanishes
    # (t = 0 for cubic_fiber's grevlex lead T*Y1^2, t = 2 for (T - 2)*Y1^2),
    # and h and the test h(u) = 0 are those of the walked coefficients.  The
    # fiber Y1*Y2 - 1 at t = 0 of the last family has the coefficient Y1.
    families = [(("Y1", "Y2", "Y3"), ["Y2 - T*Y1^2", "Y3 - Y1*Y2"]),
                (("Y1", "Y2"), ["(T - 2)*Y1^2 - Y2"]),
                (("Y1", "Y2"), ["T*Y2^2 + Y1*Y2 - 1"])]
    rng = random.Random(5)
    for variables, gens in families:
        family = make_ideal(variables, gens, params=("T",))
        for t in range(-5, 6):
            fiber = specialize_scalar(family, [t])
            ctx = fiber.context
            free = tuple(ctx.names[i] for i in fiber.independent_set())
            bound = context(tuple(n for n in ctx.names if n not in free))
            for part in (ctx, bound):
                root_basis = family.groebner(family.block_order(part))
                walked = _walked_leading(root_basis, part, {"T": t}, ctx)
                basis, values, leading = fiber.lifted(part)
                assert (basis is root_basis) == all(walked), (gens, t, part)
                if basis is not root_basis:
                    walked = _walked_leading(basis, part, {}, ctx)
                monic = [Polynomial(ctx, {e: Fraction(c, lc) for e, c in coefficient.items()})
                         for lc, coefficient in leading]
                assert monic == [Polynomial(ctx, w) for w in walked], (gens, t, part)
                positions = ctx.indices_of(free)
                for _ in range(20):
                    u = tuple(rng.randint(-3, 3) for _ in free)
                    for (_, coefficient), w in zip(leading, walked):
                        total = sum(c * math.prod(v ** e[i] for i, v in zip(positions, u))
                                    for e, c in w.items())
                        assert primality._vanishes(coefficient, positions, u) == (total == 0)


def test_fiber_builds_no_basis_of_its_own(cubic_fiber_family):
    for t in (-7, 3):
        fiber = specialize_scalar(cubic_fiber_family, [t])
        assert fiber.dimension() == 1
        assert is_prime(fiber).status == PRIME
        assert fiber._cache == {}, t
    # at t = 0 the grevlex lead coefficient T vanishes: the fiber builds its
    # grevlex basis, but still reads the block basis (Y2, Y3 | T, Y1) of the root
    fiber = specialize_scalar(cubic_fiber_family, [0])
    assert (fiber.dimension(), is_prime(fiber).status) == (1, PRIME)
    assert list(fiber._cache) == [grevlex]


def test_fiber_at_a_rational_point_is_its_own_root(parabola_family, cubic_fiber_family):
    # Only integer values make a fiber of the root: at t = p/q with q > 1 the
    # ideal substitutes its generators, runs Buchberger on them and decides
    # as the same ideal built without an origin does.
    cases = [(parabola_family, Fraction(9, 4), NOT_PRIME), (parabola_family, Fraction(1, 2), PRIME),
             (cubic_fiber_family, Fraction(5, 2), PRIME),
             (cubic_fiber_family, Fraction(-1, 3), PRIME)]
    for k, (family, t, status) in enumerate(cases):
        fiber = specialize_scalar(family, [t])
        assert fiber.root == (fiber, {}), t
        target = fiber.context
        orders = [grevlex, target_first(target.keep(target.var_names[:1]), target)]
        for order in orders:
            expected = GroebnerBasis(target, order, buchberger(fiber.generators, order))
            assert fiber.groebner(order) == expected, (t, order)
        assert _assert_root_and_own_verdicts_agree(fiber, seed=k).status == status, t


def test_field_certificate_implies_integrality(two_points):
    # spot check: products of nonmembers stay outside a certified-prime ideal
    ideal = make_ideal(("Y",), ["Y^3 - 2"])
    verdict = is_prime(ideal, seed=1)
    assert verdict.status == PRIME
    basis = ideal.groebner()
    rng = seeded(41)
    checked = 0
    while checked < 20:
        a = random_polynomial(ideal.context, rng, max_degree=3)
        b = random_polynomial(ideal.context, rng, max_degree=3)
        if basis.contains(a) or basis.contains(b):
            continue
        assert not basis.contains(a * b)
        checked += 1


def test_determinism_under_fixed_seed(circle, two_points):
    for ideal in (circle, two_points):
        first = is_prime(ideal, trials=5, seed=123)
        second = is_prime(ideal, trials=5, seed=123)
        assert first.status == second.status
        assert first.certificate == second.certificate
        assert [s.minimal_poly for s in first.sections] == [s.minimal_poly for s in second.sections]


def test_invalid_certificate_rejected(two_points):
    basis = two_points.groebner()
    ctx = two_points.context
    x = Polynomial.variable(ctx, "X")
    with pytest.raises(PrimespecError):
        not_prime_verdict(basis, x, x)  # x*x is not in the ideal


def test_trials_validated(two_points):
    with pytest.raises(ValueError):
        is_prime(two_points, trials=0)


def test_large_quotient_certificate_stays_compact():
    # five-variable system with a 16-dimensional quotient: the reduced
    # certificate must come back quickly and replay, never the raw
    # composition of the split minimal polynomial
    import time

    ideal = make_ideal(
        ("x0", "x1", "x2", "x3", "x4"),
        ["x0 + 2x1 + 2x2 + 2x3 + 2x4 - 1",
         "x0^2 + 2x1^2 + 2x2^2 + 2x3^2 + 2x4^2 - x0",
         "2x0*x1 + 2x1*x2 + 2x2*x3 + 2x3*x4 - x1",
         "x1^2 + 2x0*x2 + 2x1*x3 + 2x2*x4 - x2",
         "2x1*x2 + 2x0*x3 + 2x1*x4 - x3"])
    assert _quotient_dim(ideal.groebner(grevlex)) == 16
    start = time.monotonic()
    verdict = is_prime(ideal, seed=0)
    assert time.monotonic() - start < 20
    assert verdict.status == NOT_PRIME
    f, g = verdict.certificate
    assert len(f.terms) <= 16 and len(g.terms) <= 16
    basis = ideal.groebner()
    assert basis.contains(f * g)
    assert not basis.contains(f) and not basis.contains(g)


# The fiber of the points benchmark family at T = 2: a field of degree 12.
POINTS_T2 = ["Y1^3 + 2*Y2 - 1", "Y2^2 - Y1*Y3 - 2", "Y3^2 - Y1 - Y2 + 2"]


def _rank(rows):
    """Rank of a rational matrix by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _coords(staircase, reduced):
    """Coordinates of a reduced polynomial in the staircase basis."""
    vec = [Fraction(0)] * len(staircase)
    for exp, coeff in reduced.terms.items():
        vec[staircase.index(exp)] = coeff
    return vec


def _krylov_rank(basis, element):
    staircase = basis.staircase(basis.context)
    reduced = basis.normal_form(element)
    power = basis.normal_form(Polynomial.constant(element.context, 1))
    rows = [_coords(staircase, power)]
    for _ in staircase:
        power = basis.normal_form(power * reduced)
        rows.append(_coords(staircase, power))
    return _rank(rows)


def _points_forms(ctx):
    forms = []
    for seed in range(5):
        rng = seeded(seed)
        form = Polynomial.zero(ctx)
        for v in ("Y1", "Y2", "Y3"):
            form = form + Polynomial.constant(ctx, rng.randint(-10, 10)) * Polynomial.variable(ctx, v)
        forms.append(form)
    return forms


def _dense_row(p):
    """The primitive integer coefficient row of a univariate p, constant term first."""
    ints = integer_primitive(p.terms)[1]
    return [ints.get((k,), 0) for k in range(p.total_degree() + 1)]


def _reference_evaluation(basis, univariate, element):
    """univariate(element) modulo the ideal: Horner over polynomials, a normal form per step."""
    ctx = basis.context
    coeffs = [Fraction(0)] * (univariate.total_degree() + 1)
    for exp, c in univariate.terms.items():
        coeffs[exp[0]] = c
    reduced = basis.normal_form(element)
    acc = Polynomial.zero(ctx)
    for c in reversed(coeffs):
        acc = basis.normal_form(acc * reduced + Polynomial.constant(ctx, c))
    return acc


def _reference_certificate_error(basis, f, g):
    """``_certificate_error`` by normal forms over Q."""
    if not basis.normal_form(f * g).is_zero:
        return "f*g is not in the ideal"
    if basis.normal_form(f).is_zero or basis.normal_form(g).is_zero:
        return "a factor lies in the ideal"
    return None


def test_minimal_polynomial_matches_krylov_rank():
    ideal = make_ideal(("Y1", "Y2", "Y3"), POINTS_T2)
    q = ideal.groebner(grevlex)
    assert _quotient_dim(q) == 12
    ctx = ideal.context
    # The T = 2 field has no proper subfield (mod-p factor degrees 1 + 11
    # force a 2-transitive Galois group), so its one element of low degree
    # is a constant; at T = 0, Y1^3 = 1 and Y1 + Y1^2 has degree 2.
    fiber_t0 = make_ideal(("Y1", "Y2", "Y3"), ["Y1^3 - 1", "Y2^2 - Y1*Y3", "Y3^2 - Y1 - Y2"])
    q_t0 = fiber_t0.groebner(grevlex)
    forms = _points_forms(ctx) + [parse_polynomial("1/2*Y1 - 3/7*Y2 + 5/3*Y3", ctx)]
    cases = [(q, e) for e in forms]
    cases += [(q, Polynomial.constant(ctx, 3)),
              (q_t0, parse_polynomial("Y1 + Y1^2", fiber_t0.context)),
              (q_t0, parse_polynomial("1/2*Y1 + 1/2*Y1^2", fiber_t0.context))]
    found = []
    for basis, element in cases:
        m = minimal_polynomial(basis, element)
        top = max(m.terms, key=lambda exp: exp[0])
        assert m.terms[top] == 1
        staircase = basis.staircase(basis.context)
        matrix = _multiplication_matrix(basis, element, staircase, GBLimits())
        assert _evaluate_in_quotient(basis, staircase, matrix, _dense_row(m), 1).is_zero
        assert m.total_degree() == _krylov_rank(basis, element)
        found.append(m)
    assert [m.total_degree() for m in found] == [12] * 6 + [1, 2, 2]
    assert [str(m) for m in found[6:]] == ["Z - 3", "Z^2 - Z - 2", "Z^2 - 1/2*Z - 1/2"]


def _split_ideals():
    """The points fiber at T = 0, a non-radical ideal, and seeded zero-dimensional ideals that split.

    The first generator of a random ideal is (Y1 - a) times a monic of
    degree 1 or 2 in Y1, and every other variable's is its power over a
    random tail of lower total degree: the leads are pure powers.
    """
    yield make_ideal(("Y1", "Y2", "Y3"), ["Y1^3 - 1", "Y2^2 - Y1*Y3", "Y3^2 - Y1 - Y2"])
    yield make_ideal(("Y1", "Y2"), ["(Y1 - 1)^2*(Y1 + 2)", "Y2^2 - Y1 - 3"])
    rng = seeded(39)
    for names in [("Y1", "Y2")] * 6 + [("Y1", "Y2", "Y3")] * 4:
        ctx = context(names)
        y = [Polynomial.variable(ctx, name) for name in names]
        gens = [(y[0] - rng.randint(-3, 3)) * (y[0] ** rng.randint(1, 2) + rng.randint(-5, 5))]
        for v in y[1:]:
            d = rng.randint(2, 3)
            gens.append(v ** d + random_polynomial(ctx, rng, max_degree=d - 1, max_coeff=5))
        yield Ideal(ctx, gens)


def test_certificate_from_the_matrix_matches_normal_forms():
    # For every split minimal polynomial m = c * f * g, the Horner run on
    # integer coordinate vectors gives the normal forms of f(e) and c * g(e)
    # that Horner over polynomials with a normal form per step gives, and
    # the integer certificate check answers as the one over Q.
    limits = GBLimits()
    rng = seeded(40)
    splits = 0
    for ideal in _split_ideals():
        basis = ideal.groebner()
        ctx = ideal.context
        staircase = basis.staircase(ctx)
        elements = [Polynomial.variable(ctx, name) for name in ctx.names]
        elements += [random_polynomial(ctx, rng, max_degree=2) * Fraction(1, rng.randint(1, 4))
                     for _ in range(3)]
        for element in elements:
            matrix = _multiplication_matrix(basis, element, staircase, limits)
            m = minimal_polynomial(basis, element, "Z", limits, staircase, matrix)
            assert m == minimal_polynomial(basis, element)
            split = _split_minimal_poly(m, limits, None)
            if split is None:
                continue
            scale, first, rest = split
            f_z, g_z = (Polynomial(m.context, {(k,): c for k, c in enumerate(row)})
                        for row in (first, rest))
            assert f_z.total_degree() > 0 and g_z.total_degree() > 0
            assert f_z * g_z * scale == m
            f = _evaluate_in_quotient(basis, staircase, matrix, first, 1, limits)
            g = _evaluate_in_quotient(basis, staircase, matrix, rest, scale, limits)
            assert f == _reference_evaluation(basis, f_z, element)
            assert g == _reference_evaluation(basis, g_z * scale, element)
            one = Polynomial.constant(ctx, 1)
            for pair in ((f, g), (f * g, f), (f, g + one), (f, one)):
                assert _certificate_error(basis, *pair) == _reference_certificate_error(basis, *pair)
            assert _certificate_error(basis, f, g) is None
            assert _certificate_error(basis, f * g, f) == "a factor lies in the ideal"
            assert _certificate_error(basis, f, one) == "f*g is not in the ideal"
            splits += 1
    assert splits >= 40
    other = make_ideal(("X", "Y"), ["Y - X", "Y - X^2"])
    x = Polynomial.variable(other.context, "X")
    with pytest.raises(ContextMismatchError):
        _certificate_error(basis, x, x)
    with pytest.raises(ContextMismatchError):
        _certificate_error(other.groebner(), x, Polynomial.variable(ctx, "Y1"))
    with pytest.raises(ContextMismatchError):
        basis.contains(x)


GOLDEN_POINTS_MINPOLYS = [
    "Z^12 + 864*Z^10 - 7898*Z^9 + 286785*Z^8 - 3687573*Z^7 + 52494956*Z^6 - 632428499*Z^5"
    " + 7334577132*Z^4 - 34314110877*Z^3 + 689050871547*Z^2 + 1575363746970*Z"
    " + 26315817523195",
    "Z^12 - 3936*Z^9 + 448768*Z^8 + 1721344*Z^7 + 102756736*Z^6 - 763481088*Z^5"
    " - 12149051392*Z^4 - 34768582656*Z^3 + 2355305783296*Z^2 - 1374853038080*Z"
    " + 594912354570240",
]


def test_minimal_polynomial_golden_points_forms():
    # Exact values: any change to the elimination must reproduce them.
    ideal = make_ideal(("Y1", "Y2", "Y3"), POINTS_T2)
    basis = ideal.groebner(grevlex)
    forms = _points_forms(ideal.context)
    assert [str(minimal_polynomial(basis, forms[i])) for i in (0, 1)] == GOLDEN_POINTS_MINPOLYS


def test_expired_deadline_stops_minimal_polynomial():
    import time

    ideal = make_ideal(("Y1", "Y2", "Y3"), POINTS_T2)
    expired = GBLimits(deadline=time.monotonic() - 1)
    with pytest.raises(BudgetExceededError):
        minimal_polynomial(ideal.groebner(), Polynomial.variable(ideal.context, "Y1"),
                           limits=expired)


def test_term_budget_binds_in_minimal_polynomial():
    # Every reduction step of Y * Y keeps one term; the Krylov step that
    # finds Z^2 - 2 holds two.
    ideal = make_ideal(("Y",), ["Y^2 - 2"])
    y = Polynomial.variable(ideal.context, "Y")
    with pytest.raises(BudgetExceededError):
        minimal_polynomial(ideal.groebner(), y, limits=GBLimits(max_term_count=1))
    assert str(minimal_polynomial(ideal.groebner(), y)) == "Z^2 - 2"


def test_minimal_polynomial_keeps_no_square_matrix():
    # The quotient has dimension 900, and each Krylov column has one entry:
    # an n x n table would hold 810000 of them.
    import tracemalloc

    ideal = make_ideal(("X", "Y"), ["X^30 - 1", "Y^30 - 1"])
    basis = ideal.groebner()
    y = Polynomial.variable(ideal.context, "Y")
    assert _quotient_dim(basis) == 900
    tracemalloc.start()
    try:
        m = minimal_polynomial(basis, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(m) == "Z^30 - 1"
    assert peak < 3 * 2**20, peak


def test_minimal_polynomial_stops_its_staircase_at_the_deadline():
    # The staircase has 40^3 = 64000 monomials.  It grows one variable at a
    # time and checks the deadline per partial monomial, so a passed deadline
    # stops it at the first one, before any box is built, and caches nothing.
    import tracemalloc

    ideal = make_ideal(("X", "Y", "Z"), ["X^40 - 1", "Y^40 - 1", "Z^40 - 1"])
    basis = ideal.groebner()
    x = Polynomial.variable(ideal.context, "X")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^wall-clock budget exceeded$"):
            minimal_polynomial(basis, x, limits=GBLimits(deadline=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert basis._staircases == {}


# -- the root's eliminant ------------------------------------------------------

POINTS_FAMILY = ["Y1^3 + T*Y2 - 1", "Y2^2 - Y1*Y3 - T", "Y3^2 - Y1 - Y2 + T"]


def _krylov_forms(monkeypatch):
    """The forms whose minimal polynomial the Krylov path computes from now on, in order."""
    forms = []
    krylov = primality.minimal_polynomial

    def counted(basis, element, *args):
        forms.append(element)
        return krylov(basis, element, *args)

    monkeypatch.setattr(primality, "minimal_polynomial", counted)
    return forms


def _assert_same_as_krylov(fiber, seed, forms, limits=GBLimits()):
    """The fiber's verdict and the forms its Krylov path took (``forms`` records them).

    The same ideal without origin is its own root and takes the Krylov path
    for every form: the verdict and the deciding section must be its own.
    """
    del forms[:]
    verdict = is_prime(fiber, seed=seed, limits=limits)
    reached = forms[:]
    own = is_prime(Ideal(fiber.context, fiber.generators), seed=seed)
    assert (verdict.status, verdict.certificate, verdict.reason) == \
        (own.status, own.certificate, own.reason)
    assert verdict.sections[-1:] == own.sections[-1:]
    return verdict, reached


def test_eliminant_gives_the_krylov_minimal_polynomial_on_points(monkeypatch):
    # chi(T, W) of Y3 has W-degree 12; where chi(t, W) is irreducible it
    # certifies the fiber with the section Krylov computes, and no Krylov run
    family = make_ideal(("Y1", "Y2", "Y3"), POINTS_FAMILY, params=("T",))
    forms = _krylov_forms(monkeypatch)
    certified = 0
    for t in range(-12, 13):
        fiber = specialize_scalar(family, [t])
        verdict, reached = _assert_same_as_krylov(fiber, t, forms)
        if reached:
            continue
        field = verdict.sections[-1]
        assert verdict.status == PRIME and len(verdict.sections) == 1, t
        assert field.linear_form == Polynomial.variable(fiber.context, "Y3")
        assert field.minimal_poly == minimal_polynomial(fiber.groebner(), field.linear_form), t
        assert field.minimal_poly.total_degree() == field.quotient_dim == 12
        certified += 1
    assert certified >= 20
    assert list(family._chi) == [("Y3", ())]


def test_points_fibers_fill_the_roots_memo_of_modular_splits(monkeypatch):
    # chi(t, W) mod p depends on t mod p only, so the fiber at
    # t = 2 + 3*5*7*11*13*17 scans to the prime of the fiber at 2 and reuses
    # its split with no gcd mod p; chi(3, W) is not squarefree mod 3, which
    # the memo keeps as None, and splits mod 5
    family = make_ideal(("Y1", "Y2", "Y3"), POINTS_FAMILY, params=("T",))
    assert is_prime(specialize_scalar(family, [2])).status == PRIME
    [(p, residues)] = family._splits
    assert p == 3 and len(residues) == 13 and family._splits[p, residues] is not None
    calls = []
    for name in ("_modular_factors", "_mod_gcd"):
        def counted(*args, run=getattr(factor, name), name=name):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(factor, name, counted)
    verdict = is_prime(specialize_scalar(family, [2 + 255255]))
    assert verdict.status == PRIME and len(verdict.sections) == 1
    assert calls == [] and list(family._splits) == [(p, residues)]
    assert is_prime(specialize_scalar(family, [3])).status == PRIME
    assert calls.count("_modular_factors") == 1
    assert [(q, split is None) for (q, _), split in family._splits.items()] == \
        [(3, False), (3, True), (5, False)]


def test_points_chi_is_proved_squarefree_without_an_integer_gcd(monkeypatch):
    # chi(2, W) is squarefree mod 3, the prime of its split: that proves it
    # squarefree over Q, and no remainder sequence over Z runs
    def refuse(*args):
        raise AssertionError("an integer gcd on a squarefree chi")

    seen = []
    run = primality.factor_primitive

    def recorded(row, *args):
        seen.append(row)
        return run(row, *args)

    monkeypatch.setattr(factor, "_zx_gcd", refuse)
    monkeypatch.setattr(primality, "factor_primitive", recorded)
    family = make_ideal(("Y1", "Y2", "Y3"), POINTS_FAMILY, params=("T",))
    assert is_prime(specialize_scalar(family, [2])).status == PRIME
    [chi] = seen
    assert len(chi) - 1 == 12
    assert [p for p, _ in family._splits] == [3]


def test_fibers_of_a_root_share_their_contexts(cubic_fiber_family, parabola_family):
    # The ambient context, the one the minimal polynomials are written in
    # and, in positive dimension, the context V of the variables a point u
    # does not fix, are built once per root, not per fiber.
    for family, independent in ((make_ideal(("Y1", "Y2", "Y3"), POINTS_FAMILY, params=("T",)), ()),
                                (cubic_fiber_family, ("Y3",))):
        fibers = [specialize_scalar(family, [t]) for t in (2, 4)]
        sections = [is_prime(fiber).sections[-1] for fiber in fibers]
        assert fibers[0].context is fibers[1].context is family.context.without_params()
        assert sections[0].minimal_poly.context is sections[1].minimal_poly.context \
            is fibers[0].context.apart("Z")
        assert [section.independent for section in sections] == [independent] * 2
        if independent:
            v = sections[0].linear_form.context
            assert v is sections[1].linear_form.context is fibers[0].context.without(independent)
            assert v == VariableContext((), ("Y1", "Y2"))
    # Y^2 - t splits at squares t, so the eliminant abstains and the Krylov
    # run writes its minimal polynomial over the shared context too
    fibers = [specialize_scalar(parabola_family, [t]) for t in (4, 9)]
    verdicts = [is_prime(fiber) for fiber in fibers]
    assert [verdict.status for verdict in verdicts] == [NOT_PRIME] * 2
    assert verdicts[0].sections[-1].minimal_poly.context \
        is verdicts[1].sections[-1].minimal_poly.context is fibers[0].context.apart("Z")


def test_eliminant_gives_the_krylov_minimal_polynomial_on_cubic_fibers(cubic_fiber_family,
                                                                       monkeypatch):
    # U = Y3 and chi = T*Y3^2 - W^3 for Y2: irreducible wherever t*u^2 is no cube
    forms = _krylov_forms(monkeypatch)
    pairs = set()
    for t in range(-30, 31):
        if t == 0:
            continue
        verdict, reached = _assert_same_as_krylov(specialize_scalar(cubic_fiber_family, [t]), t,
                                                  forms)
        field = verdict.sections[-1]
        if reached:
            continue
        (u,) = field.point
        assert field.independent == ("Y3",) and str(field.linear_form) == "Y2"
        cut = make_ideal(("Y1", "Y2"), [f"Y2 - ({t})*Y1^2", f"Y1*Y2 - ({u})"])
        krylov = minimal_polynomial(cut.groebner(), field.linear_form)
        assert field.minimal_poly == krylov == parse_polynomial(f"Z^3 - ({t * u * u})",
                                                                 krylov.context)
        pairs.add((t, u))
    assert len(pairs) >= 20
    assert cubic_fiber_family._chi[("Y2", ("Y3",))] is not None


def test_eliminant_of_lower_degree_falls_back_to_krylov(monkeypatch):
    # chi of Y2 is W^2 - 2 and chi of Y1 is W^2 - T: neither reaches the
    # quotient dimension 4 of Q(sqrt t, sqrt 2), so both take the Krylov path
    family = make_ideal(("Y1", "Y2"), ["Y1^2 - T", "Y2^2 - 2"], params=("T",))
    forms = _krylov_forms(monkeypatch)
    for t in (3, 5, 7):
        verdict, reached = _assert_same_as_krylov(specialize_scalar(family, [t]), t, forms)
        assert verdict.status == PRIME and verdict.sections[-1].quotient_dim == 4
        assert [str(f) for f in reached[:2]] == ["Y2", "Y1"]
    assert [len(rows) for rows in family._chi.values()] == [3, 3]


def test_eliminant_with_two_generators_falls_back_to_krylov(monkeypatch):
    # (Y^2, T*Y) + (W - Y) meets Q[T, W] in (W^2, T*W), which is not principal
    family = make_ideal(("Y",), ["Y^2", "T*Y"], params=("T",))
    forms = _krylov_forms(monkeypatch)
    verdict, reached = _assert_same_as_krylov(specialize_scalar(family, [2]), 0, forms)
    assert verdict.status == PRIME
    assert [str(f) for f in reached] == ["Y"]
    assert family._chi == {("Y", ()): None}


def test_split_eliminant_falls_back_to_krylov(cubic_fiber_family, monkeypatch):
    # The first point u that is_prime draws, with t = u: chi(t, u, W) =
    # W^3 - u^3 splits, and so does the cut; Krylov computes its minimal
    # polynomial, is_prime redraws u, and the verdict is the one without chi.
    seed = next(s for s in itertools.count() if random.Random(s).randint(-10, 10) not in (-1, 0, 1))
    u = random.Random(seed).randint(-10, 10)
    forms = _krylov_forms(monkeypatch)
    verdict, reached = _assert_same_as_krylov(specialize_scalar(cubic_fiber_family, [u]), seed,
                                              forms)
    assert verdict.status == PRIME
    first = verdict.sections[0]
    assert (first.point, str(first.linear_form)) == ((u,), "Y2")
    assert reached[0] == first.linear_form
    assert first.minimal_poly == parse_polynomial(f"Z^3 - ({u ** 3})", first.minimal_poly.context)


def test_krylov_factors_its_own_minimal_polynomial_where_the_eliminant_splits(monkeypatch):
    # The line 3*Y1 + 4*Y2 meets the circle at +-(4/5, -3/5): chi(c, W) of Y2
    # is 25*W^2 - 9, of full degree but split, so the eliminant abstains.
    # Krylov's minimal polynomial of Y2 is chi made monic, and factor_univariate
    # factors it as it does on the ideal without origin.
    circle = make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"])
    fiber = specialize_scalar(circle.sampling_root((1,), True), [0, 3, 4])
    forms = _krylov_forms(monkeypatch)
    rows, factored = [], []
    row_factor, factor = primality.factor_primitive, primality.factor_univariate

    def counted_row(row, *args):
        rows.append(row)
        return row_factor(row, *args)

    def counted(p, *args):
        factored.append(str(p))
        return factor(p, *args)

    monkeypatch.setattr(primality, "factor_primitive", counted_row)
    monkeypatch.setattr(primality, "factor_univariate", counted)
    verdict, reached = _assert_same_as_krylov(fiber, 0, forms)
    assert verdict.status == NOT_PRIME and [str(f) for f in reached] == ["Y2"]
    assert str(verdict.sections[-1].minimal_poly) == "Z^2 - 9/25"
    assert rows == [[-9, 0, 25]]
    assert factored == ["Z^2 - 9/25"] * 2  # the fiber's Krylov run, then the own ideal's


def test_every_line_cut_of_the_circle_matches_krylov(monkeypatch):
    # The 342 nonzero lines l0 + l1*Y1 + l2*Y2 with coefficients in [-3, 3] are
    # fibers of the circle's cutting root.  A constant line misses the circle.
    # On any other line, Y1^2 + Y2^2 = 1 is a quadratic in one coordinate with
    # discriminant a nonzero square times l1^2 + l2^2 - l0^2: the cut is two
    # rational points or one double point, so not prime, exactly where that is
    # a square >= 0, and a conjugate pair of points, so prime, elsewhere.
    circle = make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"])
    root = circle.sampling_root((1,), True)
    forms = _krylov_forms(monkeypatch)
    statuses = []
    for line in itertools.product(range(-3, 4), repeat=3):
        if not any(line):
            continue
        l0, l1, l2 = line
        verdict, _ = _assert_same_as_krylov(specialize_scalar(root, line), 0, forms)
        d = l1 * l1 + l2 * l2 - l0 * l0
        if not (l1 or l2):
            expected = UNIT_IDEAL
        elif d >= 0 and math.isqrt(d) ** 2 == d:
            expected = NOT_PRIME
        else:
            expected = PRIME
        assert verdict.status == expected, line
        statuses.append(expected)
    assert len(statuses) == 342
    assert {status: statuses.count(status) for status in set(statuses)} == \
        {UNIT_IDEAL: 6, NOT_PRIME: 156, PRIME: 180}


def test_certified_fibers_build_no_basis_of_their_own(cubic_fiber_family, monkeypatch):
    # A curve fiber reads U, h(u) != 0 and its quotient's staircase from the
    # root's bases; certified from chi, it specializes no basis at (t, u).
    cubic_fiber_family.independent_set(cubic_fiber_family.context.keep(("Y1", "Y2", "Y3")))

    def refuse(*args):
        raise AssertionError("a certified fiber specializes no basis")

    monkeypatch.setattr(primality, "specialize_basis", refuse)
    for t in (3, 5, 7):  # the first u is 2, and 4*t is no cube
        fiber = specialize_scalar(cubic_fiber_family, [t])
        assert is_prime(fiber).status == PRIME
        assert fiber._cache == {} and callable(fiber._generators)


def test_pair_budget_that_stops_the_eliminant_falls_back_to_krylov(monkeypatch):
    # The fiber's own bases come from the root's, which the first fiber
    # builds; a pair budget of 1 then stops only the build of chi
    family = make_ideal(("Y1", "Y2", "Y3"), POINTS_FAMILY, params=("T",))
    assert specialize_scalar(family, [3]).dimension() == 0
    forms = _krylov_forms(monkeypatch)
    fiber = specialize_scalar(family, [2])
    verdict, reached = _assert_same_as_krylov(fiber, 0, forms, GBLimits(max_pairs=1))
    assert verdict.status == PRIME
    assert [str(f) for f in reached[:1]] == ["Y3"]
    assert family._chi == {("Y3", ()): None}


def test_passed_deadline_stops_the_eliminant():
    # the sample ends on its deadline, and later fibers take the Krylov path
    family = make_ideal(("Y1", "Y2", "Y3"), POINTS_FAMILY, params=("T",))
    with pytest.raises(BudgetExceededError, match="^wall-clock budget exceeded$"):
        family.eliminant("Y3", (), GBLimits(deadline=0.0))
    assert family._chi == {("Y3", ()): None}


def test_eliminant_travels_with_the_pickled_root(cubic_fiber_family, monkeypatch):
    rows = cubic_fiber_family.eliminant("Y2", ("Y3",))
    copy = pickle.loads(pickle.dumps(cubic_fiber_family))
    monkeypatch.setattr(groebner, "_eliminant_rows", None)  # a build would fail
    assert copy.eliminant("Y2", ("Y3",)) == rows
    assert is_prime(specialize_scalar(copy, [3])).status == PRIME
