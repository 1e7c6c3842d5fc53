"""Zero-dimensional quotients, minimal polynomials, primality verdicts."""

from fractions import Fraction

import pytest

from primespec import (Ideal, Polynomial, PrimespecError, context, grevlex, is_prime,
                       minimal_polynomial, parse_polynomial)
from primespec import BudgetExceededError, GBLimits
from primespec.primality import (INCONCLUSIVE, NOT_PRIME, PRIME, UNIT_IDEAL, ZeroDimQuotient,
                                 _evaluate_in_quotient, not_prime_verdict)

from conftest import make_ideal, random_polynomial, seeded


def test_quotient_basis_univariate():
    ideal = make_ideal(("Y",), ["Y^2 - 4"])
    q = ZeroDimQuotient(ideal.groebner(grevlex))
    assert q.staircase == ((0,), (1,))
    assert q.vector_dim == 2


def test_quotient_basis_two_points(two_points):
    assert ZeroDimQuotient(two_points.groebner(grevlex)).vector_dim == 2


def test_quotient_basis_rejects_unit_and_positive_dim(circle):
    ctx = context(("Y",))
    with pytest.raises(ValueError):
        ZeroDimQuotient(Ideal(ctx, [Polynomial.constant(ctx, 1)]).groebner(grevlex))
    with pytest.raises(ValueError):
        ZeroDimQuotient(circle.groebner(grevlex))


def test_minimal_polynomial_of_generator():
    ideal = make_ideal(("Y",), ["Y^2 - 4"])
    q = ZeroDimQuotient(ideal.groebner(grevlex))
    m = minimal_polynomial(q, Polynomial.variable(ideal.context, "Y"))
    assert str(m) == "Z^2 - 4"


def test_minimal_polynomial_of_zero():
    ideal = make_ideal(("Y",), ["Y^2 - 4"])
    q = ZeroDimQuotient(ideal.groebner(grevlex))
    assert str(minimal_polynomial(q, Polynomial.zero(ideal.context))) == "Z"


def test_minimal_polynomial_idempotent_coordinate(two_points):
    # X^2 = X in the quotient, so the minimal polynomial is Z^2 - Z
    q = ZeroDimQuotient(two_points.groebner(grevlex))
    m = minimal_polynomial(q, Polynomial.variable(two_points.context, "X"))
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
    assert not verdict.probabilistic


def test_unit_ideal_verdict():
    ctx = context(("Y",))
    verdict = is_prime(Ideal(ctx, [Polynomial.constant(ctx, 2)]), seed=0)
    assert verdict.status == UNIT_IDEAL


def test_circle_prime_probabilistic(circle):
    # seed chosen so all five random sections avoid rational chords
    verdict = is_prime(circle, trials=5, seed=3)
    assert verdict.status == PRIME
    assert verdict.probabilistic
    assert len(verdict.sections) == 5


def test_nonradical_ideal_not_prime():
    verdict = is_prime(make_ideal(("Y",), ["Y^2"]), seed=0)
    assert verdict.status == NOT_PRIME


def test_product_of_lines_never_certified_prime():
    # reducible but with no descending section certificate: never Prime
    ideal = make_ideal(("Y1", "Y2"), ["Y1*Y2"])
    for seed in range(6):
        verdict = is_prime(ideal, seed=seed)
        assert verdict.status in (NOT_PRIME, INCONCLUSIVE)
        if verdict.status == NOT_PRIME:
            f, g = verdict.certificate
            basis = ideal.groebner()
            assert basis.contains(f * g)


NON_PRIME_WITH_PRIME_SECTIONS = {
    # (X) with an embedded point at the origin: X^2 lies in it, X does not
    "(X^2, XY)": (("X", "Y"), ["X^2", "X*Y"]),
    # the line X = 0 and the point (1, 0)
    "(XY, X^2 - X)": (("X", "Y"), ["X*Y", "X^2 - X"]),
    # the plane X = 0 and the line Y = Z = 0
    "(XY, XZ)": (("X", "Y", "Z"), ["X*Y", "X*Z"]),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: random sections miss the "
                                       "embedded or lower-dimensional component, so the "
                                       "section loop answers prime")
@pytest.mark.parametrize("case", sorted(NON_PRIME_WITH_PRIME_SECTIONS))
def test_positive_dimensional_non_prime_ideals_never_prime(case):
    variables, gens = NON_PRIME_WITH_PRIME_SECTIONS[case]
    ideal = make_ideal(variables, gens)
    assert all(is_prime(ideal, seed=seed).status != PRIME for seed in range(5))


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
        not_prime_verdict(basis, x, x, trials=1)  # x*x is not in the ideal


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
    assert ZeroDimQuotient(ideal.groebner(grevlex)).vector_dim == 16
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


def _coords(q, reduced):
    """Coordinates of a reduced polynomial in the staircase basis."""
    vec = [Fraction(0)] * q.vector_dim
    for exp, coeff in reduced.terms.items():
        vec[q.index[exp]] = coeff
    return vec


def _krylov_rank(q, element):
    reduced = q.reduce(element)
    power = q.reduce(Polynomial.constant(element.context, 1))
    rows = [_coords(q, power)]
    for _ in range(q.vector_dim):
        power = q.reduce(power * reduced)
        rows.append(_coords(q, power))
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


def test_minimal_polynomial_matches_krylov_rank():
    ideal = make_ideal(("Y1", "Y2", "Y3"), POINTS_T2)
    q = ZeroDimQuotient(ideal.groebner(grevlex))
    assert q.vector_dim == 12
    ctx = ideal.context
    # The T = 2 field has no proper subfield (mod-p factor degrees 1 + 11
    # force a 2-transitive Galois group), so its one element of low degree
    # is a constant; at T = 0, Y1^3 = 1 and Y1 + Y1^2 has degree 2.
    fiber_t0 = make_ideal(("Y1", "Y2", "Y3"), ["Y1^3 - 1", "Y2^2 - Y1*Y3", "Y3^2 - Y1 - Y2"])
    q_t0 = ZeroDimQuotient(fiber_t0.groebner(grevlex))
    forms = _points_forms(ctx) + [parse_polynomial("1/2*Y1 - 3/7*Y2 + 5/3*Y3", ctx)]
    cases = [(q, e) for e in forms]
    cases += [(q, Polynomial.constant(ctx, 3)),
              (q_t0, parse_polynomial("Y1 + Y1^2", fiber_t0.context)),
              (q_t0, parse_polynomial("1/2*Y1 + 1/2*Y1^2", fiber_t0.context))]
    found = []
    for quotient, element in cases:
        m = minimal_polynomial(quotient, element)
        top = max(m.terms, key=lambda exp: exp[0])
        assert m.terms[top] == 1
        assert _evaluate_in_quotient(quotient, m, quotient.reduce(element)).is_zero
        assert m.total_degree() == _krylov_rank(quotient, element)
        found.append(m)
    assert [m.total_degree() for m in found] == [12] * 6 + [1, 2, 2]
    assert [str(m) for m in found[6:]] == ["Z - 3", "Z^2 - Z - 2", "Z^2 - 1/2*Z - 1/2"]


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
    q = ZeroDimQuotient(ideal.groebner(grevlex))
    forms = _points_forms(ideal.context)
    assert [str(minimal_polynomial(q, forms[i])) for i in (0, 1)] == GOLDEN_POINTS_MINPOLYS


def test_expired_deadline_stops_minimal_polynomial():
    import time

    ideal = make_ideal(("Y1", "Y2", "Y3"), POINTS_T2)
    expired = ZeroDimQuotient(ideal.groebner(), GBLimits(deadline=time.monotonic() - 1))
    with pytest.raises(BudgetExceededError):
        minimal_polynomial(expired, Polynomial.variable(ideal.context, "Y1"))
