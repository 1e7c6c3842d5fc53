"""Polynomial arithmetic, substitution, content, and monomial counting."""

import math
from fractions import Fraction

import pytest

from primespec import ContextMismatchError, Polynomial, context, monomials_upto, parse_polynomial

from conftest import evaluate, random_polynomial, seeded


@pytest.fixture
def xy():
    return context(("Y1", "Y2"))


def test_product_difference_of_squares(xy):
    p = parse_polynomial("Y1 + Y2", xy) * parse_polynomial("Y1 - Y2", xy)
    assert p == parse_polynomial("Y1^2 - Y2^2", xy)


def test_product_of_conjugates_univariate():
    ctx = context(("Y",))
    p = parse_polynomial("Y - 2", ctx) * parse_polynomial("Y + 2", ctx)
    assert p == parse_polynomial("Y^2 - 4", ctx)


def test_additive_identity(xy):
    p = random_polynomial(xy, seeded(1))
    assert p + Polynomial.zero(xy) == p
    assert p - p == Polynomial.zero(xy)


def test_mul_degree_adds(xy):
    rng = seeded(2)
    for _ in range(30):
        a = random_polynomial(xy, rng)
        b = random_polynomial(xy, rng)
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).total_degree() == a.total_degree() + b.total_degree()


def test_context_mismatch_rejected(xy):
    other = context(("Z",))
    with pytest.raises(ContextMismatchError):
        Polynomial.variable(xy, "Y1") + Polynomial.variable(other, "Z")


def test_ring_axioms_on_random_triples(xy):
    rng = seeded(3)
    point = {"Y1": Fraction(3, 7), "Y2": Fraction(-2, 5)}
    for _ in range(100):
        p = random_polynomial(xy, rng)
        q = random_polynomial(xy, rng)
        r = random_polynomial(xy, rng)
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        # independent check through evaluation
        assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)


def test_substitute_scalar():
    ctx = context(("Y",), params=("T",))
    p = parse_polynomial("Y^2 - T", ctx)
    assert p.substitute({"T": 4}) == parse_polynomial("Y^2 - 4", ctx)


def test_substitute_exact_cancellation():
    ctx = context(("Y",), params=("T",))
    p = parse_polynomial("Y^2 - T", ctx)
    image = parse_polynomial("Y^2", ctx)
    assert p.substitute({"T": image}).is_zero


def test_substitute_expansion():
    # T*Y + 1 at T -> Y + 1 expands to Y^2 + Y + 1
    ctx = context(("Y",), params=("T",))
    p = parse_polynomial("T*Y + 1", ctx)
    assert p.substitute({"T": parse_polynomial("Y + 1", ctx)}) == parse_polynomial("Y^2 + Y + 1", ctx)


def test_substitute_is_ring_homomorphism(xy):
    rng = seeded(4)
    target = xy
    for _ in range(100):
        p = random_polynomial(xy, rng, max_degree=3)
        q = random_polynomial(xy, rng, max_degree=3)
        image = random_polynomial(xy, rng, max_degree=2, max_terms=3)
        bindings = {"Y1": image}
        assert (p * q).substitute(bindings, target) == \
            p.substitute(bindings, target) * q.substitute(bindings, target)
        assert (p + q).substitute(bindings, target) == \
            p.substitute(bindings, target) + q.substitute(bindings, target)


def test_unbound_variables_pass_through(xy):
    p = parse_polynomial("Y1 + Y2", xy)
    assert p.substitute({"Y1": 1}) == parse_polynomial("Y2 + 1", xy)


def test_content_primitive_integer_scaled():
    ctx = context(("Y",))
    content, primitive = parse_polynomial("6Y^2 - 4", ctx).integer_content_primitive()
    assert content == 2
    assert primitive == parse_polynomial("3Y^2 - 2", ctx)


def test_content_primitive_rational():
    ctx = context(("Y",))
    content, primitive = (Polynomial.variable(ctx, "Y") * Fraction(1, 2)).integer_content_primitive()
    assert content == Fraction(1, 2)
    assert primitive == Polynomial.variable(ctx, "Y")


def test_content_primitive_gcd():
    ctx = context(("Y",))
    content, primitive = parse_polynomial("9Y^2 - 12Y + 6", ctx).integer_content_primitive()
    assert content == 3
    assert primitive == parse_polynomial("3Y^2 - 4Y + 2", ctx)


def test_content_negative_lead_normalized():
    ctx = context(("Y",))
    content, primitive = parse_polynomial("-2Y + 4", ctx).integer_content_primitive()
    assert content == -2
    assert primitive == parse_polynomial("Y - 2", ctx)


def test_content_of_zero_rejected():
    ctx = context(("Y",))
    with pytest.raises(ValueError):
        Polynomial.zero(ctx).integer_content_primitive()


def test_embedding_and_restriction():
    small = context(("Y",))
    large = context(("Y",), params=("T",))
    p = parse_polynomial("Y^2 - 1", small)
    up = p.embed(large)
    assert up.context == large
    assert up.embed(small) == p
    uses_t = parse_polynomial("Y - T", large)
    with pytest.raises(ContextMismatchError):
        uses_t.embed(small)


def test_monomial_enumeration_order():
    # degree first, then Y1 before Y2: 1, Y1, Y2, Y1^2, Y1*Y2, Y2^2
    assert monomials_upto(2, 2) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@pytest.mark.parametrize("s,degree", [(s, d) for s in range(1, 5) for d in range(6)])
def test_space_dimension_matches_enumeration(s, degree):
    assert math.comb(s + degree, degree) == len(monomials_upto(s, degree))
