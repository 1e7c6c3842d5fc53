"""Polynomial arithmetic, substitution, content, and monomial counting."""

import math
from fractions import Fraction

import pytest

from primespec import (ContextMismatchError, Polynomial, context, factor_univariate, monomials_upto,
                       parse_polynomial)
from primespec.poly import dense_table, horner, integer_primitive

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


def _reference_substitute(p, bindings, target=None):
    """The polynomial-per-term substitution, kept as an independent reference."""
    if target is None:
        target = p.context
    images = {}
    for name, value in bindings.items():
        if name not in p.context:
            raise ContextMismatchError(f"bound variable {name!r} not in context")
        if isinstance(value, (int, Fraction)):
            value = Polynomial.constant(target, value)
        elif value.context != target:
            terms = {}
            for exp, c in value.terms.items():
                moved = [0] * len(target)
                for variable, e in zip(value.context.names, exp):
                    if e:
                        moved[target.index[variable]] = e
                terms[tuple(moved)] = c
            value = Polynomial(target, terms)
        images[p.context.index[name]] = value
    one = Polynomial.constant(target, 1)
    var_cache = {}
    pow_cache = {}

    def var_power(i, e):
        key = (i, e)
        got = pow_cache.get(key)
        if got is None:
            if i in images:
                base = images[i]
            else:
                base = var_cache.get(i)
                if base is None:
                    base = Polynomial.variable(target, p.context.names[i])
                    var_cache[i] = base
            got = base ** e
            pow_cache[key] = got
        return got

    result = Polynomial.zero(target)
    for exp, coeff in p.terms.items():
        term = one * coeff
        for i, e in enumerate(exp):
            if e:
                term = term * var_power(i, e)
        result = result + term
    return result


def test_substitute_matches_reference():
    source = context(("Y1", "Y2", "Y3"), params=("T1", "T2"))
    # Same variables in another order, and a wider context in a third order.
    reordered = context(("Y3", "Y1", "Y2"))
    wider = context(("Y2", "Z", "Y3", "Y1"), params=("T2",))
    images_in = context(("Y1", "Y2"))
    rng = seeded(71)

    def scalar():
        value = rng.randint(-6, 6)
        return value if rng.random() < 0.5 else Fraction(value, rng.randint(1, 7))

    def image(ctx):
        return random_polynomial(ctx, rng, max_degree=2, max_terms=3) * Fraction(1, rng.randint(1, 3))

    # Each target lists the bound variables it lacks; the others may pass through.
    for target, required in ((source, ()), (reordered, ("T1", "T2")), (wider, ("T1",))):
        for _ in range(60):
            p = random_polynomial(source, rng, max_degree=5, max_terms=6) * scalar()
            kind = rng.choice(("int", "fraction", "poly", "mixed"))
            if kind == "int":
                bindings = {"T1": rng.randint(-5, 5), "T2": rng.randint(-5, 5)}
            elif kind == "fraction":
                bindings = {"T1": Fraction(rng.randint(-5, 5), 3), "T2": Fraction(7, rng.randint(1, 4))}
            elif kind == "poly":
                bindings = {"T1": image(images_in), "T2": image(target)}
            else:
                bindings = {"T1": scalar(), "T2": image(images_in), "Y1": image(images_in)}
            bindings = {n: v for n, v in bindings.items() if n in required or rng.random() < 0.7}
            assert p.substitute(bindings, target) == _reference_substitute(p, bindings, target)


def test_substitute_requires_used_unbound_variables_in_target():
    source = context(("Y1", "Y2"), params=("T",))
    target = context(("Y1",))
    uses_y2 = parse_polynomial("T*Y1 + Y2^2", source)
    with pytest.raises(ContextMismatchError, match="'Y2'"):
        uses_y2.substitute({"T": 2}, target)
    with pytest.raises(ContextMismatchError, match="'Y2'"):
        _reference_substitute(uses_y2, {"T": 2}, target)
    # Y2 is missing from the target but unused, so the image exists.
    avoids_y2 = parse_polynomial("T*Y1 + 3", source)
    assert avoids_y2.substitute({"T": 2}, target) == parse_polynomial("2*Y1 + 3", target)
    with pytest.raises(ContextMismatchError, match="'W'"):
        avoids_y2.substitute({"W": 1}, target)


def test_content_primitive_integer_scaled():
    ctx = context(("Y",))
    content, primitive = integer_primitive(parse_polynomial("6Y^2 - 4", ctx).terms)
    assert content == 2
    assert primitive == parse_polynomial("3Y^2 - 2", ctx).terms


def test_content_primitive_rational():
    ctx = context(("Y",))
    content, primitive = integer_primitive((Polynomial.variable(ctx, "Y") * Fraction(1, 2)).terms)
    assert content == Fraction(1, 2)
    assert primitive == Polynomial.variable(ctx, "Y").terms


def test_content_primitive_gcd():
    ctx = context(("Y",))
    content, primitive = integer_primitive(parse_polynomial("9Y^2 - 12Y + 6", ctx).terms)
    assert content == 3
    assert primitive == parse_polynomial("3Y^2 - 4Y + 2", ctx).terms


def test_content_negative_lead_normalized():
    # integer_primitive keeps the content positive; factor_univariate moves
    # the sign of a negative lead into its unit.
    ctx = context(("Y",))
    p = parse_polynomial("-2Y + 4", ctx)
    content, primitive = integer_primitive(p.terms)
    assert content == 2 and primitive == (p * Fraction(1, 2)).terms and primitive[(1,)] == -1
    content, factors = factor_univariate(p)
    assert content == -2
    assert factors == [(parse_polynomial("Y - 2", ctx), 1)]


def test_content_of_zero_rejected():
    # integer_primitive maps zero to content 0; factor_univariate rejects it.
    ctx = context(("Y",))
    assert integer_primitive(Polynomial.zero(ctx).terms) == (0, {})
    with pytest.raises(ValueError):
        factor_univariate(Polynomial.zero(ctx))


def _random_term_map(rng, width):
    """A random integer term map in ``width`` variables: sometimes empty, sometimes constant."""
    shape = rng.randrange(4)
    if shape == 0:
        return {}
    if shape == 1:
        return {(0,) * width: rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 30))}
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[tuple(rng.randint(0, 3) for _ in range(width))] = rng.randint(-9, 9)
    return {e: c for e, c in terms.items() if c}


def test_horner_of_a_dense_table_is_direct_evaluation():
    rng = seeded(14)
    for width in range(4):
        for _ in range(150):
            terms = _random_term_map(rng, width)
            table = dense_table(terms, width)
            for _ in range(4):
                point = [rng.randint(-6, 6) for _ in range(width)]
                direct = sum(c * math.prod(v ** e for v, e in zip(point, exp))
                             for exp, c in terms.items())
                assert horner(table, point) == direct, (terms, point)


def test_a_constant_table_is_its_int_at_any_width():
    # the constant coefficient 1 of a cutting root's lead costs no recursion
    for width in range(4):
        assert dense_table({}, width) == 0
        for c in (1, -7, 3 ** 40):
            assert dense_table({(0,) * width: c}, width) == c
            assert horner(c, [5] * width) == c
    # constant sub-maps are ints inside a table too: 3 + 2*x1 and x1*x2
    assert dense_table({(0, 0): 3, (1, 0): 2}, 2) == [3, 2]
    assert dense_table({(1, 1): 1}, 2) == [0, [0, 1]]


def test_embedding_and_restriction():
    small = context(("Y",))
    large = context(("Y",), params=("T",))
    p = parse_polynomial("Y^2 - 1", small)
    assert p.embed(p.context) is p
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
