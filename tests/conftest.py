"""Shared fixtures: canonical-form auditing, suite ideals, random generators."""

import random
from fractions import Fraction

import pytest

from primespec import Ideal, Polynomial, context, parse_polynomial


@pytest.fixture(autouse=True)
def audit_canonical_form(monkeypatch):
    """Every polynomial built during a test is audited for canonical form."""
    construct = Polynomial.__init__

    def audited(self, context, terms=None):
        construct(self, context, terms)
        width = len(context)
        for exp, coeff in self.terms.items():
            assert coeff != 0, f"zero coefficient stored at {exp}"
            assert len(exp) == width and all(e >= 0 for e in exp), f"bad exponent {exp}"

    monkeypatch.setattr(Polynomial, "__init__", audited)


def make_ideal(variables, gens, params=()):
    ctx = context(variables, params=params)
    return Ideal(ctx, [parse_polynomial(g, ctx) for g in gens])


@pytest.fixture
def two_points():
    # V(Y - X, Y - X^2) = {(0,0), (1,1)}: generated by irreducibles, not prime.
    return make_ideal(("X", "Y"), ["Y - X", "Y - X^2"])


@pytest.fixture
def circle():
    return make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"])


@pytest.fixture
def twisted_cubic():
    return make_ideal(("Y1", "Y2", "Y3"), ["Y2 - Y1^2", "Y3 - Y1^3"])


@pytest.fixture
def parabola_family():
    return make_ideal(("Y",), ["Y^2 - T"], params=("T",))


@pytest.fixture
def cubic_fiber_family():
    return make_ideal(("Y1", "Y2", "Y3"), ["Y2 - T*Y1^2", "Y3 - Y1*Y2"], params=("T",))


def suite_proper_ideals():
    """Proper ideals exercised by the cross-module invariants."""
    return [
        make_ideal(("X", "Y"), ["Y - X", "Y - X^2"]),
        make_ideal(("Y",), ["Y^2 - 4"]),
        make_ideal(("Y1", "Y2"), ["Y1^2 + Y2^2 - 1"]),
        make_ideal(("Y1", "Y2", "Y3"), ["Y2 - Y1^2", "Y3 - Y1^3"]),
        make_ideal(("Y",), ["Y^2 - T"], params=("T",)),
        make_ideal(("Y1", "Y2", "Y3"), ["Y2 - T*Y1^2", "Y3 - Y1*Y2"], params=("T",)),
    ]


def random_polynomial(ctx, rng, max_degree=4, max_coeff=9, max_terms=5):
    width = len(ctx)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(width)] += 1
        coeff = rng.randint(-max_coeff, max_coeff)
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(ctx, {e: Fraction(c) for e, c in terms.items() if c})


def evaluate(p, point):
    """Independent evaluation of a polynomial at a rational point."""
    total = Fraction(0)
    names = p.context.names
    for exp, coeff in p.terms.items():
        value = coeff
        for i, e in enumerate(exp):
            if e:
                value *= point[names[i]] ** e
        total += value
    return total


def seeded(seed):
    return random.Random(seed)
