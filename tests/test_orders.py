"""Monomial order laws and elimination-order structure."""

import itertools

import pytest

from primespec import context, grevlex, lex, target_first

from conftest import seeded


def random_exponent(rng, width, max_e=4):
    return tuple(rng.randint(0, max_e) for _ in range(width))


@pytest.mark.parametrize("order_name", ["lex", "grevlex", "block"])
def test_total_order_laws(order_name):
    ctx = context(("Y1", "Y2"), params=("T",))
    if order_name == "lex":
        order = lex
    elif order_name == "grevlex":
        order = grevlex
    else:
        order = target_first(ctx.keep(("T",)), ctx)
    rng = seeded(11)
    for _ in range(200):
        a = random_exponent(rng, 3)
        b = random_exponent(rng, 3)
        c = random_exponent(rng, 3)
        ka, kb = order.key(a), order.key(b)
        # antisymmetry: distinct monomials compare strictly one way
        assert (ka > kb) + (kb > ka) + (a == b) == 1 or (ka == kb and a == b)
        # compatibility with multiplication
        shifted = tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c))
        if ka > kb:
            assert order.key(shifted[0]) > order.key(shifted[1])


def test_lex_and_grevlex_disagree_where_expected():
    # X vs Y^2 in two variables: lex ranks X higher, grevlex ranks Y^2 higher.
    x, y2 = (1, 0), (0, 2)
    assert lex.key(x) > lex.key(y2)
    assert grevlex.key(y2) > grevlex.key(x)


def test_grevlex_tie_break():
    # equal degree: the variable earlier in the context wins
    assert grevlex.key((1, 0)) > grevlex.key((0, 1))
    assert grevlex.key((1, 1, 0)) > grevlex.key((1, 0, 1))


def test_block_order_eliminates_leading_group():
    ctx = context(("Y1", "Y2"), params=("T",))
    order = target_first(ctx.keep(("T",)), ctx)
    # any monomial containing T beats every T-free monomial
    for exp in itertools.product(range(3), repeat=3):
        if exp[0] > 0:
            assert order.key(exp) > order.key((0, 2, 2))


def test_elimination_keeping_everything_is_grevlex():
    ctx = context(("Y1", "Y2"))
    assert target_first(ctx, ctx) == grevlex
