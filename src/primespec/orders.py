"""Monomial orders: lex, grevlex, and block (elimination) orders.

An order exposes ``key(exponents) -> tuple``; monomial m1 is larger than
m2 exactly when ``key(m1) > key(m2)`` under Python's tuple comparison.
A block order compares group by group and therefore eliminates every
variable in groups preceding the last one: if a polynomial's leading
monomial avoids the leading groups, the whole polynomial does.

``target_first`` builds every block order: a chosen part of the
variables under a given order, then the rest by grevlex.  Elimination
orders, the (Y | T) orders that fibers read their bases from and the
(V | U) block bases of primality are all of this form.  Equal groups
give equal orders, so each is one cache key for ``Ideal.groebner``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import neg

LEX = "lex"
GREVLEX = "grevlex"
BLOCK = "block"


def _lex_key(exp):
    return exp


def _grevlex_key(exp):
    # Ties on total degree break by the *last* nonzero entry of the
    # difference being negative, i.e. reversed negated exponents.
    return (sum(exp), tuple(map(neg, reversed(exp))))


def _block_key(groups, exp):
    parts = []
    for indices, inner in groups:
        sub = tuple(exp[i] for i in indices)
        parts.append(_grevlex_key(sub) if inner == GREVLEX else _lex_key(sub))
    return tuple(parts)


@dataclass(frozen=True)
class MonomialOrder:
    kind: str
    # For block orders: ((indices, inner_kind), ...) covering all variables.
    groups: tuple[tuple[tuple[int, ...], str], ...] = ()
    # key(exp), bound once when the order is built.
    key: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == LEX:
            key = _lex_key
        elif self.kind == GREVLEX:
            key = _grevlex_key
        else:
            key = functools.partial(_block_key, self.groups)
        object.__setattr__(self, "key", key)


lex = MonomialOrder(LEX)
grevlex = MonomialOrder(GREVLEX)


def target_first(order: MonomialOrder, target, context) -> MonomialOrder:
    """The order on ``context`` comparing ``target``'s variables by ``order``, then the rest.

    ``target`` is a context whose names lie in ``context``, and ``order``
    an order on it.  The rest are compared by grevlex; with no rest this
    is ``order`` itself.
    """
    if target == context:
        return order
    positions = context.indices_of(target.names)
    rest = tuple(i for i in range(len(context)) if i not in positions)
    groups = order.groups if order.kind == BLOCK else ((tuple(range(len(target))), order.kind),)
    return MonomialOrder(BLOCK, tuple((tuple(positions[i] for i in idx), inner)
                                      for idx, inner in groups) + ((rest, GREVLEX),))
