"""Monomial orders: lex, grevlex, and block (elimination) orders.

An order exposes ``key(exponents) -> tuple``; monomial m1 is larger than
m2 exactly when ``key(m1) > key(m2)`` under Python's tuple comparison.
A block order compares group by group and therefore eliminates every
variable in groups preceding the last one: if a polynomial's leading
monomial avoids the leading groups, the whole polynomial does.

``target_first`` builds every block order: a chosen part of the
variables, then the rest, each compared by grevlex.  Elimination
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
    return tuple(_grevlex_key(tuple(exp[i] for i in indices)) for indices in groups)


@dataclass(frozen=True)
class MonomialOrder:
    kind: str
    # For block orders: the index tuples of the groups, covering all
    # variables; each group is compared by grevlex.
    groups: tuple[tuple[int, ...], ...] = ()
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


def target_first(target, context) -> MonomialOrder:
    """The order on ``context`` comparing ``target``'s variables by grevlex, then the rest.

    ``target`` is a context whose names lie in ``context``.  The rest are
    compared by grevlex too; with no rest this is grevlex itself.
    """
    if target == context:
        return grevlex
    positions = context.indices_of(target.names)
    rest = tuple(i for i in range(len(context)) if i not in positions)
    return MonomialOrder(BLOCK, (positions, rest))
