"""Monomial orders: lex, grevlex, and block (elimination) orders.

An order exposes ``key(exponents) -> tuple``; monomial m1 is larger than
m2 exactly when ``key(m1) > key(m2)`` under Python's tuple comparison.
A block order compares group by group and therefore eliminates every
variable in groups preceding the last one: if a polynomial's leading
monomial avoids the leading groups, the whole polynomial does.
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


def block_order(context, group_names) -> MonomialOrder:
    """Block order from an ordered partition of variable names.

    ``group_names`` is a sequence of name groups, earliest group largest;
    each group is compared by grevlex.
    Every context variable must appear exactly once.
    """
    seen = []
    groups = []
    for names in group_names:
        idx = context.indices_of(names)
        seen.extend(idx)
        groups.append((idx, GREVLEX))
    if sorted(seen) != list(range(len(context))):
        raise ValueError("group_names must partition the context variables")
    return MonomialOrder(BLOCK, tuple(groups))


def elimination_order(context, keep_names) -> MonomialOrder:
    """Order that eliminates every variable outside ``keep_names``."""
    keep = set(keep_names)
    eliminated = tuple(n for n in context.names if n not in keep)
    kept = tuple(n for n in context.names if n in keep)
    if not eliminated:
        return grevlex
    if not kept:
        raise ValueError("elimination order must keep at least one variable")
    return block_order(context, (eliminated, kept))
