"""Test oracles for univariate factorization over Q.

``brute_force_factor_oracle`` is an independent divisor search: it
enumerates small integer polynomials and shares none of the modular
split, Hensel lift or recombination of ``primespec.factor``, so it can
check that path.  Its dense conversion, content and division are its
own: it imports nothing from ``primespec.factor``.
``is_irreducible_univariate`` reads irreducibility off
``factor_univariate``.
"""

import itertools
import math

from primespec import BudgetExceededError, Polynomial, factor_univariate


def is_irreducible_univariate(p: Polynomial) -> bool:
    """True when p has degree >= 1 and is irreducible over the rationals."""
    if p.total_degree() <= 0:
        return False
    _, factors = factor_univariate(p)
    return len(factors) == 1 and factors[0][1] == 1


def _dense(p: Polynomial):
    """(variable index, ascending coefficients) of a polynomial in at most one variable."""
    used = {i for exp in p.terms for i, e in enumerate(exp) if e}
    if len(used) > 1:
        raise ValueError("oracle expects a univariate polynomial")
    var = used.pop() if used else 0
    coeffs = [0] * (1 + max((exp[var] for exp in p.terms), default=0))
    for exp, c in p.terms.items():
        coeffs[exp[var]] = c
    return var, coeffs


def _sparse(p: Polynomial, var, coeffs) -> Polynomial:
    """The polynomial with ascending ``coeffs`` in the variable at ``var`` of p's context."""
    width = len(p.context)
    return Polynomial(p.context, {tuple(k if i == var else 0 for i in range(width)): c
                                  for k, c in enumerate(coeffs) if c})


def _divides(g, f):
    """True when the integer polynomial g divides f over the integers, by long division."""
    rem = list(f)
    while len(rem) >= len(g):
        q, r = divmod(rem[-1], g[-1])
        if r:
            return False
        for i, c in enumerate(g):
            rem[len(rem) - len(g) + i] -= q * c
        rem.pop()
    return not any(rem)


def _zx_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _divisors_upto(n, limit):
    n = abs(n)
    return [d for d in range(1, min(n, limit) + 1) if n % d == 0]


def brute_force_factor_oracle(p: Polynomial, max_deg: int, max_height: int,
                              max_candidates: int = 5_000_000) -> Polynomial | None:
    """Search for a nontrivial divisor by exhaustive enumeration.

    Tries every primitive integer polynomial of degree 1..max_deg with
    positive lead and coefficient height <= max_height, in degree order,
    and returns the first exact divisor (None if the search finds none).
    Cheap divisibility filters on the values at 0 and +-1 reject
    non-divisors before the division test.  Completely independent of
    the Hensel/Zassenhaus path, so it can serve as its oracle.
    """
    var, coeffs = _dense(p)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("oracle expects integer coefficients")
    degree = len(coeffs) - 1
    if degree < 1:
        raise ValueError("input must have degree >= 1")
    if not 1 <= max_deg < degree:
        raise ValueError("need 1 <= max_deg < deg p")
    content = math.gcd(*(int(c) for c in coeffs))
    f = [int(c) // content for c in coeffs]
    f0 = _zx_eval(f, 0)
    f1 = _zx_eval(f, 1)
    fm1 = _zx_eval(f, -1)
    lc = abs(f[-1])

    tried = 0
    lead_choices = _divisors_upto(lc, max_height)
    for d in range(1, max_deg + 1):
        if f0:
            pos = _divisors_upto(f0, max_height)
            a0_choices = [-v for v in reversed(pos)] + pos
        else:
            a0_choices = range(-max_height, max_height + 1)
        for lead in lead_choices:
            for a0 in a0_choices:
                for middle in itertools.product(range(-max_height, max_height + 1), repeat=d - 1):
                    tried += 1
                    if tried > max_candidates:
                        raise BudgetExceededError(
                            f"oracle enumeration exceeded {max_candidates} candidates")
                    g1 = a0 + sum(middle) + lead
                    if f1:
                        if g1 == 0 or f1 % g1:
                            continue
                    gm1 = a0 + sum(c if i % 2 else -c for i, c in enumerate(middle)) \
                        + (lead if d % 2 == 0 else -lead)
                    if fm1:
                        if gm1 == 0 or fm1 % gm1:
                            continue
                    g = [a0, *middle, lead]
                    if math.gcd(*g) != 1:
                        continue
                    if _divides(g, f):
                        return _sparse(p, var, g)
    return None
