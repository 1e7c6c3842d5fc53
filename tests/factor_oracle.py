"""Test oracles for univariate factorization over Q.

``brute_force_factor_oracle`` is an independent divisor search: it
enumerates small integer polynomials and shares none of the modular
split, Hensel lift or recombination of ``primespec.factor``, so it can
check that path.  ``is_irreducible_univariate`` reads irreducibility off
``factor_univariate``.
"""

import itertools

from primespec import BudgetExceededError, Polynomial, factor_univariate
from primespec.factor import (_from_dense, _to_dense, _zx_content, _zx_degree,
                              _zx_div_exact, _zx_primitive)


def is_irreducible_univariate(p: Polynomial) -> bool:
    """True when p has degree >= 1 and is irreducible over the rationals."""
    if p.total_degree() <= 0:
        return False
    _, factors = factor_univariate(p)
    return len(factors) == 1 and factors[0][1] == 1


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
    var, coeffs = _to_dense(p)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("oracle expects integer coefficients")
    zx = [int(c) for c in coeffs]
    degree = _zx_degree(zx)
    if degree < 1:
        raise ValueError("input must have degree >= 1")
    if not 1 <= max_deg < degree:
        raise ValueError("need 1 <= max_deg < deg p")
    f = _zx_primitive(zx)
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
                    if _zx_content(g) != 1:
                        continue
                    if _zx_div_exact(f, g) is not None:
                        return _from_dense(p.context, var, g)
    return None
