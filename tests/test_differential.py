"""Differential tests of the root shortcuts against the origin-free path.

A scalar fiber of a root reads its bases, its eliminant chi and its memo
of modular splits from the root; the same generators in an ``Ideal`` with
no origin are their own root, run their own Buchberger and decide every
form by a Krylov run.  Both sides must give the same status, and where
both are prime the same certifying section.  Where both are not prime,
the certificates may differ (each side may split another form), so each
must replay against Buchberger's basis of the origin-free ideal.  The
one-cut arm compares a fiber of the cutting root with
``intersect_generic`` at the same coefficient block.

The families are drawn here from seeded generators, a fixed number of
them with a fixed number of fibers each; a draw that a pair or term
budget stops is counted, not compared.
"""

import random
from fractions import Fraction

from primespec import (BudgetExceededError, GBLimits, Ideal, Polynomial, context, eliminate,
                       intersect_generic, is_prime, specialize_scalar)
from primespec.primality import NOT_PRIME, PRIME, _certificate_error

LIMITS = GBLimits(max_pairs=200, max_term_count=2000)


def _random_polynomial(rng, ctx, terms, exponent, coefficient):
    """A nonconstant polynomial of up to ``terms`` terms, exponents and coefficients bounded."""
    while True:
        poly = {}
        for _ in range(terms):
            exp = tuple(rng.randint(0, exponent) for _ in range(len(ctx)))
            poly[exp] = Fraction(rng.choice([c for c in range(-coefficient, coefficient + 1) if c]))
        p = Polynomial(ctx, poly)
        if p.total_degree() > 0:
            return p


def _compare(fiber, reference, seed, stats):
    """Compare ``is_prime`` on a fiber of a root and on the origin-free ``reference``."""
    try:
        shortcut = is_prime(fiber, seed=seed, limits=LIMITS)
        plain = is_prime(reference, seed=seed, limits=LIMITS)
    except BudgetExceededError:
        stats["budget"] += 1
        return
    assert shortcut.status == plain.status, (reference.generators, seed)
    stats[shortcut.status] = stats.get(shortcut.status, 0) + 1
    if shortcut.status == PRIME and shortcut.sections:
        mine, theirs = shortcut.sections[-1], plain.sections[-1]
        if mine.point == theirs.point:
            assert mine == theirs, (reference.generators, seed)
        else:
            # The root's block at t need not be reduced, so its h can vanish at
            # a point u where the fiber's own h does not, and is_prime redraws u
            # there; in dimension 0 there is no u.
            assert (mine.independent, mine.linear_form, mine.quotient_dim) == \
                (theirs.independent, theirs.linear_form, theirs.quotient_dim)
            assert mine.minimal_poly.total_degree() == mine.quotient_dim
            stats["redrawn"] += 1
        stats["sections"] += 1
    if shortcut.status == NOT_PRIME:
        basis = reference.groebner(limits=LIMITS)
        for verdict in (shortcut, plain):
            assert _certificate_error(basis, *verdict.certificate, LIMITS) is None, \
                (reference.generators, seed)


def test_scalar_fibers_agree_with_the_origin_free_path():
    # 160 families in Q[T][Y1, Y2], six fibers each
    rng = random.Random(24)
    ctx = context(("Y1", "Y2"), params=("T",))
    stats = {"budget": 0, "sections": 0, "redrawn": 0, "families": 0}
    for _ in range(160):
        family = Ideal(ctx, [_random_polynomial(rng, ctx, rng.randint(2, 4), 2, 4)
                             for _ in range(rng.randint(1, 2))])
        ts = [rng.randint(-12, 12) for _ in range(6)]
        try:
            meets_t = not eliminate(family, ("T",), LIMITS).is_zero
        except BudgetExceededError:
            stats["budget"] += 1
            continue
        if meets_t:
            continue
        stats["families"] += 1
        for i, t in enumerate(ts):
            fiber = specialize_scalar(family, [t])
            _compare(fiber, Ideal(fiber.context, fiber.generators), i, stats)
    # at the time of writing: 156 families, 394 prime (381 with sections, 1
    # redrawn), 476 not_prime, 62 inconclusive, 4 unit_ideal, no budget stop
    assert stats["families"] >= 150 and stats["sections"] >= 300, stats
    assert stats[PRIME] >= 300 and stats[NOT_PRIME] >= 300, stats
    assert stats["budget"] <= 20 and stats["redrawn"] <= 5, stats


def test_one_cut_fibers_agree_with_intersect_generic():
    # 40 surfaces in Q[Y1, Y2, Y3], each cut by the planes at four blocks
    rng = random.Random(25)
    ctx = context(("Y1", "Y2", "Y3"))
    stats = {"budget": 0, "sections": 0, "redrawn": 0}
    for _ in range(40):
        surface = Ideal(ctx, [_random_polynomial(rng, ctx, rng.randint(2, 4), 2, 4)])
        blocks = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        try:
            root = surface.sampling_root((1,), True, LIMITS)
        except BudgetExceededError:
            root = None
        if root is None:
            stats["budget"] += 1
            continue
        for i, block in enumerate(blocks):
            cut = intersect_generic(surface, (1,), [block])
            _compare(specialize_scalar(root, block), cut, i, stats)
    # at the time of writing: 56 prime, all with sections, 44 not_prime, 60
    # inconclusive, no budget stop
    assert stats["sections"] >= 40 and stats[NOT_PRIME] >= 30, stats
    assert stats["budget"] <= 10 and stats["redrawn"] <= 5, stats
