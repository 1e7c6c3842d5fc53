"""Exact factorization of univariate polynomials over the rationals.

Pipeline: strip the rational content, prove the input squarefree, and
factor it.  A quadratic or a cubic is squarefree where its discriminant
is nonzero.  A degree 4 and up f is proved squarefree at the prime of its
modular split: the scan takes the odd primes p that do not divide lc(f)
in increasing order, and the first at which f mod p is squarefree both
fixes p and proves f squarefree over Q, since disc(f) mod p =
disc(f mod p) != 0 (von zur Gathen-Gerhard, 14.6 and 15.4).  Only where
neither proof holds (a zero discriminant, or the first deg f primes of
the scan all fail) does f go through Yun's squarefree decomposition, whose
gcds are primitive remainder sequences over Z, and each part is factored
on its own.  A quadratic a*z^2 + b*z + c splits exactly when
its discriminant d = b^2 - 4ac is a square, into the primitive parts of
2a*z + b -+ sqrt(d).  A cubic splits exactly when it has a rational root,
found by bisection on the pieces where it is monotone; the quotient then
goes through the quadratic rule.  Degrees 4 and up are factored modulo the
scan's p by a distinct-degree split followed by a Cantor-Zassenhaus
equal-degree split.  The modular factors are lifted one quadratic level
at a time, m = p^2, p^4, ..., up to p^l, the least power of p above twice
the Landau-Mignotte coefficient bound (the last step stops at p^l rather
than squaring past it): each factor but the largest on its own by Newton
iteration against f/lc(f) and the inverse of its cofactor, the largest
as the quotient of f/lc(f) by the others.  At the first level m below
p^l that is at least 2^12 times 2 * lc * (n - 1) * B, for B a power of
two above every root (Fujiwara), the trace test
(Abbott-Shoup-Zimmermann) reads the lifted factors: a
true factor made of a subset of them has lc times the sum of their
subleading coefficients within lc * its degree * B, and where no subset
of at most half of them does, the polynomial is irreducible and the lift
stops there.  Otherwise the same lift goes on to p^l, and the factors are
recombined by exhaustive subset search up to half the modular factor
count.

Whether f mod p is squarefree, and its modular split, depend only on p
and f/lc(f) mod p, so a caller that factors many congruent polynomials
passes a dict that memoizes both per tried prime (``splits``): the scalar
fibers of one root share one, held on the root, because chi(t, W) mod p
depends on t mod p only.  There is no module-level cache.

Dense integer coefficient lists (ascending, index = exponent) are used
throughout.  The one factorization core, ``factor_primitive``, takes a
primitive integer row with a positive lead and returns integer rows; a
caller that holds integers, as ``primality`` does for an eliminant,
calls it directly.  A univariate ``Polynomial`` crosses to such a row and
back at one place: ``_integer_row`` reads it as a unit times a primitive
row, and ``_from_row`` builds row(x) / den.  ``factor_univariate`` uses
both, and so does ``primality`` for every minimal polynomial it builds
or splits: ``Fraction``s appear only in the polynomials built and in the
unit.  The modular split (m = p) and the Hensel lift
(m = p^k) share one arithmetic modulo m, with residues in [0, m).  The
symmetric representative in (-m/2, m/2] is taken in two places only:
where the trace test reads a sum of subleading coefficients, and where
the recombination turns a product of lifted factors into an integer
candidate.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import BudgetExceededError, PrimespecError
from .groebner import DEFAULT_LIMITS
from .poly import Polynomial, integer_primitive

# -- dense integer polynomials (zx): [a0, a1, ...], stripped ----------------


def _zx_strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _zx_degree(f):
    return len(f) - 1


def _zx_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return _zx_strip(out)


def _zx_sub(f, g):
    out = list(f) + [0] * (len(g) - len(f))
    for i, b in enumerate(g):
        out[i] -= b
    return _zx_strip(out)


def _zx_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _zx_strip(out)


def _zx_derivative(f):
    return _zx_strip([i * c for i, c in enumerate(f)][1:])


def _zx_primitive(f):
    """Primitive part with positive leading coefficient."""
    c = math.gcd(*f)
    if f and f[-1] < 0:
        c = -c
    return [a // c for a in f]


def _zx_div_exact(f, g):
    """Quotient of f by g over the integers, or None if g does not divide f."""
    rem = list(f)
    dg = len(g) - 1
    lc = g[-1]
    q = [0] * (len(f) - dg) if len(f) > dg else []
    while len(rem) - 1 >= dg and rem:
        lead = rem[-1]
        if lead % lc:
            return None
        c = lead // lc
        k = len(rem) - 1 - dg
        q[k] = c
        for i, b in enumerate(g):
            rem[k + i] -= c * b
        _zx_strip(rem)
    return q if not rem else None


# -- integer gcd (used by Yun's squarefree decomposition) ---------------------


def _zx_gcd(f, g):
    """Primitive positive-lc gcd over Q of two integer polynomials.

    Primitive polynomial remainder sequence (Brown 1971): each
    pseudo-remainder over Z is replaced by its primitive part, so no
    rational arithmetic is needed and contents never accumulate.  A
    division step on the lead c of the remainder multiplies it by
    lc(g)/gcd(c, lc(g)) only.
    """
    while g:
        r = list(f)
        lc = g[-1]
        dg = len(g) - 1
        while len(r) - 1 >= dg:
            c = r[-1]
            k = len(r) - 1 - dg
            d = math.gcd(c, lc)
            mult, c = lc // d, c // d
            if mult != 1:
                r = [mult * a for a in r]
            for i, b in enumerate(g):
                r[k + i] -= c * b
            r.pop()
            _zx_strip(r)
        f, g = g, _zx_primitive(r) if r else []
    return _zx_primitive(f) if f else []


def _discriminant(f):
    """Discriminant of a quadratic or a cubic."""
    if len(f) == 3:
        c, b, a = f
        return b * b - 4 * a * c
    d, c, b, a = f
    return (b * b * c * c - 4 * a * c * c * c - 4 * b * b * b * d - 27 * a * a * d * d
            + 18 * a * b * c * d)


def _yun_squarefree(f):
    """Squarefree decomposition of a primitive integer polynomial.

    Returns [(part, multiplicity)] with pairwise-coprime primitive
    squarefree parts whose weighted product is f.
    """
    if len(f) in (3, 4) and _discriminant(f):
        return [(f, 1)]  # a nonzero discriminant: no repeated root
    d = _zx_gcd(f, _zx_derivative(f))
    if len(d) == 1:
        return [(f, 1)]
    v = _zx_div_exact(f, d)
    w = _zx_div_exact(_zx_derivative(f), d)
    out = []
    i = 1
    while len(v) > 1:
        z = _zx_sub(w, _zx_derivative(v))
        h = _zx_gcd(v, z)
        if len(h) > 1:
            out.append((h, i))
        v = _zx_div_exact(v, h)
        w = _zx_div_exact(z, h)
        i += 1
    return out


# -- arithmetic modulo m: stripped lists of residues in [0, m) ----------------
# Inputs may be any integer lists.  A lead that is inverted must be a unit
# mod m; the gcd and gcdex helpers need m prime.


def _mod(f, m):
    return _zx_strip([c % m for c in f])


def _mod_monic(f, m):
    inv = pow(f[-1], -1, m)
    return [c * inv % m for c in f]


def _mod_mul(f, g, m):
    return _mod(_zx_mul(f, g), m)


def _mod_divmod(f, g, m):
    """Quotient and remainder of f by g modulo m."""
    rem = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, m)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = rem.pop() * inv % m
        if c:
            for i in range(dg):
                rem[k + i] -= c * g[i]
    return _mod(q, m), _mod(rem, m)


def _mod_gcd(f, g, p):
    while g:
        f, g = g, _mod_divmod(f, g, p)[1]
    return _mod_monic(f, p) if f else []


def _mod_gcdex(f, g, p):
    """(s, t, gcd) with s*f + t*g = gcd modulo p, gcd monic."""
    r0, r1 = f, g
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_zx_sub(s0, _zx_mul(q, s1)), p)
        t0, t1 = t1, _mod(_zx_sub(t0, _zx_mul(q, t1)), p)
    inv = pow(r0[-1], -1, p)
    return ([c * inv % p for c in s0],
            [c * inv % p for c in t0],
            [c * inv % p for c in r0])


def _mod_pow(base, n, mod, m, limits):
    """base^n reduced by the polynomial mod, modulo m, for base reduced by mod.

    Checks the deadline once per squaring: an exponent (p^d - 1)/2 has
    d*log2(p) bits.
    """
    result = [1]
    while n:
        if n & 1:
            result = _mod_divmod(_zx_mul(result, base), mod, m)[1]
        n >>= 1
        if n:
            limits.check_deadline()
            base = _mod_divmod(_zx_mul(base, base), mod, m)[1]
    return result


def _modular_factors(f, p, limits):
    """Monic irreducible factors of a monic f, squarefree modulo the odd prime p.

    Distinct-degree split: once the factors of degree below d are divided
    out, gcd(x^(p^d) - x, f) is the product of those of degree d.
    Equal-degree split (Cantor-Zassenhaus): for a random residue a,
    gcd(a^((p^d - 1)/2) - 1, g) keeps each degree-d factor of g with
    probability about 1/2.  The factors are unique, so the seeded draws
    change only the order in which they are found.
    """
    rng = random.Random(p)
    blocks, factors = [], []
    h = [0, 1]
    d = 1
    while 2 * d <= len(f) - 1:
        limits.check_deadline()
        h = _mod_pow(h, p, f, p, limits)
        g = _mod_gcd(f, _mod(_zx_sub(h, [0, 1]), p), p)
        if len(g) > 1:
            blocks.append((g, d))
            f = _mod_divmod(f, g, p)[0]
            h = _mod_divmod(h, f, p)[1]
        d += 1
    if len(f) > 1:
        factors.append(f)
    while blocks:
        g, d = blocks.pop()
        if len(g) - 1 == d:
            factors.append(g)
            continue
        limits.check_deadline()
        a = _zx_strip([rng.randrange(p) for _ in range(len(g) - 1)])
        b = _mod_gcd(g, _mod(_zx_sub(_mod_pow(a, (p ** d - 1) // 2, g, p, limits), [1]), p), p)
        split = 1 < len(b) < len(g)
        blocks += [(b, d), (_mod_divmod(g, b, p)[0], d)] if split else [(g, d)]
    return factors


# -- Hensel lifting -----------------------------------------------------------


def _newton_step(M, r, g, s):
    """Lift a monic factor g of F from mod m to mod M | m^2: g + s * r rem g (mod M).

    For r = F rem g (mod M) and s * (F/g) = 1 (mod g, m): with F = g*h
    (mod m), the lift g + d and h + e have F - g*h = d*h + e*g (mod M).
    """
    return _mod(_zx_add(g, _mod_divmod(_zx_mul(s, r), g, M)[1]), M)


def _inverse_step(m, h, g, s):
    """One Newton step for the inverse of h mod g: s * (2 - s*h) rem g (mod m).

    Lifts s = h^-1 (mod g, m') to mod (g, m), for m | m'^2 and g, h mod m.
    """
    e = _mod_divmod(_zx_mul(s, h), g, m)[1]
    return _mod_divmod(_zx_mul(s, _zx_sub([2], e)), g, m)[1]


def _lift_levels(p, f, modular_factors, pl, limits):
    """Lift monic mod-p factors of f/lc(f) one quadratic level at a time, up to pl = p^l.

    Yields (m, lifted) for m = p, p^2, p^4, ..., each m the least of the
    square of the last and pl, and stops after m = pl: the monic factors
    mod m, residues in [0, m), whose product times lc(f) is f mod m.  Each
    factor g but the first of largest degree is lifted on its own by Newton
    iteration against F = f/lc(f), with s the inverse of its cofactor F/g
    mod g (von zur Gathen-Gerhard, 9.2 and 15.4); the largest is F divided
    by the product of the others.  One division of F by g gives both
    F rem g for the lift of g and F quo g for the Newton step of s, which
    the next level needs and which runs only when the generator is
    resumed, so a caller that stops at a level never pays for it.
    """
    F = _mod_monic(f, pl)
    lifted = list(modular_factors)
    big = max(range(len(lifted)), key=lambda i: len(lifted[i]))
    inverses = {}
    for i, g in enumerate(lifted):
        if i != big:
            q = _mod_divmod(F, g, p)[0]
            s, _, one = _mod_gcdex(_mod_divmod(q, g, p)[1], g, p)
            if one != [1]:
                raise PrimespecError("mod-p factors are not coprime")
            inverses[i] = s
    m = p
    while True:
        yield m, list(lifted)
        if m >= pl:
            return
        M = min(m * m, pl)
        FM, others = _mod(F, M), [1]
        for i, s in inverses.items():
            limits.check_deadline()
            g = lifted[i]
            q, r = _mod_divmod(FM, g, M)  # F quo g and F rem g, mod M and so mod m
            if m > p:  # the inverse step of the last level, deferred to here
                s = inverses[i] = _inverse_step(m, _mod_divmod(q, g, m)[1], g, s)
            lifted[i] = _newton_step(M, r, g, s)
            others = _mod_mul(others, lifted[i], M)
        limits.check_deadline()
        lifted[big] = _mod_divmod(FM, others, M)[0]
        m = M


# -- Zassenhaus ---------------------------------------------------------------


def mignotte_factor_height(coeffs, factor_degree) -> int:
    """Coefficient bound for any degree-bounded divisor of an integer polynomial."""
    norm_sq = sum(c * c for c in coeffs)
    return (1 << factor_degree) * (math.isqrt(norm_sq) + 1)


def _quadratic_factors(f):
    """Factors of a primitive squarefree quadratic, split by its discriminant."""
    c, b, a = f
    disc = _discriminant(f)
    root = math.isqrt(disc) if disc > 0 else -1
    if root * root != disc:
        return [list(f)]
    return [_zx_primitive([b - root, 2 * a]), _zx_primitive([b + root, 2 * a])]


def _cubic_factors(f):
    """Factors of a primitive squarefree cubic, split at its rational root.

    A cubic is reducible over Q exactly when it has a rational root.  With
    z = y/a, a^2 f(z) is the monic g(y) = y^3 + b y^2 + ac y + a^2 d, whose
    rational roots are integers below its Cauchy bound 1 + max |g_i| in
    absolute value.  The critical points (-b -+ sqrt(b^2 - 3ac))/3 lie
    inside that bound too and cut it into at most three integer pieces on
    which g is monotone, so a bisection on each finds the root if there is
    one.
    """
    d, c, b, a = f
    ac, aad = a * c, a * a * d

    def g(y):
        return ((y + b) * y + ac) * y + aad

    bound = 1 + max(abs(b), abs(ac), abs(aad))
    edges = [-bound - 1]  # the pieces are (edges[i], edges[i + 1]]
    crit = b * b - 3 * ac
    if crit > 0:
        s = math.isqrt(crit)
        edges += [(-b - s - (s * s != crit)) // 3, (-b + s) // 3]  # the floors, exactly
    edges.append(bound)
    for sign, lo, hi in zip((1, -1, 1), edges, edges[1:]):  # sign * g increases on the piece
        if sign * g(hi) < 0:
            continue
        while hi - lo > 1:  # sign * g(hi) >= 0, and lo is the edge or sign * g(lo) < 0
            mid = (lo + hi) // 2
            if sign * g(mid) >= 0:
                hi = mid
            else:
                lo = mid
        if g(hi) == 0:
            linear = _zx_primitive([-hi, a])
            return [linear] + _quadratic_factors(_zx_div_exact(f, linear))
    return [list(f)]


# The trace test runs at the first level m at least 2^TRACE_MARGIN_BITS times
# twice lc * (n - 1) * the root bound, so that a residue that is no true
# factor's trace passes it with a chance of about 2^-TRACE_MARGIN_BITS.
TRACE_MARGIN_BITS = 12


def _root_bound(f):
    """A power of two B above |z| for every complex root z of f.

    Fujiwara: |z| <= 2 * max(|a_(n-i) / a_n|^(1/i)), with a_0 / (2 a_n)
    in place of a_0 / a_n.  Each term is bounded by a power of two read
    from bit lengths (no floats, which overflow on large coefficients),
    and B is at least 2.
    """
    n = len(f) - 1
    lead = f[-1].bit_length()
    e = 0
    for i in range(1, n + 1):
        if f[n - i]:
            # |a_(n-i) / a_n| < 2^(bits(a_(n-i)) - bits(a_n) + 1), halved for a_0
            e = max(e, -((lead - f[n - i].bit_length() - 1 + (i == n)) // i))
    return 2 << e


def _trace_test(lifted, m, lc, bound, limits):
    """False when no subset of at most half the lifted factors can make a true factor.

    For a true factor g whose factors mod m are the subset S, lc * the sum
    of their subleading coefficients is lc(f)/lc(g) * g[deg g - 1], at most
    lc * deg(S) * bound in absolute value (``bound`` above every root), so
    where m exceeds twice lc * (deg f - 1) * bound its symmetric residue
    mod m is that integer (Abbott-Shoup-Zimmermann's d-1 test).
    """
    traces = [u[-2] for u in lifted]
    degrees = [len(u) - 1 for u in lifted]
    for size in range(1, len(lifted) // 2 + 1):
        limits.check_deadline()
        for subset in itertools.combinations(range(len(lifted)), size):
            trace = lc * sum(traces[i] for i in subset) % m
            if 2 * trace > m:
                trace -= m
            if abs(trace) <= lc * bound * sum(degrees[i] for i in subset):
                return True
    return False


def _split_mod(f, limits, splits, candidates=None):
    """(p, the sorted monic factors of f mod p) for the first good odd prime p, or None.

    The scan tries the odd primes p that do not divide lc(f) in increasing
    order, the first ``candidates`` of them (all if None), and p is good
    where f mod p is squarefree; then f is squarefree over Q, since
    disc(f) mod p = disc(f mod p) != 0.  ``splits``, a dict or None,
    memoizes each tried prime by (p, f/lc(f) mod p), which alone decides
    the split, or None where f mod p is not squarefree.  The deadline is
    checked once per tried prime, whether the memo holds it or not.
    """
    p = 3
    while candidates != 0:
        if f[-1] % p and all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            limits.check_deadline()
            monic = _mod_monic(f, p)
            key = (p, tuple(monic))
            if splits is not None and key in splits:
                modular = splits[key]
            else:
                db = _mod(_zx_derivative(monic), p)
                squarefree = db and _mod_gcd(monic, db, p) == [1]
                modular = sorted(_modular_factors(monic, p, limits)) if squarefree else None
                if splits is not None:
                    splits[key] = modular
            if modular is not None:
                return p, modular
            if candidates is not None:
                candidates -= 1
        p += 2
    return None


def _zassenhaus(f, limits, splits=None, candidates=None):
    """Irreducible factors of a primitive squarefree integer polynomial.

    ``splits`` and ``candidates`` go to the prime scan (``_split_mod``); a
    degree 4 and up f that may not be squarefree passes a bound on the
    candidates, and gets None where the scan fails.
    """
    n = _zx_degree(f)
    if n == 1:
        return [list(f)]
    if n == 2:
        return _quadratic_factors(f)
    if n == 3:
        return _cubic_factors(f)
    found = _split_mod(f, limits, splits, candidates)
    if found is None:
        return None
    p, modular = found
    if len(modular) == 1:
        return [list(f)]
    lc = abs(f[-1])
    bound = 2 * mignotte_factor_height(f, n - 1) * lc + 1
    l = 1
    while p ** l < bound:
        l += 1
    pl = p ** l
    roots = _root_bound(f)
    threshold = (2 * lc * (n - 1) * roots) << TRACE_MARGIN_BITS
    levels = _lift_levels(p, f, modular, pl, limits)
    for m, lifted in levels:
        if m >= threshold:
            if m < pl and not _trace_test(lifted, m, lc, roots, limits):
                return [list(f)]
            break
    for m, lifted in levels:  # resume the lift up to p^l
        pass

    result = []
    current = list(f)
    active = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(active):
        found = None
        for subset in itertools.combinations(active, size):
            limits.check_deadline()
            candidate = [current[-1]]
            for i in subset:
                candidate = _mod_mul(candidate, lifted[i], pl)
            # A true factor times the lead lies within the bound < pl/2, so
            # the symmetric representative in (-pl/2, pl/2] recovers it.
            candidate = _zx_primitive([c - pl if 2 * c > pl else c for c in candidate])
            quotient = _zx_div_exact(current, candidate)
            if quotient is not None:
                found = (subset, candidate, quotient)
                break
        if found is None:
            size += 1
            continue
        subset, candidate, quotient = found
        result.append(candidate)
        current = _zx_primitive(quotient)
        active = [i for i in active if i not in subset]
    if _zx_degree(current) >= 1:
        result.append(current)
    return result


# -- public operations ---------------------------------------------------------


def _integer_row(p: Polynomial):
    """(var, unit, row) with p = unit * row(x): the one reader of a univariate.

    ``p`` is nonzero and uses at most the variable x, at index ``var`` of
    its context (0 for a constant).  ``row`` is p's primitive integer row,
    dense and constant term first, with a positive lead, and ``unit`` the
    ``Fraction`` that makes it p.  ValueError when p uses two variables or
    more.
    """
    used = sorted({i for exp in p.terms for i, e in enumerate(exp) if e})
    if len(used) > 1:
        names = tuple(p.context.names[i] for i in used)
        raise ValueError(f"polynomial is not univariate: uses {names}")
    var = used[0] if used else 0
    unit, ints = integer_primitive(p.terms)
    row = [0] * (1 + max(exp[var] for exp in ints))
    for exp, c in ints.items():
        row[exp[var]] = c
    if row[-1] < 0:
        return var, -unit, [-c for c in row]
    return var, unit, row


def _from_row(context, var, row, den=1) -> Polynomial:
    """The polynomial row(x) / den: the one builder of a univariate.

    ``row`` is an integer row, constant term first, in the variable at
    index ``var`` of ``context``.
    """
    before, after = (0,) * var, (0,) * (len(context) - var - 1)
    return Polynomial(context, {(*before, k, *after): Fraction(c, den)
                                for k, c in enumerate(row) if c})


def factor_primitive(f, limits, splits) -> list[tuple[list[int], int]]:
    """The irreducible factors over Q of a primitive integer row with a positive lead.

    ``f`` is a dense ascending coefficient list of degree 1 or more.
    Returns [(factor, multiplicity)] with primitive positive-lead integer
    rows, sorted by degree and then coefficients, whose weighted product is
    f.  A degree 4 and up f is proved squarefree at the prime its modular
    split is taken at, and Yun's decomposition runs only where the first
    deg f primes of that scan fail (module docstring).  ``splits``, a dict
    or None, memoizes per (p, residues) the modular split, or None where
    the residues are not squarefree; the caller owns it.  The deadline of
    ``limits`` is checked at every prime the scan tries, every step of the
    modular split, every lifted factor at every level of the Hensel lift,
    every subset size of the trace test and every recombination subset.
    The quadratic and cubic rules check none: one takes a square root, the
    other makes O(log height) evaluations of the cubic.
    """
    n = _zx_degree(f)
    found = _zassenhaus(f, limits, splits, n) if n >= 4 else None
    if found is not None:
        factors = [(irreducible, 1) for irreducible in found]
    else:  # a cubic or below, or no squarefree reduction among the first n primes
        factors = [(irreducible, multiplicity)
                   for part, multiplicity in _yun_squarefree(f)
                   for irreducible in _zassenhaus(part, limits, splits)]
    factors.sort(key=lambda item: (len(item[0]), item[0]))
    return factors


def factor_univariate(p: Polynomial, limits=DEFAULT_LIMITS, splits=None
                      ) -> tuple[Fraction, list[tuple[Polynomial, int]]]:
    """Factor a univariate rational polynomial into irreducibles.

    Returns (unit, [(factor, multiplicity)]) with primitive positive-lead
    integer factors; unit * prod(factor^multiplicity) reconstructs the
    input exactly.  The input's row from ``_integer_row`` goes to
    ``factor_primitive`` with ``limits`` and ``splits``.  ValueError where
    the input is zero or uses two variables or more; a degree at or above
    the term budget raises ``BudgetExceededError`` before the dense
    coefficient list is built.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.total_degree() >= limits.max_term_count:
        raise BudgetExceededError("degree exceeds term budget")
    var, unit, row = _integer_row(p)
    if len(row) == 1:
        return unit, []
    return unit, [(_from_row(p.context, var, f), m)
                  for f, m in factor_primitive(row, limits, splits)]
