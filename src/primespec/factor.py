"""Exact factorization of univariate polynomials over the rationals.

Pipeline: strip the rational content, split into squarefree parts with
Yun's algorithm (its gcds are primitive remainder sequences over Z), and
factor each part.  A quadratic a*z^2 + b*z + c splits exactly when its
discriminant d = b^2 - 4ac is a square, into the primitive parts of
2a*z + b -+ sqrt(d).  Higher degrees are factored modulo a good odd prime
(Berlekamp); the modular factors are lifted with quadratic multifactor
Hensel steps to p^l, the least power of p above twice the
Landau-Mignotte coefficient bound (the last step stops at p^l rather
than squaring past it), and recombined by exhaustive subset search up to
half the modular factor count.

Dense integer coefficient lists (ascending, index = exponent) are used
throughout, and ``Fraction``s appear only where a ``Polynomial`` is read
or built.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import PrimespecError
from .groebner import DEFAULT_LIMITS
from .poly import Polynomial, integer_primitive

# -- dense integer polynomials (zx): [a0, a1, ...], stripped ----------------


def _zx_strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _zx_degree(f):
    return len(f) - 1


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

def _zx_content(f):
    c = 0
    for a in f:
        c = math.gcd(c, abs(a))
    return c


def _zx_primitive(f):
    """Primitive part with positive leading coefficient."""
    c = _zx_content(f)
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


def _trunc_symmetric(f, m):
    """Reduce coefficients into the symmetric range (-m/2, m/2]."""
    half = m // 2
    out = []
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _zx_strip(out)


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


def _yun_squarefree(f):
    """Squarefree decomposition of a primitive integer polynomial.

    Returns [(part, multiplicity)] with pairwise-coprime primitive
    squarefree parts whose weighted product is f.
    """
    if len(f) == 3 and f[1] * f[1] != 4 * f[0] * f[2]:
        return [(f, 1)]  # a nonzero discriminant: no repeated root
    d = _zx_gcd(f, _zx_derivative(f))
    if len(d) == 1:
        return [(f, 1)]
    v = _zx_div_exact(f, d)
    w = _zx_div_exact(_zx_derivative(f), d)
    out = []
    i = 1
    while len(v) > 1:
        z = _zx_strip([wc - vc for wc, vc in itertools.zip_longest(w, _zx_derivative(v), fillvalue=0)])
        h = _zx_gcd(v, z)
        if len(h) > 1:
            out.append((h, i))
        v = _zx_div_exact(v, h)
        w = _zx_div_exact(z, h)
        i += 1
    return out


# -- arithmetic modulo a prime (gf): lists of ints in [0, p) -----------------


def _gf_from_zx(f, p):
    return _zx_strip([c % p for c in f])


def _gf_monic(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gf_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _zx_strip(out)


def _gf_divmod(f, g, p):
    rem = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        c = rem[-1] * inv % p
        k = len(rem) - 1 - dg
        q[k] = c
        for i, b in enumerate(g):
            rem[k + i] = (rem[k + i] - c * b) % p
        _zx_strip(rem)
    return _zx_strip(q), rem


def _gf_gcd(f, g, p):
    while g:
        f, g = g, _gf_divmod(f, g, p)[1]
    return _gf_monic(f, p) if f else []


def _gf_gcdex(f, g, p):
    """(s, t, gcd) with s*f + t*g = gcd, gcd monic."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zx_strip([(a - b) % p for a, b in itertools.zip_longest(s0, _gf_mul(q, s1, p), fillvalue=0)])
        t0, t1 = t1, _zx_strip([(a - b) % p for a, b in itertools.zip_longest(t0, _gf_mul(q, t1, p), fillvalue=0)])
    inv = pow(r0[-1], -1, p)
    return ([c * inv % p for c in s0],
            [c * inv % p for c in t0],
            [c * inv % p for c in r0])


def _gf_pow_mod(base, n, mod, p):
    result = [1]
    base = _gf_divmod(base, mod, p)[1]
    while n:
        if n & 1:
            result = _gf_divmod(_gf_mul(result, base, p), mod, p)[1]
        n >>= 1
        if n:
            base = _gf_divmod(_gf_mul(base, base, p), mod, p)[1]
    return result


def _gf_nullspace(matrix, p):
    """Basis of the right nullspace of a square matrix over GF(p)."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    pivots = {}
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [c * inv % p for c in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    basis = []
    free_cols = [c for c in range(n) if c not in pivots]
    for free in free_cols:
        vec = [0] * n
        vec[free] = 1
        for col, row in pivots.items():
            vec[col] = (-rows[row][free]) % p
        basis.append(vec)
    return basis


def _berlekamp(f, p):
    """Monic irreducible factors of a monic squarefree f over GF(p)."""
    n = len(f) - 1
    if n == 1:
        return [list(f)]
    # Frobenius matrix: row i holds x^(p*i) mod f.
    xp = _gf_pow_mod([0, 1], p, f, p)
    rows = [[1] + [0] * (n - 1)]
    current = [1]
    for _ in range(1, n):
        current = _gf_divmod(_gf_mul(current, xp, p), f, p)[1]
        rows.append(list(current) + [0] * (n - len(current)))
    # Null vectors v of (Q - I)^T satisfy v(x)^p = v(x) mod f.
    mat = [[(rows[j][i] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    null = _gf_nullspace(mat, p)
    k = len(null)
    if k == 1:
        return [list(f)]
    factors = [list(f)]
    for vec in null:
        v = _zx_strip(list(vec))
        if len(v) <= 1:
            continue  # the constant vector splits nothing
        next_factors = []
        for u in factors:
            if len(u) - 1 == 1:
                next_factors.append(u)
                continue
            pieces = []
            rest = u
            for c in range(p):
                shifted = _zx_strip([(v[0] - c) % p] + v[1:]) if v else []
                g = _gf_gcd(rest, shifted, p)
                if 0 < len(g) - 1 < len(rest) - 1:
                    pieces.append(g)
                    rest = _gf_divmod(rest, g, p)[0]
                    if len(rest) - 1 == 0:
                        break
            if len(rest) - 1 >= 1:
                pieces.append(_gf_monic(rest, p))
            next_factors.extend(pieces if pieces else [u])
        factors = next_factors
        if len(factors) == k:
            break
    return factors


# -- Hensel lifting -----------------------------------------------------------


def _zx_mul_mod(f, g, m):
    return _trunc_symmetric(_zx_mul(f, g), m)


def _zx_divmod_monic_mod(f, g, m):
    """divmod by a monic g with coefficients reduced mod m."""
    rem = list(f)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        c = rem[-1]
        k = len(rem) - 1 - dg
        q[k] = c
        for i, b in enumerate(g):
            rem[k + i] -= c * b
        _zx_strip(rem)
    return _trunc_symmetric(q, m), _trunc_symmetric(rem, m)


def _hensel_step(M, f, g, h, s, t):
    """Lift f = g*h (mod m) to mod M, for s*g + t*h = 1 (mod m) and M | m^2.

    h stays monic and keeps its degree.
    """
    e = _trunc_symmetric([a - b for a, b in itertools.zip_longest(f, _zx_mul(g, h), fillvalue=0)], M)
    q, r = _zx_divmod_monic_mod(_zx_mul(s, e), h, M)
    G = _trunc_symmetric([a + b for a, b in itertools.zip_longest(
        g, _zx_strip([x + y for x, y in itertools.zip_longest(_zx_mul(t, e), _zx_mul(q, g), fillvalue=0)]),
        fillvalue=0)], M)
    H = _trunc_symmetric([a + b for a, b in itertools.zip_longest(h, r, fillvalue=0)], M)
    return G, H


def _bezout_step(M, G, H, s, t):
    """Lift s*G + t*H = 1 from mod m to mod M, for G, H lifted to mod M | m^2.

    Degree bounds deg(s) < deg(H), deg(t) < deg(G) are preserved.
    """
    b = _trunc_symmetric([a - (1 if i == 0 else 0) for i, a in enumerate(
        _zx_strip([x + y for x, y in itertools.zip_longest(_zx_mul(s, G), _zx_mul(t, H), fillvalue=0)]))] or [-1], M)
    c, d = _zx_divmod_monic_mod(_zx_mul(s, b), H, M)
    S = _trunc_symmetric([x - y for x, y in itertools.zip_longest(s, d, fillvalue=0)], M)
    T = _trunc_symmetric([x - y for x, y in itertools.zip_longest(
        t, _zx_strip([u + v for u, v in itertools.zip_longest(_zx_mul(t, b), _zx_mul(c, G), fillvalue=0)]),
        fillvalue=0)], M)
    return S, T


def _hensel_lift(p, f, modular_factors, l, limits):
    """Lift monic mod-p factors of f/lc(f) to monic factors mod p^l.

    The returned integer polynomials are monic modulo p^l and their
    product times lc(f) is congruent to f mod p^l.
    """
    r = len(modular_factors)
    lc = f[-1]
    pl = p ** l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_trunc_symmetric([c * inv for c in f], pl)]
    k = r // 2
    g = _gf_from_zx([lc], p)
    for fac in modular_factors[:k]:
        g = _gf_mul(g, fac, p)
    h = modular_factors[k]
    for fac in modular_factors[k + 1:]:
        h = _gf_mul(h, fac, p)
    s, t, one = _gf_gcdex(g, h, p)
    if one != [1]:
        raise PrimespecError("mod-p factors are not coprime")
    g = _trunc_symmetric(g, p)
    h = _trunc_symmetric(h, p)
    s = _trunc_symmetric(s, p)
    t = _trunc_symmetric(t, p)
    m = p
    while m < pl:
        limits.check_deadline()
        m = min(m * m, pl)
        g, h = _hensel_step(m, f, g, h, s, t)
        if m < pl:
            s, t = _bezout_step(m, g, h, s, t)  # the last step needs no s, t
    return (_hensel_lift(p, _trunc_symmetric(g, pl), modular_factors[:k], l, limits)
            + _hensel_lift(p, _trunc_symmetric(h, pl), modular_factors[k:], l, limits))


# -- Zassenhaus ---------------------------------------------------------------


def _choose_prime(f):
    """Smallest odd prime keeping f squarefree with invertible lead."""
    df = _zx_derivative(f)
    candidate = 3
    while True:
        if _is_prime_int(candidate) and f[-1] % candidate:
            fb = _gf_from_zx(f, candidate)
            db = _gf_from_zx(df, candidate)
            if db and _gf_gcd(fb, db, candidate) == [1]:
                return candidate
        candidate += 2


def _is_prime_int(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mignotte_factor_height(coeffs, factor_degree) -> int:
    """Coefficient bound for any degree-bounded divisor of an integer polynomial."""
    norm_sq = sum(c * c for c in coeffs)
    return (1 << factor_degree) * (math.isqrt(norm_sq) + 1)


def _zassenhaus(f, limits):
    """Irreducible factors of a primitive squarefree integer polynomial."""
    n = _zx_degree(f)
    if n == 1:
        return [list(f)]
    if n == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        root = math.isqrt(disc) if disc > 0 else -1
        if root * root != disc:
            return [list(f)]
        return [_zx_primitive([b - root, 2 * a]), _zx_primitive([b + root, 2 * a])]
    p = _choose_prime(f)
    modular = _berlekamp(_gf_monic(_gf_from_zx(f, p), p), p)
    if len(modular) == 1:
        return [list(f)]
    modular.sort()
    bound = 2 * mignotte_factor_height(f, n - 1) * abs(f[-1]) + 1
    l = 1
    while p ** l < bound:
        l += 1
    lifted = _hensel_lift(p, f, modular, l, limits)
    pl = p ** l

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
                candidate = _zx_mul_mod(candidate, lifted[i], pl)
            candidate = _zx_primitive(candidate)
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


def _to_dense(p: Polynomial):
    """(variable index, ascending Fraction coefficients) of a univariate."""
    used = p.variables_used()
    if len(used) > 1:
        raise ValueError(f"polynomial is not univariate: uses {used}")
    ctx = p.context
    var = ctx.index[used[0]] if used else 0
    coeffs = [Fraction(0)] * (p.total_degree() + 1 if p.terms else 1)
    for exp, coeff in p.terms.items():
        coeffs[exp[var]] = coeff
    return var, coeffs


def _from_dense(context, var, coeffs) -> Polynomial:
    width = len(context)
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            exp = [0] * width
            exp[var] = i
            terms[tuple(exp)] = Fraction(c)
    return Polynomial(context, terms)


def factor_univariate(p: Polynomial, limits=DEFAULT_LIMITS
                      ) -> tuple[Fraction, list[tuple[Polynomial, int]]]:
    """Factor a univariate rational polynomial into irreducibles.

    Returns (unit, [(factor, multiplicity)]) with primitive positive-lead
    integer factors; unit * prod(factor^multiplicity) reconstructs the
    input exactly.  Degree-zero input yields (value, []).  The deadline of
    ``limits`` is checked at every Hensel step and recombination subset.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    var, coeffs = _to_dense(p)
    if len(coeffs) == 1:
        return coeffs[0], []
    unit, ints = integer_primitive(dict(enumerate(coeffs)))
    primitive = list(ints.values())
    if primitive[-1] < 0:
        unit, primitive = -unit, [-c for c in primitive]

    factors = []
    for part, multiplicity in _yun_squarefree(primitive):
        for irreducible in _zassenhaus(part, limits):
            factors.append((irreducible, multiplicity))
    factors.sort(key=lambda item: (len(item[0]), item[0]))
    return unit, [(_from_dense(p.context, var, f), m) for f, m in factors]
