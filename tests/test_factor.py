"""Univariate factorization over Q and the brute-force divisor oracle."""

import itertools
import math
import time
from fractions import Fraction

import pytest

from primespec import (BudgetExceededError, GBLimits, Polynomial, PrimespecError, context,
                       factor_univariate, parse_polynomial)
from primespec import factor
from primespec.factor import (_lift_levels, _mod, _mod_divmod, _mod_gcd, _mod_monic,
                              _mod_mul, _mod_pow, _modular_factors, _quadratic_factors,
                              _split_mod, _yun_squarefree, _zassenhaus, _zx_add,
                              _zx_derivative, _zx_div_exact, _zx_gcd, _zx_mul, _zx_primitive,
                              _zx_strip, mignotte_factor_height)
from primespec.groebner import DEFAULT_LIMITS
from primespec.poly import integer_primitive

from conftest import seeded
from factor_oracle import brute_force_factor_oracle, is_irreducible_univariate


@pytest.fixture
def y():
    return context(("Y",))


def reassemble(ctx, unit, factors):
    product = Polynomial.constant(ctx, unit)
    for factor, multiplicity in factors:
        product = product * factor ** multiplicity
    return product


def _scan_prime(f):
    """The prime that the scan of ``_split_mod`` fixes for a squarefree f."""
    return _split_mod(f, DEFAULT_LIMITS, None)[0]


def test_difference_of_squares(y):
    unit, factors = factor_univariate(parse_polynomial("Y^2 - 4", y))
    assert unit == 1
    assert [(str(f), m) for f, m in factors] == [("Y - 2", 1), ("Y + 2", 1)]


def test_sqrt_two_irreducible(y):
    unit, factors = factor_univariate(parse_polynomial("Y^2 - 2", y))
    assert unit == 1 and len(factors) == 1 and factors[0][1] == 1


def test_cyclotomic_octic_irreducible(y):
    # no factor of degree <= 2 within the Mignotte height exists
    p = parse_polynomial("Y^4 + 1", y)
    height = mignotte_factor_height([1, 0, 0, 0, 1], 2)
    assert brute_force_factor_oracle(p, 2, height) is None
    assert is_irreducible_univariate(p)


def test_degree_zero_returns_unit_only(y):
    unit, factors = factor_univariate(Polynomial.constant(y, Fraction(-3, 4)))
    assert unit == Fraction(-3, 4) and factors == []


def test_zero_rejected(y):
    with pytest.raises(ValueError):
        factor_univariate(Polynomial.zero(y))


def test_rational_content_extracted(y):
    unit, factors = factor_univariate(parse_polynomial("1/2 Y^2 - 1", y))
    assert unit == Fraction(1, 2)
    assert [str(f) for f, _ in factors] == ["Y^2 - 2"]


def test_multiplicities(y):
    p = parse_polynomial("(Y - 1)^3 (Y + 2)^2 (Y^2 + 1)", y)
    unit, factors = factor_univariate(p)
    assert reassemble(y, unit, factors) == p
    mults = {str(f): m for f, m in factors}
    assert mults == {"Y - 1": 3, "Y + 2": 2, "Y^2 + 1": 1}


def test_exact_reconstruction_on_random_inputs(y):
    rng = seeded(31)
    for _ in range(200):
        degree = rng.randint(1, 8)
        coeffs = [rng.randint(-50, 50) for _ in range(degree)] + [rng.randint(1, 50)]
        p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})
        unit, factors = factor_univariate(p)
        assert reassemble(y, unit, factors) == p
        for factor, _ in factors:
            content, primitive = integer_primitive(factor.terms)
            assert content == 1 and primitive == factor.terms
            assert factor.terms[max(factor.terms)] > 0


def _fraction_gcd(f, g):
    """Primitive positive-lc gcd by Euclid over Q: the oracle for _zx_gcd."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while b:
        r = list(a)
        db = len(b) - 1
        lc = b[-1]
        while len(r) - 1 >= db and r:
            c = r[-1] / lc
            k = len(r) - 1 - db
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
            r[-1] = 0
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    if not a:
        return []
    den = math.lcm(*(c.denominator for c in a))
    return _zx_primitive([int(c * den) for c in a])


def _random_zx(rng, degree, bits):
    """Dense integer polynomial of exact degree with coefficients of up to ``bits`` bits."""
    coeffs = [rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(degree)]
    return coeffs + [(rng.getrandbits(bits) | 1) * rng.choice((-1, 1))]


def test_zx_gcd_matches_fraction_euclid():
    # Coefficients of 60-90 bits, as in the degree-12 minimal polynomials
    # of the points workload; leads are odd and of either sign, so never monic.
    rng = seeded(47)
    for _ in range(40):
        shared = _random_zx(rng, rng.randint(1, 4), 30)
        u = _random_zx(rng, rng.randint(0, 6), rng.randint(30, 60))
        v = _random_zx(rng, rng.randint(0, 6), rng.randint(30, 60))
        f, g = _zx_mul(shared, u), _zx_mul(shared, v)
        expected = _fraction_gcd(f, g)
        assert _zx_gcd(f, g) == expected
        assert _zx_div_exact(expected, _zx_primitive(shared)) is not None
        coprime_f = _random_zx(rng, rng.randint(1, 12), rng.randint(60, 90))
        coprime_g = _random_zx(rng, rng.randint(1, 12), rng.randint(60, 90))
        assert _zx_gcd(coprime_f, coprime_g) == _fraction_gcd(coprime_f, coprime_g) == [1]
    assert _zx_gcd([], [4, -6]) == _fraction_gcd([], [4, -6]) == [-2, 3]
    assert _zx_gcd([], []) == []


def test_yun_splits_large_non_monic_powers(y):
    rng = seeded(53)
    for _ in range(5):
        parts = [_zx_primitive(_random_zx(rng, rng.randint(1, 3), 40)) for _ in range(3)]
        for i, part in enumerate(parts):
            assert _fraction_gcd(part, [k * c for k, c in enumerate(part)][1:]) == [1]
            for other in parts[i + 1:]:
                assert _fraction_gcd(part, other) == [1]
        g1, g2, g3 = parts
        f = _zx_mul(_zx_mul(g1, _zx_mul(g2, g2)), _zx_mul(g3, _zx_mul(g3, g3)))
        assert _yun_squarefree(_zx_primitive(f)) == [(g1, 1), (g2, 2), (g3, 3)]

        p = Polynomial(y, {(i,): Fraction(-c, 7) for i, c in enumerate(f) if c})
        unit, factors = factor_univariate(p)
        assert reassemble(y, unit, factors) == p
        for factor, multiplicity in factors:
            dense = [0] * (factor.total_degree() + 1)
            for (e,), c in factor.terms.items():
                dense[e] = int(c)
            assert _zx_div_exact(parts[multiplicity - 1], dense) is not None


def _dense(factor):
    coeffs = [0] * (factor.total_degree() + 1)
    for (e,), c in factor.terms.items():
        coeffs[e] = int(c)
    return coeffs


def test_quadratic_products_split_into_their_primitive_parts(y):
    rng = seeded(61)
    bound = 1 << 40
    for _ in range(200):
        linear = []
        for _ in range(2):
            a = rng.choice((-1, 1)) * rng.randint(1, bound)
            linear.append([rng.randint(-bound, bound), a])
        product = _zx_mul(*linear)
        p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(product) if c})
        unit, factors = factor_univariate(p)
        expected = sorted(_zx_primitive(f) for f in linear)
        assert expected[0] != expected[1]
        assert sorted(_dense(f) for f, _ in factors) == expected
        assert [m for _, m in factors] == [1, 1]
        assert reassemble(y, unit, factors) == p
        assert sorted(_zassenhaus(_zx_primitive(product), DEFAULT_LIMITS)) == expected


def test_irreducible_quadratics_stay_one_factor(y):
    rng = seeded(62)
    bound = 1 << 40
    seen = {"negative": 0, "non-square": 0}
    while min(seen.values()) < 50:
        c, b, a = (rng.randint(-bound, bound) for _ in range(3))
        disc = b * b - 4 * a * c
        if a <= 0 or disc == 0 or (disc > 0 and math.isqrt(disc) ** 2 == disc):
            continue
        seen["negative" if disc < 0 else "non-square"] += 1
        f = _zx_primitive([c, b, a])
        p = Polynomial(y, {(i,): Fraction(v) for i, v in enumerate(f) if v})
        _, factors = factor_univariate(p)
        assert [(_dense(g), m) for g, m in factors] == [(f, 1)]
        assert _zassenhaus(f, DEFAULT_LIMITS) == [f]


def test_yun_decides_quadratics_by_their_discriminant(y, monkeypatch):
    # A nonzero discriminant already proves a quadratic or a cubic squarefree.
    def no_gcd(f, g):
        raise AssertionError(f"gcd of {f} and {g}")

    monkeypatch.setattr(factor, "_zx_gcd", no_gcd)
    rng = seeded(64)
    bound = 1 << 40
    for degree in (2, 3):
        checked = 0
        while checked < 50:
            coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
            if coeffs[-1] == 0 or _fraction_gcd(coeffs, _zx_derivative(coeffs)) != [1]:
                continue
            f = _zx_primitive(coeffs)
            assert _yun_squarefree(f) == [(f, 1)]
            p = Polynomial(y, {(i,): Fraction(v) for i, v in enumerate(coeffs) if v})
            unit, factors = factor_univariate(p)
            assert reassemble(y, unit, factors) == p
            checked += 1

    # Discriminant 0: (2z + 1)^2 and (z - 1)^2 (z + 2) still run the gcd.
    for text, expected in (("4*Y^2 + 4*Y + 1", [("2*Y + 1", 2)]),
                           ("(Y - 1)^2 (Y + 2)", [("Y - 1", 2), ("Y + 2", 1)])):
        calls = []
        monkeypatch.setattr(factor, "_zx_gcd", lambda f, g: calls.append(f) or _zx_gcd(f, g))
        _, factors = factor_univariate(parse_polynomial(text, y))
        assert [(str(f), m) for f, m in factors] == expected
        assert calls


def test_quadratics_agree_with_oracle(y):
    # Every quadratic of height <= 4: a linear factor of a primitive quadratic
    # has height at most that of the quadratic.
    height = 4
    for a in (v for v in range(-height, height + 1) if v):
        for b, c in itertools.product(range(-height, height + 1), repeat=2):
            p = Polynomial(y, {(i,): Fraction(v) for i, v in enumerate((c, b, a)) if v})
            _, factors = factor_univariate(p)
            reducible = sum(m for _, m in factors) == 2
            found = brute_force_factor_oracle(p, 1, height)
            assert (found is not None) == reducible, str(p)
            if found is not None:
                assert found in [f for f, _ in factors], str(p)


def _cubic_inputs(ctx, height):
    """Every cubic in ctx's one variable whose coefficients have height <= height."""
    nonzero = [v for v in range(-height, height + 1) if v]
    for a in nonzero:
        for rest in itertools.product(range(-height, height + 1), repeat=3):
            coeffs = list(rest) + [a]
            yield Polynomial(ctx, {(i,): Fraction(v) for i, v in enumerate(coeffs) if v})


def test_cubics_agree_with_oracle(y):
    # Every cubic of height <= 3: a reducible cubic has a linear factor, whose
    # height is at most that of the primitive cubic, so the search is complete.
    height = 3
    for p in _cubic_inputs(y, height):
        unit, factors = factor_univariate(p)
        assert reassemble(y, unit, factors) == p
        reducible = sum(m for _, m in factors) > 1
        found = brute_force_factor_oracle(p, 1, height)
        assert (found is not None) == reducible, str(p)
        if found is not None:
            assert found in [f for f, _ in factors], str(p)


def _cubic_products(rng, count):
    """Seeded (product, primitive factors) pairs with coefficients up to 2^40.

    Half are a linear times an irreducible quadratic, half three distinct
    linears; every lead takes either sign.
    """
    bound = 1 << 40

    def draw(degree):
        lead = rng.choice((-1, 1)) * rng.randint(1, bound)
        return [rng.randint(-bound, bound) for _ in range(degree)] + [lead]

    out = []
    while len(out) < count:
        if len(out) % 2:
            c, b, a = quadratic = draw(2)
            disc = b * b - 4 * a * c
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                continue
            parts = [draw(1), quadratic]
        else:
            parts = [draw(1) for _ in range(3)]
        expected = sorted(_zx_primitive(f) for f in parts)
        if len(set(map(tuple, expected))) < len(expected):
            continue
        product = [1]
        for f in parts:
            product = _zx_mul(product, f)
        out.append((product, expected))
    return out


def test_cubic_products_split_into_their_primitive_parts(y):
    for product, expected in _cubic_products(seeded(65), 200):
        p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(product) if c})
        unit, factors = factor_univariate(p)
        assert sorted(_dense(f) for f, _ in factors) == expected
        assert [m for _, m in factors] == [1] * len(expected)
        assert reassemble(y, unit, factors) == p
        assert sorted(_zassenhaus(_zx_primitive(product), DEFAULT_LIMITS)) == expected


@pytest.mark.parametrize("text, expected", [
    ("Y^3 - 3*Y", ["Y", "Y^2 - 3"]),  # a zero root; integer critical points +-1
    ("Y^3 - 3*Y^2 + 2*Y", ["Y", "Y - 2", "Y - 1"]),  # critical points 1 +- 1/sqrt 3
    ("Y^3 - 3*Y + 1", ["Y^3 - 3*Y + 1"]),  # three real roots, none rational
    ("Y^3 - 2", ["Y^3 - 2"]),  # increasing: one piece
    ("-6*Y^3 + 11*Y^2 - 6*Y + 1", ["2*Y - 1", "3*Y - 1", "Y - 1"]),
])
def test_cubic_rule_edge_cases(y, text, expected):
    p = parse_polynomial(text, y)
    unit, factors = factor_univariate(p)
    assert sorted(str(f) for f, _ in factors) == sorted(expected)
    assert all(m == 1 for _, m in factors)
    assert reassemble(y, unit, factors) == p


def test_cubics_never_reach_the_modular_path(y, monkeypatch):
    def modular(*args):
        raise AssertionError(f"modular path on {args[0]}")

    monkeypatch.setattr(factor, "_split_mod", modular)
    monkeypatch.setattr(factor, "_modular_factors", modular)
    for p in _cubic_inputs(y, 2):
        factor_univariate(p)
    for product, expected in _cubic_products(seeded(66), 50):
        assert sorted(_zassenhaus(_zx_primitive(product), DEFAULT_LIMITS)) == expected
    with pytest.raises(AssertionError, match="modular path"):
        factor_univariate(parse_polynomial("Y^4 + 1", y))


def test_prime_scan_skips_bad_primes():
    # 15Y^3 + 62Y^2 + 77Y + 77 is squarefree over Q, but 3 and 5 divide its
    # lead, and modulo 7 and 11 it is Y^2 (Y + 6) and Y^2 (4Y + 7): the first
    # good prime is 13, and 9 is skipped as composite.  Only 7 and 11 count
    # as candidates, and the memo holds None for them.
    f = [77, 77, 62, 15]
    assert _zx_gcd(f, [77, 124, 45]) == [1]
    assert _mod(f, 7) == [0, 0, 6, 1] and _mod(f, 11) == [0, 0, 7, 4]
    assert _scan_prime(f) == 13
    splits = {}
    assert _split_mod(f, DEFAULT_LIMITS, splits, 2) is None
    assert [(p, split) for (p, _), split in splits.items()] == [(7, None), (11, None)]
    assert _split_mod(f, DEFAULT_LIMITS, splits, 3)[0] == 13


def _yun_first(f):
    """The factors of a primitive f the way ``factor_univariate`` took them before
    the prime scan: Yun's decomposition first, then each part factored."""
    factors = [(g, m) for part, m in _yun_squarefree(f) for g in _zassenhaus(part, DEFAULT_LIMITS)]
    return sorted(factors, key=lambda item: (len(item[0]), item[0]))


def _scan_corpus():
    """Seeded primitive inputs of degrees 4-16, with a flag for a repeated factor.

    Even entries are squarefree products of one to three random factors;
    odd ones are g^m * h for m = 2 or 3.
    """
    rng = seeded(72)
    corpus = []
    while len(corpus) < 60:
        degree = rng.randint(4, 16)
        if len(corpus) % 2:
            m = rng.randint(2, 3)
            d = rng.randint(1, (degree - 1) // m)
            g = _random_zx(rng, d, rng.randint(1, 4))
            parts = [g] * m + [_random_zx(rng, degree - m * d, rng.randint(1, 6))]
        else:
            cuts = sorted(rng.sample(range(1, degree), rng.randint(0, 2)))
            parts = [_random_zx(rng, b - a, rng.randint(1, 6))
                     for a, b in zip([0] + cuts, cuts + [degree])]
        f = _zx_primitive(_product(parts))
        if len(corpus) % 2 or len(_zx_gcd(f, _zx_derivative(f))) == 1:
            corpus.append((f, len(corpus) % 2 == 1))
    return corpus


def test_prime_scan_matches_yun_first_with_and_without_memos(y, monkeypatch):
    corpus = _scan_corpus()
    expected = [_yun_first(f) for f, _ in corpus]
    assert sum(max(m for _, m in e) > 1 for e in expected) == 30
    yun = []
    squarefree = _yun_squarefree

    def counted(f):
        yun.append(f)
        return squarefree(f)

    monkeypatch.setattr(factor, "_yun_squarefree", counted)
    shared = {}
    for memo in ("none", "fresh", "shared"):
        del yun[:]
        for (f, repeated), reference in zip(corpus, expected):
            p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(f) if c})
            splits = {"none": None, "fresh": {}, "shared": shared}[memo]
            unit, factors = factor_univariate(p, DEFAULT_LIMITS, splits)
            assert (unit, [(_dense(g), m) for g, m in factors]) == (1, reference), (memo, f)
            assert reassemble(y, unit, factors) == p
        # Yun runs on exactly the inputs with a repeated factor
        assert yun == [f for f, repeated in corpus if repeated], memo
    assert None in shared.values()


def test_prime_scan_falls_back_to_yun(y, monkeypatch):
    # Y (Y - 1)(Y - 1155)(Y - 1156) is squarefree over Q, but 1155 = 3*5*7*11
    # merges Y with Y - 1155 and Y - 1 with Y - 1156 modulo 3, 5, 7 and 11:
    # the first deg f = 4 candidates fail, Yun runs once and returns f
    # whole, and the scan of that part fixes p = 13.
    yun = []
    squarefree = _yun_squarefree

    def counted(f):
        yun.append(f)
        return squarefree(f)

    monkeypatch.setattr(factor, "_yun_squarefree", counted)
    p = parse_polynomial("Y*(Y-1)*(Y-1155)*(Y-1156)", y)
    expected = ["Y", "Y - 1", "Y - 1155", "Y - 1156"]
    for splits in (None, {}):
        del yun[:]
        unit, factors = factor_univariate(p, DEFAULT_LIMITS, splits)
        assert sorted(str(f) for f, _ in factors) == sorted(expected)
        assert unit == 1 and all(m == 1 for _, m in factors)
        assert len(yun) == 1
    assert [(q, split is None) for (q, _), split in splits.items()] == \
        [(3, True), (5, True), (7, True), (11, True), (13, False)]
    [(_, residues)] = [key for key, split in splits.items() if split is not None]
    assert residues == tuple(_mod(_dense(p), 13))


def _reference_nullspace(matrix, p):
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
                scale = rows[r][col]
                rows[r] = [(a - scale * b) % p for a, b in zip(rows[r], rows[rank])]
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


def _reference_berlekamp(f, p):
    """Monic irreducible factors of a monic squarefree f over GF(p) (Berlekamp).

    The oracle for ``_modular_factors``: it shares only the arithmetic
    modulo p, and finds the factors from the nullspace of Q - I.
    """
    n = len(f) - 1
    if n == 1:
        return [list(f)]
    # Frobenius matrix: row i holds x^(p*i) mod f.
    xp = _mod_pow([0, 1], p, f, p, DEFAULT_LIMITS)
    rows = [[1] + [0] * (n - 1)]
    current = [1]
    for _ in range(1, n):
        current = _mod_divmod(_zx_mul(current, xp), f, p)[1]
        rows.append(list(current) + [0] * (n - len(current)))
    # Null vectors v of (Q - I)^T satisfy v(x)^p = v(x) mod f.
    mat = [[(rows[j][i] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    null = _reference_nullspace(mat, p)
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
                g = _mod_gcd(rest, _mod([v[0] - c] + v[1:], p), p)
                if 0 < len(g) - 1 < len(rest) - 1:
                    pieces.append(g)
                    rest = _mod_divmod(rest, g, p)[0]
                    if len(rest) - 1 == 0:
                        break
            if len(rest) - 1 >= 1:
                pieces.append(_mod_monic(rest, p))
            next_factors.extend(pieces if pieces else [u])
        factors = next_factors
        if len(factors) == k:
            break
    return factors


def _squarefree_mod(f, p):
    return _mod_gcd(f, _mod(_zx_derivative(f), p), p) == [1]


def _draw_monic(rng, p, degree):
    """A random monic polynomial of the given degree, squarefree modulo p."""
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if _squarefree_mod(f, p):
            return f


def _modular_inputs():
    """Seeded pairs (f, p) with f squarefree modulo p and p not dividing its lead."""
    rng = seeded(71)
    # Y^4 + 1, Y^4 - 10Y^2 + 1, Y^6 - 1, Y^8 + 1, Y^12 + 1, Y^16 + 1, Y^12 - 1
    named = ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [-1, 0, 0, 0, 0, 0, 1], [1] + [0] * 7 + [1],
             [1] + [0] * 11 + [1], [1] + [0] * 15 + [1], [-1] + [0] * 11 + [1])
    inputs = [(f, _scan_prime(f)) for f in named]
    while len(inputs) < len(named) + 100:
        f = _zx_primitive(_random_zx(rng, rng.randint(3, 10), rng.randint(2, 20)))
        if len(_zx_gcd(f, _zx_derivative(f))) == 1:
            inputs.append((f, _scan_prime(f)))
    for p in (3, 5, 7, 101):
        inputs += [(_draw_monic(rng, p, rng.randint(1, 10)), p) for _ in range(40)]
        for _ in range(15):
            # 3 or 4 distinct irreducibles of one degree, so the equal-degree
            # split recurses on the block; a cofactor of other degrees leaves
            # more blocks or a remainder after the distinct-degree split.
            degree = rng.randint(1, 3 if p < 101 else 2)
            # GF(3) has only 3 monic irreducibles of degree 1 and of degree 2
            count = 3 if p == 3 and degree < 3 else rng.randint(3, 4)
            block = []
            while len(block) < count:
                g = _draw_monic(rng, p, degree)
                if g not in block and len(_reference_berlekamp(g, p)) == 1:
                    block.append(g)
            f = [1]
            for g in block:
                f = _mod_mul(f, g, p)
            other = _mod_mul(f, [rng.randrange(p) for _ in range(rng.randint(0, 5))] + [1], p)
            inputs.append((other if _squarefree_mod(other, p) else f, p))
    return inputs


def test_modular_factors_match_berlekamp():
    inputs = _modular_inputs()
    assert len(inputs) >= 300
    for f, p in inputs:
        monic = _mod_monic(_mod(f, p), p)
        found = _modular_factors(monic, p, DEFAULT_LIMITS)
        assert sorted(found) == sorted(_reference_berlekamp(monic, p)), (f, p)


def test_modular_powers_take_reduced_residues(monkeypatch):
    # After a distinct-degree split, x^(p^d) is reduced by the remaining
    # factor, so every power is taken of a residue of lower degree.
    calls = []

    def reduced_pow(base, n, mod, m, limits):
        calls.append(mod)
        assert len(base) < len(mod), (base, mod)
        return _mod_pow(base, n, mod, m, limits)

    monkeypatch.setattr(factor, "_mod_pow", reduced_pow)
    for f, p in _modular_inputs():
        _modular_factors(_mod_monic(_mod(f, p), p), p, DEFAULT_LIMITS)
    assert len(calls) > 1000


def test_modular_power_checks_the_deadline_once_per_squaring():
    # An equal-degree split raises a residue to (p^d - 1)/2, so one power
    # can outlast the deadline between two checks of its caller.
    class Counting:
        calls = 0

        def check_deadline(self):
            self.calls += 1

    limits = Counting()
    power = _mod_pow([0, 1], 3**40, [1, 2, 0, 1], 3, limits)
    assert power == _mod_pow([0, 1], 3**40, [1, 2, 0, 1], 3, DEFAULT_LIMITS)
    assert (3**40).bit_length() == 64 and limits.calls >= 63


def _lift_to(p, f, modular, l):
    """The last level of ``_lift_levels``: the monic factors mod p^l."""
    *_, (_, lifted) = _lift_levels(p, f, modular, p ** l, DEFAULT_LIMITS)
    return lifted


@pytest.mark.parametrize("l", [1, 2, 3, 5, 13, 54])
def test_hensel_lift_stops_at_the_requested_power(l):
    rng = seeded(63)
    lifted_any = 0
    for _ in range(12):
        f = [rng.choice((-1, 1)) * rng.randint(1, 50)]
        for degree in (2, 3, 3):
            f = _zx_mul(f, [rng.randint(-30, 30) for _ in range(degree)] + [rng.randint(1, 9)])
        f = _zx_primitive(f)
        if len(_zx_gcd(f, [i * c for i, c in enumerate(f)][1:])) > 1:
            continue
        p, modular = _split_mod(f, DEFAULT_LIMITS, None)
        pl = p ** l
        lifted = _lift_to(p, f, modular, l)
        assert len(lifted) == len(modular)
        for g, fac in zip(lifted, modular):
            assert g[-1] % pl == 1 and len(g) == len(fac)
            assert _mod(g, p) == fac
        product = [f[-1]]
        for g in lifted:
            product = _zx_mul(product, g)
        assert len(product) == len(f)
        assert all((a - b) % pl == 0 for a, b in zip(product, f))
        lifted_any += len(modular) >= 3
    assert lifted_any >= 3


def _arrangements(modular):
    """The modular factors with the first of largest degree first, in the middle and last."""
    big = max(modular, key=len)
    rest = [g for g in modular if g is not big]
    half = len(rest) // 2
    return [[big] + rest, rest[:half] + [big] + rest[half:], rest + [big]]


def _liftable(seed, count):
    """``count`` seeded squarefree (f, p, modular) with 2 to 5 modular factors."""
    rng = seeded(seed)
    found = []
    while len(found) < count:
        f = [rng.randint(1, 40)]
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(1, 4)
            f = _zx_mul(f, [rng.randint(-20, 20) for _ in range(degree)] + [rng.randint(1, 6)])
        f = _zx_primitive(f)
        if len(f) < 5 or len(_zx_gcd(f, _zx_derivative(f))) > 1:
            continue
        p, modular = _split_mod(f, DEFAULT_LIMITS, None)
        if 2 <= len(modular) <= 5:
            found.append((f, p, modular))
    return found


def test_hensel_lift_holds_at_every_level():
    # Every yielded level: monic factors that keep their degree and reduce
    # to their modular factor, whose product times lc(f) is f mod m.  The
    # largest factor, the one divided out, comes first, in the middle and last.
    shapes = set()
    for f, p, modular in _liftable(64, 40):
        for arranged in _arrangements(modular):
            before = [list(g) for g in arranged]
            degrees = sorted(len(g) for g in arranged)
            shapes.add((len(arranged), degrees[-1] == degrees[-2]))
            l = 1 + len(f) % 7 * 5
            levels = list(_lift_levels(p, f, arranged, p ** l, DEFAULT_LIMITS))
            moduli = [m for m, _ in levels]
            assert moduli[0] == p and moduli[-1] == p ** l
            assert all(m == min(last * last, p ** l) for last, m in zip(moduli, moduli[1:]))
            for m, lifted in levels:
                assert len(lifted) == len(arranged)
                for g, fac in zip(lifted, arranged):
                    assert g[-1] == 1 and len(g) == len(fac)
                    assert all(0 <= c < m for c in g)
                    assert _mod(g, p) == fac
                product = _product([[f[-1]]] + lifted)
                assert len(product) == len(f)
                assert all((a - b) % m == 0 for a, b in zip(product, f))
            assert arranged == before  # the memo's lists are not mutated
    assert {2, 3, 4, 5} <= {size for size, _ in shapes}
    assert any(tie for _, tie in shapes)


def test_hensel_lift_checks_the_deadline_once_per_factor_and_level():
    class Counting:
        calls = 0

        def check_deadline(self):
            self.calls += 1

    for f, p, modular in _liftable(65, 6):
        limits = Counting()
        seen, yielded = [], []
        for _, lifted in _lift_levels(p, f, modular, p ** 20, limits):
            seen.append(limits.calls)
            yielded.append((lifted, [list(g) for g in lifted]))
        assert seen == [len(modular) * level for level in range(len(seen))]
        assert all(lifted == kept for lifted, kept in yielded)  # no later level changes them


def test_hensel_lift_rejects_non_coprime_factors():
    # (Y + 1)^2 modulo 5 with the repeated factor passed twice: a check
    # that must hold under python -O too.
    with pytest.raises(PrimespecError, match="not coprime"):
        next(_lift_levels(5, [1, 2, 1], [[1, 1], [1, 1]], 5 ** 3, DEFAULT_LIMITS))


def test_expired_deadline_stops_factorization(y):
    # Y^4 + 1 is irreducible over Q but splits modulo every prime, so the
    # Hensel lift and the subset recombination both run.  Y^5 - Y - 1 stays
    # one factor modulo 3, so only the modular split runs.
    expired = GBLimits(deadline=time.monotonic() - 1)
    for text in ("Y^4 + 1", "Y^5 - Y - 1"):
        p = parse_polynomial(text, y)
        assert len(factor_univariate(p)[1]) == 1
        with pytest.raises(BudgetExceededError):
            factor_univariate(p, expired)


def test_oracle_finds_first_divisor(y):
    assert str(brute_force_factor_oracle(parse_polynomial("Y^2 - 4", y), 1, 4)) == "Y - 2"
    assert brute_force_factor_oracle(parse_polynomial("Y^2 - 2", y), 1, 10) is None
    assert str(brute_force_factor_oracle(parse_polynomial("Y^3 - 1", y), 2, 2)) == "Y - 1"


def test_oracle_budget(y):
    with pytest.raises(BudgetExceededError):
        brute_force_factor_oracle(parse_polynomial("Y^5 - Y - 1", y), 2, 30, max_candidates=10)


def test_oracle_rejects_non_integer_input(y):
    with pytest.raises(ValueError):
        brute_force_factor_oracle(parse_polynomial("1/2 Y^2 - 1", y), 1, 3)


def test_oracle_agreement_small_family(y):
    # light version of the exhaustive acceptance check: degree <= 3, height <= 2
    for degree in (2, 3):
        for lead in (c for c in range(-2, 3) if c):
            for rest in itertools.product(range(-2, 3), repeat=degree):
                coeffs = list(rest) + [lead]
                p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})
                _, factors = factor_univariate(p)
                reducible = not (len(factors) == 1 and factors[0][1] == 1)
                height = mignotte_factor_height(coeffs, degree // 2)
                found = brute_force_factor_oracle(p, degree // 2, height)
                assert (found is not None) == reducible, str(p)


# -- the trace test and the memo of modular splits -----------------------------


def _product(factors):
    out = [1]
    for f in factors:
        out = _zx_mul(out, f)
    return out


def _eisenstein(rng, degree):
    """(Y - q b_1) ... (Y - q b_degree) + q c for q in (2, 3, 5) and c prime to q.

    Every coefficient below the lead is a multiple of q, and the constant
    is q c mod q^2, so Eisenstein's criterion at q makes it irreducible.
    Its coefficients are large against its roots, which brings the trace
    test below p^l from degree 8 or so.
    """
    q = rng.choice((2, 3, 5))
    f = _product([[-q * rng.randint(-4, 4), 1] for _ in range(degree)])
    f[0] += q * rng.choice([c for c in range(-40, 41) if c % q])
    return f


def _trace_corpus(rng, count):
    """Seeded (f, its irreducible factors) pairs of degree 4 to 16, a third irreducible.

    The factors are distinct linears and ``_eisenstein`` polynomials, so the
    factorization is known by construction.
    """
    out = []
    while len(out) < count:
        if len(out) % 3 == 0:
            parts = [_eisenstein(rng, rng.randint(4, 16))]
        else:
            parts = []
            while len(parts) < 2 or sum(len(f) - 1 for f in parts) < 4:
                degree = rng.randint(1, 8)
                parts.append([rng.randint(-30, 30), 1] if degree == 1
                             else _eisenstein(rng, degree))
        f = _product(parts)
        if len(f) - 1 > 16 or len(_zx_gcd(f, _zx_derivative(f))) > 1:
            continue
        out.append((f, sorted(parts)))
    return out


def test_trace_test_agrees_with_the_full_lift_on_a_seeded_corpus(monkeypatch):
    corpus = _trace_corpus(seeded(25), 150)
    outcomes = []
    trace_test = factor._trace_test

    def recorded(*args):
        outcomes.append(trace_test(*args))
        return outcomes[-1]

    monkeypatch.setattr(factor, "_trace_test", recorded)
    early = [sorted(_zassenhaus(f, DEFAULT_LIMITS)) for f, _ in corpus]
    assert [factors for _, factors in corpus] == early
    assert outcomes.count(False) >= 15 and outcomes.count(True) >= 15
    monkeypatch.setattr(factor, "_trace_test", lambda *args: True)  # the full path
    assert [sorted(_zassenhaus(f, DEFAULT_LIMITS)) for f, _ in corpus] == early


def test_trace_test_agrees_with_the_oracle_on_small_quartics(y):
    # Every irreducible quartic the modular path keeps whole has no quadratic
    # or linear divisor within the Mignotte height.
    rng = seeded(26)
    checked = 0
    while checked < 12:
        coeffs = [rng.randint(-2, 2) for _ in range(4)] + [1]
        if not coeffs[0] or len(_zx_gcd(coeffs, _zx_derivative(coeffs))) > 1:
            continue
        p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})
        found = brute_force_factor_oracle(p, 2, mignotte_factor_height(coeffs, 2))
        assert (found is None) == (len(_zassenhaus(coeffs, DEFAULT_LIMITS)) == 1), coeffs
        checked += 1


@pytest.mark.parametrize("root", [7, -7])
def test_trace_test_passes_a_true_factor_at_its_bound(root):
    # f = (Y - root)(3Y^4 - 1000Y^3 + Y + 2) has lc 3 and splits in two mod 5.
    # The leaf of Y - root has the trace 3 * root: at the bound 3 * 1 * B for
    # B = 7, beyond it for B = 6.  The quartic's leaf, 3 * 1000/3, passes neither.
    f = _zx_mul([-root, 1], [2, 1, 0, -1000, 3])
    p, modular = _split_mod(f, DEFAULT_LIMITS, None)
    assert (p, len(modular)) == (5, 2)
    lifted = _lift_to(p, f, modular, 30)
    assert factor._trace_test(lifted, p ** 30, 3, 7, DEFAULT_LIMITS)
    assert not factor._trace_test(lifted, p ** 30, 3, 6, DEFAULT_LIMITS)


def _consecutive(first, last, shift):
    """(Y - first) ... (Y - last) + shift."""
    f = _product([[-i, 1] for i in range(first, last + 1)])
    f[0] += shift
    return f


def _record_steps(monkeypatch):
    """The moduli of every Newton step of a factor and of a cofactor inverse taken."""
    steps = {"newton": [], "inverse": []}
    for name, seen in steps.items():
        step = getattr(factor, f"_{name}_step")

        def recorded(M, *args, step=step, seen=seen):
            seen.append(M)
            return step(M, *args)

        monkeypatch.setattr(factor, f"_{name}_step", recorded)
    return steps


def _lift_power(f, p):
    """The l of the lift: the least power of p above twice lc * the Mignotte height."""
    bound = 2 * mignotte_factor_height(f, len(f) - 2) * f[-1] + 1
    return next(l for l in itertools.count(1) if p ** l >= bound)


def test_irreducible_product_plus_one_stops_the_lift_early(monkeypatch):
    # (Y - 1)...(Y - 12) + 1 splits in two sextics mod 3; the trace test at
    # 3^16 (below p^l = 3^28) leaves no factor, so f is irreducible there,
    # and that level's inverse step is never taken.  One sextic is lifted by
    # Newton steps, the other is divided out.
    f = _consecutive(1, 12, 1)
    assert _scan_prime(f) == 3
    assert len(_modular_factors(_mod_monic(f, 3), 3, DEFAULT_LIMITS)) == 2
    steps = _record_steps(monkeypatch)
    assert _zassenhaus(f, DEFAULT_LIMITS) == [f]
    assert _lift_power(f, 3) == 28
    assert steps["newton"] == [3 ** 2, 3 ** 4, 3 ** 8, 3 ** 16]
    assert steps["inverse"] == [3 ** 2, 3 ** 4, 3 ** 8]


def test_product_of_two_factors_passes_the_trace_test_and_resumes(monkeypatch):
    # (prod_{1..6} (Y - i) - 1)(prod_{7..12} (Y - i) - 1): four factors mod 5,
    # a subset passes the trace test at 5^16, and the same lift goes on to 5^l.
    g, h = _consecutive(1, 6, -1), _consecutive(7, 12, -1)
    f = _zx_mul(g, h)
    assert _scan_prime(f) == 5
    steps = _record_steps(monkeypatch)
    assert sorted(_zassenhaus(f, DEFAULT_LIMITS)) == sorted([g, h])
    l = _lift_power(f, 5)
    assert l > 16
    assert sorted(set(steps["newton"])) == [5 ** 2, 5 ** 4, 5 ** 8, 5 ** 16, 5 ** l]
    assert sorted(set(steps["inverse"])) == [5 ** 2, 5 ** 4, 5 ** 8, 5 ** 16]


def test_congruent_inputs_share_one_memo_entry(y):
    # f and f + 3Y^5 agree mod 3, the prime both choose
    f = _consecutive(1, 12, 1)
    g = _zx_add(f, [0, 0, 0, 0, 0, 3])
    assert _scan_prime(f) == _scan_prime(g) == 3
    splits = {}
    for h in (f, g):
        assert _zassenhaus(h, DEFAULT_LIMITS, splits) == _zassenhaus(h, DEFAULT_LIMITS)
    assert list(splits) == [(3, tuple(_mod_monic(f, 3)))]
    assert splits[3, tuple(_mod_monic(f, 3))] == sorted(
        _modular_factors(_mod_monic(f, 3), 3, DEFAULT_LIMITS))
    polys = [Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(h) if c}) for h in (f, g)]
    assert [factor_univariate(p, DEFAULT_LIMITS, splits) for p in polys] == \
        [factor_univariate(p) for p in polys]
    assert len(splits) == 1


def test_memo_hit_checks_the_deadline(y, monkeypatch):
    f = _consecutive(1, 12, 1)
    splits = {}
    _zassenhaus(f, DEFAULT_LIMITS, splits)

    def refuse(*args):
        raise AssertionError("a memo hit runs no modular split")

    monkeypatch.setattr(factor, "_modular_factors", refuse)
    assert _zassenhaus(f, DEFAULT_LIMITS, splits) == [f]
    expired = GBLimits(deadline=time.monotonic() - 1)
    with pytest.raises(BudgetExceededError):
        _zassenhaus(f, expired, splits)
    p = Polynomial(y, {(i,): Fraction(c) for i, c in enumerate(f) if c})
    with pytest.raises(BudgetExceededError):
        factor_univariate(p, expired, splits)


def test_every_prime_the_scan_tries_checks_the_deadline():
    # (Y - 1)^2 * (Y^4 + Y + 3) is squarefree modulo no prime: the scan tries
    # its 6 candidates with no modular split and no memo, and each checks the
    # deadline.
    f = [3, -5, 1, 1, 1, -2, 1]
    assert _split_mod(f, DEFAULT_LIMITS, None, 6) is None
    with pytest.raises(BudgetExceededError):
        _split_mod(f, GBLimits(deadline=time.monotonic() - 1), None, 6)


def test_term_budget_bounds_the_dense_coefficient_list(y):
    # A degree d at or above the term budget raises before the d + 1 dense
    # coefficients are allocated.
    p = parse_polynomial("Y^5 - 1", y)
    assert len(factor_univariate(p, GBLimits(max_term_count=6))[1]) == 2
    with pytest.raises(BudgetExceededError, match="^degree exceeds term budget$"):
        factor_univariate(p, GBLimits(max_term_count=5))
    with pytest.raises(BudgetExceededError):
        factor_univariate(parse_polynomial("Y^9999999999999999999", y))
