"""Primality verdicts for ideals via zero-dimensional quotient algebra.

For a zero-dimensional ideal the quotient is a finite-dimensional
vector space with the staircase monomials as basis.  A linear form whose
minimal polynomial is irreducible of full degree certifies the quotient
is a field (Prime); a reducible minimal polynomial m = c * f * g yields
the pair (f(form), g(form)) in normal form, whose product lies in the
ideal while minimality of m keeps both factors outside it (NotPrime).  The forms
tried are the coordinates, last first, then random ones: by the shape
lemma the last coordinate alone generates the quotient of an ideal in
general position (Gianni-Mora), with a minimal polynomial of small
coefficients.

In positive dimension the independent variables U are specialized, as
the paper specializes parameters (Gianni-Trager-Zacharias); U is the
first largest set of variables free of every grevlex leading term
(``Ideal.independent_set``), and V the rest.  Let G be elements of I
that form a Groebner basis of I Q(U)[V] under grevlex on V (the block
basis (V | U) of I is one), and h the product of their distinct
V-leading coefficients, polynomials in U.  Then I^e meet Q[x] = I : h^oo,
so a larger saturation yields NotPrime (g, h^k); otherwise one field
certificate at an integer u with h(u) != 0 proves I prime: the form's
characteristic polynomial has coefficients in the integrally closed
Q[U, 1/h], so a factorization over Q(U) would persist at u.  Points
whose test splits are redrawn.  u is also redrawn where h(u) = 0; at
every other u, G at U = u is a Groebner basis of the ideal there (the
rule of the ``groebner`` module docstring, U in the place of T), which
``specialize_basis`` builds.  So the quotient's staircase is that of G's
leads projected onto V, the same at every such u.  One field test runs
per u, and in dimension 0 one with no U and no u: it is handed
``lifted``'s block, its values, the part V and u, reads its dimension from
the block's staircase on V, and builds the basis at u from the block only
when a Krylov run needs it; ``minimal_polynomial`` reduces by that basis
and is handed the staircase already read.  Each test appends one section
per form it tries, recording U and u.

G, and the V-leading coefficients that make h, come from
``Ideal.lifted(V)``; in dimension 0, V is all variables.  For a
scalar fiber I_t of a base P at integers t that block is, where the rule
allows, P's basis under (V | T, U), cached on P: h is the product of its
V-leading coefficients at t, read from the integer tables the basis
compiles once (the ``groebner`` module docstring), as is h(u); only a
coefficient that is not constant can vanish at u, and h is built as a
polynomial only when one is not.  The basis at u is P's basis evaluated
at (t, u) in one step.  The fiber runs Buchberger on its own generators
only for the membership tests of a saturation certificate, or where
``lifted`` falls back; an ideal that is not such a fiber is its own
root.  A PolySpec sample and a generic intersection with one cut are such
fibers: their root is the base with its parameters replaced by, or cut
by, generic forms whose coefficients are parameters
(``Ideal.sampling_root``), and t is the sampled coefficient blocks.

A coordinate x of a scalar fiber at integer values t is first tried from
its root P: chi(T, U, W), the one generator of (P + (W - x)) meet
Q[T, U, W] (``Ideal.eliminant``, built on first use and cached on P),
lies in P at W = x, so chi(t, u, x) lies in I_t at U = u, the ideal
whose quotient is tested (h(u) != 0).  So the minimal polynomial m of x
divides chi(t, u, W).  When chi(t, u, W) has W-degree the quotient
dimension and is irreducible, equal degree and irreducibility
force m = chi(t, u, W) made monic: the section, and the verdict prime,
are those of the Krylov run, which is skipped.  ``_eliminant`` evaluates
chi at (t, u) in integers, one Horner pass per W-degree, makes that row
primitive and factors it in integers (``factor.factor_primitive``); it
builds m as a polynomial only when chi certifies, and otherwise abstains.
The factorization passes the root's memo of modular splits: chi(t, u, W)
mod p depends on (t, u) mod p only, so fibers at congruent points test it
for a repeated factor and split it mod p once.  The root owns the memo, as
it owns chi.  The memo is pure, keyed by p and the residues, so the Krylov
path factors its m with it too.  Everything else (a lower degree, a split,
a random form, an ideal that is no scalar fiber, such as a cut by two or
more forms, a sample whose root a budget stopped or a fiber at a t that is
not integral, no principal generator, chi over budget) takes the Krylov
path, which factors its own m with ``factor_univariate``: a chi of full
degree that splits is factored once as chi and once as m.  Minimal
polynomials are written over one context per ideal context
(``VariableContext.apart``), which the fibers of a root share.

The Krylov path runs over Z from the specialized basis to the verdict.
The form's integer multiplication matrix of the quotient is built once
(``_multiplication_matrix``); the Krylov elimination acts with it on
primitive integer coordinate vectors, each power reduced as one integer
row that carries the combination of powers giving it, and a split's two
certificate polynomials are evaluated from the same matrix by Horner on
integer vectors over one common denominator.  The cofactor of a split is
one exact integer division, and the certificate is checked by integer
pseudo-remainders of f, g and their integer product.  ``Fraction``s
appear only in the returned polynomials.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .context import context as make_context
from .errors import BudgetExceededError, ContextMismatchError, PrimespecError
from .factor import (_to_dense, _zx_div_exact, _zx_primitive, factor_primitive,
                     factor_univariate)
from .groebner import (DEFAULT_LIMITS, GroebnerBasis, Ideal, _mul, saturation,
                       specialize_basis)
from .poly import Polynomial, _mul_terms, horner, integer_primitive

PRIME = "prime"
NOT_PRIME = "not_prime"
UNIT_IDEAL = "unit_ideal"
INCONCLUSIVE = "inconclusive"

DEFAULT_TRIALS = 5
BOX_START = 10  # random draws come from [-box, box], box doubling from this per draw

_MINPOLY_VARIABLE = "Z"


def _multiplication_matrix(basis: GroebnerBasis, element: Polynomial, staircase, limits):
    """(M, num, den): multiplying by ``element`` is (num / den) * M on coordinate vectors.

    Coordinates are over the staircase monomials b_j, the constant first.
    With NF(element) == factor * step, step a primitive integer map, M has
    column j equal to d * NF(step * b_j) for one common integer d, and
    num / den == factor / d.  M is kept as its n columns of nonzero
    (row, value) entries, never as an n x n table.
    """
    if element.context != basis.context:
        raise ContextMismatchError("polynomial context differs from basis context")
    content, terms = integer_primitive(element.terms)
    remainder, scale = basis.pseudo_normal_form(terms, limits)
    unit, step = integer_primitive(remainder)
    factor = content * unit / scale
    index = {exp: i for i, exp in enumerate(staircase)}
    columns = []
    for monomial in staircase:
        limits.check_deadline()
        columns.append(basis.pseudo_normal_form(
            {_mul(monomial, e): c for e, c in step.items()}, limits))
    # remainder == scale * NF, so den * NF == remainder * (den / scale)
    den = math.lcm(*(scale.numerator for _, scale in columns))
    matrix = [[(index[exp], scale.denominator * (den // scale.numerator) * c)
               for exp, c in remainder.items()] for remainder, scale in columns]
    return matrix, factor.numerator, factor.denominator * den


def _apply(matrix, vector):
    """M V, M kept as columns of (row, value) entries."""
    product = [0] * len(vector)
    for column, c in zip(matrix, vector):
        if c:
            for i, v in column:
                product[i] += v * c
    return product


def minimal_polynomial(basis: GroebnerBasis, element: Polynomial,
                       variable=_MINPOLY_VARIABLE, limits=DEFAULT_LIMITS,
                       staircase=None, matrix=None) -> Polynomial:
    """Monic least-degree m over Q with m(element) = 0 modulo the basis' ideal.

    The quotient is a vector space with the monomials below the grevlex
    staircase as basis: ``basis.staircase``, unless a caller that already
    read it from the same leads passes it in, with the element's
    ``_multiplication_matrix`` over it if built.  ValueError in positive
    dimension, where the staircase is infinite.

    Returned as a univariate polynomial in ``variable``, a name or a
    one-variable context.  The Krylov powers 1, e, e^2, ... are reduced
    one at a time against an echelon form of the powers before them, kept
    as (pivot, row) pairs.  A row is augmented: its first n entries are a
    quotient vector and its last n + 1 the combination of powers that
    gives it, so power k enters as P_k followed by the k-th unit vector,
    and its pivot lies in the first n entries.  The first power e^k whose
    first n entries reduce to zero is a combination of the earlier ones;
    moved to the left and made monic, that combination is m.

    Everything runs over Z: multiplying by e is (num / den) * M with M
    the integer multiplication matrix.  e^k is kept as a primitive integer
    vector P_k with e^k = (num_k / den_k) * P_k; each power is one
    matrix-vector product, column by column, and a content removal.  Rows
    are combined by fraction-free cross-multiplication, and the content of
    the whole row is removed.
    """
    if staircase is None:
        staircase = basis.staircase(basis.context, limits)
    if staircase is None:
        raise ValueError("leading terms admit no finite staircase (dimension > 0)")
    z_ctx = make_context((variable,)) if isinstance(variable, str) else variable
    n = len(staircase)
    if matrix is None:
        matrix = _multiplication_matrix(basis, element, staircase, limits)
    matrix, step_num, step_den = matrix
    power = [1] + [0] * (n - 1)  # the constant monomial comes first
    scales = [(1, 1)]
    rows = []
    # The term budget binds on each elimination step as on a reduction step;
    # a row holds at most 2n + 1 terms.
    check_terms = 2 * n + 1 > limits.max_term_count
    for k in range(n + 1):
        limits.check_deadline()
        row = power + [int(i == k) for i in range(n + 1)]
        for pivot, other in rows:
            c = row[pivot]
            if c:
                g = math.gcd(c, other[pivot])
                mult, c = other[pivot] // g, c // g
                row = [mult * a - c * b for a, b in zip(row, other)]
                if check_terms and sum(map(bool, row)) > limits.max_term_count:
                    raise BudgetExceededError("Krylov row exceeds term budget")
                if mult != 1:
                    content = math.gcd(*row)
                    if content != 1:
                        row = [a // content for a in row]
        pivot = next((i for i in range(n) if row[i]), None)
        if pivot is None:
            # sum row[n + i] * P_i = 0 with P_i = (den_i / num_i) * e^i
            coeffs = {(i,): Fraction(c * scales[i][1], scales[i][0])
                      for i, c in enumerate(row[n:]) if c}
            lead = coeffs[(k,)]
            return Polynomial(z_ctx, {e: c / lead for e, c in coeffs.items()})
        rows.append((pivot, row))
        # e^(k+1) = (num_k / den_k) * (num / den) * M P_k
        power = _apply(matrix, power)
        unit = math.gcd(*power)
        num_k, den_k = scales[-1]
        if unit:
            power = [c // unit for c in power]
            num_k *= step_num * unit
            den_k *= step_den
        scales.append((num_k, den_k))
    raise PrimespecError("Krylov sequence exceeded the quotient dimension")


@dataclass(frozen=True)
class SectionData:
    """One field test at U = u (both empty in dimension 0): probe form, minimal polynomial."""

    independent: tuple[str, ...]
    point: tuple[int, ...]
    linear_form: Polynomial
    minimal_poly: Polynomial
    quotient_dim: int


@dataclass(frozen=True)
class PrimalityVerdict:
    status: str
    certificate: tuple[Polynomial, Polynomial] | None = None
    sections: tuple[SectionData, ...] = ()
    reason: str = ""


def _certificate_error(basis: GroebnerBasis, f: Polynomial, g: Polynomial,
                       limits=DEFAULT_LIMITS) -> str | None:
    """Why (f, g) fails to certify NotPrime for the basis' ideal; None if it holds.

    f*g is the product of the primitive integer parts of f and g, tested
    by its integer pseudo-remainder.
    """
    if not f.context == g.context == basis.context:
        raise ContextMismatchError("certificate context differs from basis context")
    product = _mul_terms(integer_primitive(f.terms)[1], integer_primitive(g.terms)[1])
    if basis.pseudo_normal_form({e: c for e, c in product.items() if c}, limits)[0]:
        return "f*g is not in the ideal"
    if basis.contains(f, limits) or basis.contains(g, limits):
        return "a factor lies in the ideal"
    return None


def not_prime_verdict(basis: GroebnerBasis, f: Polynomial, g: Polynomial,
                      limits=DEFAULT_LIMITS, sections=()) -> PrimalityVerdict:
    """NotPrime verdict; the certificate is re-verified before it is issued."""
    error = _certificate_error(basis, f, g, limits)
    if error is not None:
        raise PrimespecError(f"invalid certificate: {error}")
    return PrimalityVerdict(NOT_PRIME, certificate=(f, g), sections=tuple(sections))


def _linear_forms(ctx, rng, trials):
    """(name, form) for the coordinates, last first, then (None, form) for ``trials`` random forms.

    The k-th random form draws its coefficients from BOX_START * 2^k.
    """
    box = BOX_START
    for name in reversed(ctx.names):
        yield name, Polynomial.variable(ctx, name)
    for _ in range(trials):
        coeffs = [rng.randint(-box, box) for _ in ctx.names]
        yield None, Polynomial(ctx, {tuple(int(i == j) for j in range(len(ctx))): Fraction(c)
                                     for i, c in enumerate(coeffs) if c})
        box *= 2


def _split_minimal_poly(m: Polynomial, limits, splits):
    """(c, f, g) with m = c * f * g, f and g integer rows of positive degree; None if m is irreducible.

    Rows are dense, constant term first.  f is the first factor
    ``factor_univariate`` finds, with the root's memo of modular splits
    ``splits``, and g the primitive integer row of m divided by f: one
    exact division, since f is primitive (Gauss).
    """
    _, factors = factor_univariate(m, limits, splits)
    if len(factors) == 1 and factors[0][1] == 1:
        return None
    row = list(integer_primitive(dict(enumerate(_to_dense(m)[1])))[1].values())
    first = [c.numerator for c in _to_dense(factors[0][0])[1]]
    return Fraction(1, row[-1]), first, _zx_div_exact(row, first)


def _evaluate_in_quotient(basis: GroebnerBasis, staircase, matrix, row, scale,
                          limits=DEFAULT_LIMITS) -> Polynomial:
    """Normal form of scale * row(e) modulo the basis' ideal, by Horner on coordinates.

    ``matrix`` is the ``_multiplication_matrix`` of e over ``staircase`` and
    ``row`` an integer polynomial, constant term first.  The accumulator is
    one integer coordinate vector V over one common denominator D; a step
    V / D -> (V / D) * e + c multiplies V by num * M, adds c * den * D to
    the constant coordinate, multiplies D by den, and divides out the
    content of V and D.  Normal forms are unique, so this is the normal
    form of the composition, with no polynomial built on the way.
    """
    matrix, num, den = matrix
    vector, common = [0] * len(staircase), 1
    for c in reversed(row):
        limits.check_deadline()
        vector = [num * v for v in _apply(matrix, vector)]
        common *= den
        vector[0] += c * common
        content = math.gcd(common, *vector)
        vector, common = [v // content for v in vector], common // content
    factor = Fraction(scale, common)
    return Polynomial(basis.context, {e: factor * v for e, v in zip(staircase, vector) if v})


def _eliminant(root: Ideal, name, free, at, n, z_ctx, limits) -> Polynomial | None:
    """The minimal polynomial of the coordinate ``name`` from the root's eliminant, or None.

    chi is the root's ``Ideal.eliminant`` over (T, U), U = ``free``, at the
    integers ``at`` = (t, u): an integer row in W, made primitive with a
    positive lead.  Where it has W-degree ``n`` and ``factor_primitive``,
    with the root's memo of modular splits that fibers at congruent t
    share, finds it irreducible, chi made monic over ``z_ctx`` is the
    coordinate's minimal polynomial (module docstring); otherwise None.
    """
    rows = root.eliminant(name, free, limits)
    limits.check_deadline()
    if rows is None:
        return None
    chi = [horner(row, at) for row in rows]
    while chi and not chi[-1]:
        chi.pop()
    if len(chi) != n + 1:
        return None
    chi = _zx_primitive(chi)
    if factor_primitive(chi, limits, root._splits) != [(chi, 1)]:
        return None
    return Polynomial(z_ctx, {(k,): Fraction(c, chi[-1]) for k, c in enumerate(chi) if c})


def _field_test(ideal, block, values, part, point, rng, trials, limits,
                z_ctx) -> PrimalityVerdict:
    """Dimension-0 test of ``ideal`` at U = u: field certificate, NotPrime split, or Inconclusive.

    ``block`` and ``values`` are ``Ideal.lifted(part)``'s basis and values,
    ``part`` holds the variables other than U, and ``point`` maps each name
    of U to its integer in u, empty in dimension 0.  The staircase is read
    from the block's leads on ``part``, and the basis at u is
    ``specialize_basis`` of the block at (values, u), built only when a
    Krylov run needs it.  The forms tried are the coordinates, last first
    (module docstring), then ``trials`` random forms; coordinates draw
    nothing from ``rng``.  Minimal polynomials are written over the
    one-variable context ``z_ctx``.  Each nonzero form tried records one
    ``SectionData``, the deciding one last.  Where ``ideal`` is a scalar
    fiber, a coordinate is first tried from its root's eliminant
    (``_eliminant``), which certifies it or abstains; every form it does
    not certify takes the Krylov run, whose m is factored with the root's
    memo of modular splits.
    """
    staircase = block.staircase(part, limits)
    n = len(staircase)
    free, at_u = tuple(point), tuple(point.values())
    root, root_values = ideal.root
    at = [*root_values.values(), *at_u]
    basis = None
    zero = 0
    sections = []
    for name, form in _linear_forms(part, rng, trials):
        if form.is_zero:
            zero += 1
            continue
        m = (_eliminant(root, name, free, at, n, z_ctx, limits)
             if root_values and name is not None else None)
        split = None
        if m is None:
            if basis is None:
                basis = specialize_basis(block, {**values, **point}, part, limits)
            matrix = _multiplication_matrix(basis, form, staircase, limits)
            m = minimal_polynomial(basis, form, z_ctx, limits, staircase, matrix)
            split = _split_minimal_poly(m, limits, root._splits)
        sections.append(SectionData(free, at_u, form, m, n))
        if split is None:
            if m.total_degree() == n:
                return PrimalityVerdict(PRIME, sections=tuple(sections))
            continue  # the form generates a proper subfield: next form
        # The reduced images are the certificate: F*G = m(form) = 0 holds in
        # the quotient and minimality of m keeps both factors nonzero.
        scale, *rows = split
        f, g = (_evaluate_in_quotient(basis, staircase, matrix, row, c, limits)
                for row, c in zip(rows, (1, scale)))
        return not_prime_verdict(basis, f, g, limits, sections=sections)
    return PrimalityVerdict(INCONCLUSIVE, sections=tuple(sections), reason=(
        f"no field certificate from {len(part)} coordinate(s) and {trials} random linear "
        f"form(s): {zero} zero, {len(sections)} with an irreducible minimal polynomial of "
        f"degree below {n}"))


def _vanishes(coefficient, positions, point) -> bool:
    """True when a ``lifted`` int coefficient map is 0 at the values ``point`` of ``positions``."""
    return not sum(c * math.prod(v ** exp[i] for i, v in zip(positions, point))
                   for exp, c in coefficient.items())


class _Draws:
    """The draws of ``random.Random(seed)``, which is seeded on the first one."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = None

    def randint(self, a, b):
        if self.rng is None:
            self.rng = random.Random(self.seed)
        return self.rng.randint(a, b)


def is_prime(ideal: Ideal, trials: int = DEFAULT_TRIALS, seed: int = 0,
             limits=DEFAULT_LIMITS) -> PrimalityVerdict:
    """Certified primality verdict for an ideal over the rationals (module docstring).

    ``trials`` bounds the random linear forms after the coordinates per
    field test and, in positive dimension, the points u; both draw from
    boxes that start at ``BOX_START`` and double per draw.  ``sections``
    holds one ``SectionData`` per nonzero form tried, the certifying one
    last.  Fixed seeds give identical verdicts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = _Draws(seed)
    z_ctx = ideal.context.apart(_MINPOLY_VARIABLE)  # Z, or Z_, Z__, ... when the ideal has a Z
    independent = ideal.independent_set(limits=limits)
    if independent is None:
        return PrimalityVerdict(UNIT_IDEAL, reason="1 lies in the ideal")
    ctx = ideal.context
    if not independent:
        block, values, _ = ideal.lifted(ctx, limits)
        return _field_test(ideal, block, values, ctx, {}, rng, trials, limits, z_ctx)
    if len(independent) == len(ctx):
        return PrimalityVerdict(PRIME)  # the zero ideal: Q[x] is a domain

    free = tuple(ctx.names[i] for i in independent)
    bound = ctx.without(free)
    block, values, leading = ideal.lifted(bound, limits)
    constant = (0,) * len(ctx)
    # the coefficients that can vanish at a point u: a constant one is a nonzero int
    varying = [coefficient for _, coefficient in leading if coefficient.keys() != {constant}]
    if varying:
        h = math.prod({Polynomial(ctx, {e: Fraction(c, lc) for e, c in coefficient.items()})
                       for lc, coefficient in leading}, start=Polynomial.constant(ctx, 1))
        basis = ideal.groebner(limits=limits)
        for g in saturation(ideal, h, limits).generators:
            if not basis.contains(g, limits):
                power = h  # h^k lies outside I because I meets Q[U] only in 0
                while not basis.contains(g * power, limits):
                    power = power * h
                return not_prime_verdict(basis, g, power, limits)

    positions = ctx.indices_of(free)
    sections = []
    box = BOX_START
    for _ in range(trials):
        point = {name: rng.randint(-box, box) for name in free}
        box *= 2
        if any(_vanishes(coefficient, positions, point.values()) for coefficient in varying):
            continue  # h(u) = 0, where specialize_basis returns None
        inner = _field_test(ideal, block, values, bound, point, rng, trials, limits, z_ctx)
        sections += inner.sections
        if inner.status == PRIME:
            return PrimalityVerdict(PRIME, sections=tuple(sections))
    return PrimalityVerdict(INCONCLUSIVE, sections=tuple(sections),
                            reason=f"no field certificate at {trials} specialization points u")
