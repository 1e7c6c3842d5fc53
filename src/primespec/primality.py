"""Primality verdicts for ideals via zero-dimensional quotient algebra.

For a zero-dimensional ideal the quotient is a finite-dimensional
vector space with the staircase monomials as basis.  A random linear
form whose minimal polynomial is irreducible of full degree certifies
the quotient is a field (deterministic Prime); a reducible minimal
polynomial yields a product pair lying in the ideal with both factors
outside it (certified NotPrime).  Positive-dimensional ideals are cut
down by random affine hyperplane sections: all sections must agree on
Prime (probabilistic verdict), and a section's NotPrime certificate is
only reported when it replays on the original ideal.

The Krylov elimination behind the minimal polynomial runs over Z: an
integer multiplication matrix of the quotient acts on primitive integer
coordinate vectors; ``Fraction``s appear only in the returned polynomials.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .context import context as make_context
from .errors import PrimespecError
from .factor import factor_univariate
from .groebner import DEFAULT_LIMITS, GroebnerBasis, Ideal, _divides, _mul
from .orders import grevlex
from .poly import Exponent, Polynomial, integer_primitive

PRIME = "prime"
NOT_PRIME = "not_prime"
UNIT_IDEAL = "unit_ideal"
INCONCLUSIVE = "inconclusive"

DEFAULT_TRIALS = 5
DEFAULT_BOX_START = 10
DEFAULT_BOX_CAP = 1 << 16

_MINPOLY_VARIABLE = "Z"


class ZeroDimQuotient:
    """Vector-space view of K[vars]/I for a zero-dimensional ideal.

    ``staircase`` lists the monomials below the grevlex staircase in
    increasing order.
    """

    def __init__(self, basis: GroebnerBasis, limits=DEFAULT_LIMITS):
        self.basis = basis
        self.limits = limits
        leads = basis.leading_exponents()
        n = len(basis.context)
        bounds = [None] * n
        for exp in leads:
            support = [i for i, e in enumerate(exp) if e]
            if len(support) == 1:
                i = support[0]
                if bounds[i] is None or exp[i] < bounds[i]:
                    bounds[i] = exp[i]
        if any(b is None for b in bounds):
            raise ValueError("leading terms admit no finite staircase (dimension > 0)")
        staircase = []
        for exp in _box(bounds):
            if not any(_divides(lead, exp) for lead in leads):
                staircase.append(exp)
        staircase.sort(key=grevlex.key)
        self.staircase: tuple[Exponent, ...] = tuple(staircase)
        self.index = {exp: i for i, exp in enumerate(staircase)}
        self.vector_dim = len(staircase)

    def reduce(self, p: Polynomial) -> Polynomial:
        return self.basis.normal_form(p, self.limits)


def _box(bounds):
    exps = [()]
    for bound in bounds:
        exps = [e + (k,) for e in exps for k in range(bound)]
    return exps


def minimal_polynomial(quotient: ZeroDimQuotient, element: Polynomial) -> Polynomial:
    """Monic least-degree m over Q with m(element) = 0 in the quotient.

    Returned as a univariate polynomial in the variable Z.  The Krylov
    powers 1, e, e^2, ... are reduced one at a time against an echelon
    form of the powers before them, kept as (pivot, row, combination)
    triples whose combination writes the row in the powers before it.
    The first power e^k that reduces to zero is a combination of the
    earlier ones; moved to the left and made monic, that combination is m.

    Everything runs over Z.  With e == factor * step, step a primitive
    integer map, the multiplication matrix M has column j equal to
    den * NF(step * b_j) for the staircase monomial b_j and one common
    integer den, so multiplying by e is (factor / den) * M on coordinate
    vectors.  e^k is kept as a primitive integer vector P_k with
    e^k = (num_k / den_k) * P_k; each power is one matrix-vector product
    and a content removal.  Rows and combinations are integer vectors
    over P_0, P_1, ..., combined by fraction-free cross-multiplication
    with content removal.
    """
    z_ctx = make_context((_MINPOLY_VARIABLE,))
    basis, limits, index = quotient.basis, quotient.limits, quotient.index
    n = quotient.vector_dim
    factor, step = integer_primitive(quotient.reduce(element).terms)
    columns = []
    for monomial in quotient.staircase:
        limits.check_deadline()
        columns.append(basis.pseudo_normal_form(
            {_mul(monomial, e): c for e, c in step.items()}, limits))
    # remainder == scale * NF, so den * NF == remainder * (den / scale)
    den = math.lcm(*(scale.numerator for _, scale in columns))
    matrix = [[0] * n for _ in range(n)]
    for j, (remainder, scale) in enumerate(columns):
        to_den = scale.denominator * (den // scale.numerator)
        for exp, c in remainder.items():
            matrix[index[exp]][j] = to_den * c
    step_num, step_den = factor.numerator, factor.denominator * den
    power = [0] * n
    power[index[(0,) * len(basis.context)]] = 1
    scales = [(1, 1)]
    rows = []
    for k in range(n + 1):
        limits.check_deadline()
        vec = power
        combo = [0] * (n + 1)
        combo[k] = 1
        for pivot, row, row_combo in rows:
            c = vec[pivot]
            if c:
                g = math.gcd(c, row[pivot])
                mult, c = row[pivot] // g, c // g
                vec = [mult * a - c * b for a, b in zip(vec, row)]
                combo = [mult * a - c * b for a, b in zip(combo, row_combo)]
                if mult != 1:
                    content = math.gcd(*vec, *combo)
                    if content != 1:
                        vec = [a // content for a in vec]
                        combo = [a // content for a in combo]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            # sum combo[i] * P_i = 0 with P_i = (den_i / num_i) * e^i
            coeffs = {(i,): Fraction(c * scales[i][1], scales[i][0])
                      for i, c in enumerate(combo) if c}
            lead = coeffs[(k,)]
            return Polynomial(z_ctx, {e: c / lead for e, c in coeffs.items()})
        rows.append((pivot, vec, combo))
        # e^(k+1) = (num_k / den_k) * (factor / den) * M P_k
        power = [sum(map(operator.mul, row, power)) for row in matrix]
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
    """One certification attempt: cutting forms, probe form, its minimal polynomial."""

    section_forms: tuple[Polynomial, ...]
    linear_form: Polynomial
    minimal_poly: Polynomial
    quotient_dim: int


@dataclass(frozen=True)
class PrimalityVerdict:
    status: str
    certificate: tuple[Polynomial, Polynomial] | None = None
    sections: tuple[SectionData, ...] = ()
    confidence_trials: int = 0
    probabilistic: bool = False
    reason: str = ""


def _certificate_error(basis: GroebnerBasis, f: Polynomial, g: Polynomial,
                       limits=DEFAULT_LIMITS) -> str | None:
    """Why (f, g) fails to certify NotPrime for the basis' ideal; None if it holds."""
    if not basis.contains(f * g, limits):
        return "f*g is not in the ideal"
    if basis.contains(f, limits) or basis.contains(g, limits):
        return "a factor lies in the ideal"
    return None


def not_prime_verdict(basis: GroebnerBasis, f: Polynomial, g: Polynomial,
                      trials: int, limits=DEFAULT_LIMITS,
                      sections=()) -> PrimalityVerdict:
    """NotPrime verdict; the certificate is re-verified before it is issued."""
    error = _certificate_error(basis, f, g, limits)
    if error is not None:
        raise PrimespecError(f"invalid certificate: {error}")
    return PrimalityVerdict(NOT_PRIME, certificate=(f, g), sections=tuple(sections),
                            confidence_trials=trials)


def _random_linear_form(ctx, rng, box, affine=False):
    terms = {}
    width = len(ctx)
    if affine:
        constant = rng.randint(-box, box)
        if constant:
            terms[(0,) * width] = Fraction(constant)
    for i in range(width):
        c = rng.randint(-box, box)
        if c:
            exp = [0] * width
            exp[i] = 1
            terms[tuple(exp)] = Fraction(c)
    return Polynomial(ctx, terms)


def _split_minimal_poly(m: Polynomial, limits):
    """(f, g) with f*g = m, both of positive degree, or None if irreducible."""
    unit, factors = factor_univariate(m, limits)
    if len(factors) == 1 and factors[0][1] == 1:
        return None
    first, first_mult = factors[0]
    g = Polynomial.constant(m.context, unit) * first ** (first_mult - 1)
    for fac, mult in factors[1:]:
        g = g * fac ** mult
    return first, g


def _evaluate_in_quotient(quotient: ZeroDimQuotient, univariate: Polynomial,
                          element_reduced: Polynomial) -> Polynomial:
    """Normal form of univariate(element), by Horner inside the quotient.

    Expanding the composition as a raw polynomial can explode in term
    count; reducing after every Horner step keeps each intermediate at
    most vector_dim terms wide.
    """
    ctx = quotient.basis.context
    coeffs = [Fraction(0)] * (univariate.total_degree() + 1)
    for exp, c in univariate.terms.items():
        coeffs[exp[0]] = c
    acc = Polynomial.zero(ctx)
    for c in reversed(coeffs):
        acc = quotient.reduce(acc * element_reduced + Polynomial.constant(ctx, c))
    return acc


def _field_test(quotient: ZeroDimQuotient, rng, trials,
                box_start, box_cap, limits) -> PrimalityVerdict:
    """Dimension-0 test: field certificate, NotPrime split, or Inconclusive."""
    basis = quotient.basis
    ctx = basis.context
    box = box_start
    for attempt in range(1, trials + 1):
        u = _random_linear_form(ctx, rng, box)
        if u.is_zero:
            box = min(2 * box, box_cap)
            continue
        m = minimal_polynomial(quotient, u)
        split = _split_minimal_poly(m, limits)
        if split is None:
            if m.total_degree() == quotient.vector_dim:
                data = SectionData((), u, m, quotient.vector_dim)
                return PrimalityVerdict(PRIME, sections=(data,), confidence_trials=attempt,
                                        probabilistic=False)
            box = min(2 * box, box_cap)  # u generates a proper subfield: retry
            continue
        f_z, g_z = split
        # The reduced images are the certificate: F*G = m(u) = 0 holds in
        # the quotient and minimality of m keeps both factors nonzero.
        reduced_u = quotient.reduce(u)
        f = _evaluate_in_quotient(quotient, f_z, reduced_u)
        g = _evaluate_in_quotient(quotient, g_z, reduced_u)
        return not_prime_verdict(basis, f, g, trials=attempt, limits=limits,
                                 sections=(SectionData((), u, m, quotient.vector_dim),))
    return PrimalityVerdict(INCONCLUSIVE, confidence_trials=trials,
                            reason="only degenerate linear forms drawn")


def is_prime(ideal: Ideal, trials: int = DEFAULT_TRIALS, seed: int = 0,
             box_start: int = DEFAULT_BOX_START, box_cap: int = DEFAULT_BOX_CAP,
             limits=DEFAULT_LIMITS) -> PrimalityVerdict:
    """Primality verdict for an ideal over the rationals.

    Dimension 0 gives deterministic answers (field certificate or a
    re-verified NotPrime pair).  In positive dimension the verdict
    Prime is probabilistic: ``trials`` independent random sections must
    all certify Prime; a section NotPrime certificate is reported only
    when it re-verifies against the original ideal, and disagreement
    yields Inconclusive.  Fixed seeds give identical verdicts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    basis = ideal.groebner(grevlex, limits)
    if basis.is_unit:
        return PrimalityVerdict(UNIT_IDEAL, reason="1 lies in the ideal")
    dim = ideal.dimension(limits)
    if dim == 0:
        quotient = ZeroDimQuotient(basis, limits)
        return _field_test(quotient, rng, trials, box_start, box_cap, limits)

    box = box_start
    sections = []
    for trial in range(1, trials + 1):
        section = None
        for _ in range(8):
            forms = tuple(_random_linear_form(ideal.context, rng, box, affine=True)
                          for _ in range(dim))
            if any(f.is_zero or f.is_constant for f in forms):
                box = min(2 * box, box_cap)
                continue
            candidate = ideal.adjoin(forms)
            if candidate.dimension(limits) == 0:
                section = (forms, candidate)
                break
            box = min(2 * box, box_cap)
        if section is None:
            return PrimalityVerdict(INCONCLUSIVE, confidence_trials=trial - 1,
                                    reason="no zero-dimensional section found")
        forms, cut = section
        quotient = ZeroDimQuotient(cut.groebner(grevlex, limits), limits)
        inner = _field_test(quotient, rng, trials, box, box_cap, limits)
        if inner.status == INCONCLUSIVE:
            return PrimalityVerdict(INCONCLUSIVE, confidence_trials=trial - 1,
                                    reason=inner.reason or "section test inconclusive")
        probe = replace(inner.sections[0], section_forms=forms)
        if inner.status == PRIME:
            sections.append(probe)
            continue
        f, g = inner.certificate
        if _certificate_error(basis, f, g, limits) is None:
            return PrimalityVerdict(NOT_PRIME, certificate=(f, g), sections=(probe,),
                                    confidence_trials=trial)
        return PrimalityVerdict(
            INCONCLUSIVE, confidence_trials=trial - 1,
            reason="a section is not prime but its certificate does not descend")
    return PrimalityVerdict(PRIME, sections=tuple(sections), confidence_trials=trials,
                            probabilistic=True)
