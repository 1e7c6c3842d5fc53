"""Quasi-generic polynomials and the sufficient hypothesis test.

The generic polynomial of degree D attaches one fresh coefficient
parameter to every power product of degree <= D in the ambient
variables; ``specialize.generic_form`` builds it.  A quasi-generic
polynomial restricts the parametrized support to a chosen monomial set
S (which must contain 1) and adds a fixed offset polynomial R.
``hypothesis_h_sufficient`` implements the sufficient non-degeneracy
test: the parametrized family is guaranteed non-degenerate when the
base ideal is non-maximal and every ambient variable is covered by S or
by R.  The test never claims failure; the only verdicts are
holds-by-lemma and unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import Block, ROLE_LAMBDA
from .errors import PrimespecError
from .groebner import DEFAULT_LIMITS, Ideal, fiber_dimension
from .poly import Exponent, Polynomial
from .primality import DEFAULT_TRIALS, NOT_PRIME, PRIME, is_prime
from .specialize import generic_form

HOLDS_BY_LEMMA = "holds_by_lemma"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class QuasiGenericSpec:
    """Support monomials S, offset polynomial R, and fresh parameter names.

    ``support`` holds exponent tuples over the Y-variables of the
    offset's context, with the constant monomial first.
    """

    support: tuple[Exponent, ...]
    offset: Polynomial
    lambda_names: tuple[str, ...]

    def __post_init__(self):
        if not self.support or any(self.support[0]):
            raise ValueError("support must start with the constant monomial 1")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support monomials must be distinct")
        if len(self.lambda_names) != len(self.support):
            raise ValueError("need one lambda name per support monomial")
        s = self.offset.context.s
        if any(len(exp) != s for exp in self.support):
            raise ValueError("support exponents must range over the Y-variables")
        clash = set(self.lambda_names) & set(self.offset.context.names)
        if clash:
            raise ValueError(f"lambda names collide with existing variables: {sorted(clash)}")


def quasi_generic(spec: QuasiGenericSpec) -> Polynomial:
    """Assemble sum(lambda_i * S_i) + R over the extended context."""
    ctx = spec.offset.context.adjoin_front(Block("L", ROLE_LAMBDA, spec.lambda_names))
    return generic_form(ctx, spec.support, spec.lambda_names) + spec.offset.embed(ctx)


@dataclass(frozen=True)
class HypothesisHStatus:
    status: str
    reason: str


def _offset_negated_param(spec: QuasiGenericSpec):
    """The parameter name when the offset is exactly -T_i, else None."""
    offset = spec.offset
    if len(offset.terms) != 1:
        return None
    [(exp, coeff)] = offset.terms.items()
    if coeff != -1 or sum(exp) != 1:
        return None
    position = exp.index(1)
    name = offset.context.names[position]
    if name in offset.context.param_names:
        return name
    return None


def hypothesis_h_sufficient(ideal: Ideal, spec: QuasiGenericSpec,
                            trials: int = DEFAULT_TRIALS, seed: int = 0,
                            limits=DEFAULT_LIMITS) -> HypothesisHStatus:
    """Sufficient test for the non-degeneracy hypothesis of the family.

    Plain reading: the base ideal must be non-maximal and every ambient
    variable must appear in the support or equal the offset.  When the
    offset is minus a parameter variable, the ambient ring is re-blocked
    over the fraction field of the other parameters and the support must
    cover all Y-variables, with the parameter covered by the offset.
    The verdict is never negative: anything uncertified stays unknown.
    """
    ctx = ideal.context
    if spec.offset.context != ctx:
        raise PrimespecError("spec offset and ideal must share a context")
    target_param = _offset_negated_param(spec)
    s = ctx.s
    unit_exps = []
    for j, name in enumerate(ctx.var_names):
        exp = [0] * s
        exp[j] = 1
        unit_exps.append(tuple(exp))

    if target_param is not None:
        covered = all(exp in spec.support for exp in unit_exps)
        if not covered:
            return HypothesisHStatus(
                UNKNOWN, "support does not contain every ambient variable")
        others = tuple(n for n in ctx.param_names if n != target_param) + ctx.lambda_names
        fiber_dim = fiber_dimension(ideal, others, limits)
        if fiber_dim > 0:
            return HypothesisHStatus(
                HOLDS_BY_LEMMA,
                f"re-blocked ideal has positive dimension {fiber_dim}; "
                f"support covers the variables and the offset covers {target_param}")
        return HypothesisHStatus(UNKNOWN, "cannot certify non-maximality after re-blocking")

    support_set = set(spec.support)
    for j, name in enumerate(ctx.var_names):
        if unit_exps[j] in support_set:
            continue
        if spec.offset == Polynomial.variable(ctx, name):
            continue
        return HypothesisHStatus(
            UNKNOWN, f"variable {name} is neither in the support nor equal to the offset")

    dim = ideal.dimension(limits)
    if dim == -1:
        raise PrimespecError("hypothesis test expects a proper ideal")
    if dim > 0:
        return HypothesisHStatus(HOLDS_BY_LEMMA,
                                 f"ideal has dimension {dim} > 0, hence is non-maximal")
    verdict = is_prime(ideal, trials=trials, seed=seed, limits=limits)
    if verdict.status == PRIME:
        return HypothesisHStatus(UNKNOWN, "ideal is maximal")
    if verdict.status == NOT_PRIME:
        return HypothesisHStatus(HOLDS_BY_LEMMA,
                                 "zero-dimensional ideal is not prime, hence non-maximal")
    return HypothesisHStatus(UNKNOWN, "primality of the zero-dimensional ideal is unresolved")
