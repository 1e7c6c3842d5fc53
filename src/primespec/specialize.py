"""The three specialization constructions on parametrized ideals.

* scalar specialization: substitute the parameters T by rational values,
* generic intersection: adjoin degree-bounded hypersurfaces whose
  coefficients are specialized at a rational assignment,
* polynomial specialization: substitute each T_i by a polynomial in the
  ambient variables.

``build_parametric_system`` assembles the symbolic counterpart of
polynomial specialization: fresh coefficient blocks L{i}_{j} and the
relations U_i(L_i, Y) - T_i adjoined to the ideal, so substituting the
coefficients and eliminating T reproduces the pointwise construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .context import Block, ROLE_LAMBDA, ROLE_PARAM
from .errors import ContextMismatchError
from .groebner import Ideal
from .poly import Polynomial, monomials_upto


@dataclass(frozen=True)
class SpecializationPoint:
    """A scalar tuple in Q^r or a tuple of degree-bounded polynomials."""

    kind: str  # "scalar" | "poly"
    scalars: tuple[Fraction, ...] = ()
    polys: tuple[Polynomial, ...] = ()
    degree_bounds: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind == "scalar":
            object.__setattr__(self, "scalars", tuple(Fraction(v) for v in self.scalars))
        elif self.kind == "poly":
            if len(self.degree_bounds) != len(self.polys):
                raise ValueError("one degree bound per polynomial value required")
            for p, bound in zip(self.polys, self.degree_bounds):
                if p.total_degree() > bound:
                    raise ValueError(f"value {p} exceeds its degree bound {bound}")
        else:
            raise ValueError(f"unknown specialization kind {self.kind!r}")


@dataclass(frozen=True)
class LambdaAssignment:
    """Rational values for the coefficient blocks, one block per hypersurface."""

    blocks: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks",
                           tuple(tuple(Fraction(v) for v in block) for block in self.blocks))


def _target_without_params(ideal: Ideal):
    if ideal.context.r == 0:
        raise ContextMismatchError("ideal has no parameter block to specialize")
    return ideal.context.drop_role(ROLE_PARAM)


def specialize_scalar(ideal: Ideal, values) -> Ideal:
    """Substitute the parameters by rational values; zero generators drop."""
    params = ideal.context.param_names
    values = tuple(Fraction(v) for v in values)
    if len(values) != len(params):
        raise ValueError(f"expected {len(params)} values, got {len(values)}")
    target = _target_without_params(ideal)
    bindings = dict(zip(params, values))
    return Ideal(target, (g.substitute(bindings, target) for g in ideal.generators))


def specialize_polynomial(ideal: Ideal, values) -> Ideal:
    """Substitute each parameter by a polynomial in the ambient variables.

    With constant values this coincides exactly with scalar
    specialization.
    """
    params = ideal.context.param_names
    values = tuple(values)
    if len(values) != len(params):
        raise ValueError(f"expected {len(params)} polynomial values, got {len(values)}")
    target = _target_without_params(ideal)
    images = []
    for value in values:
        image = value if value.context == target else value.embed(target)
        images.append(image)
    bindings = dict(zip(params, images))
    return Ideal(target, (g.substitute(bindings, target) for g in ideal.generators))


def intersect_generic(ideal: Ideal, degrees, assignment: LambdaAssignment) -> Ideal:
    """Adjoin specialized degree-bounded hypersurfaces to an ideal in K[Y].

    Requires len(degrees) <= dim of the quotient; an empty degree list
    returns the ideal unchanged.
    """
    degrees = tuple(degrees)
    if not degrees:
        return ideal
    if ideal.context.r or ideal.context.lambda_names:
        raise ContextMismatchError("generic intersection expects an ideal in the Y-variables only")
    if len(assignment.blocks) != len(degrees):
        raise ValueError("one coefficient block per hypersurface required")
    d = ideal.dimension()
    if len(degrees) > d:
        raise ValueError(f"cannot cut {len(degrees)} times: dimension is {d}")
    ctx = ideal.context
    s = ctx.s
    extra = []
    for degree, block in zip(degrees, assignment.blocks):
        count = math.comb(s + degree, degree)
        if len(block) != count:
            raise ValueError(f"coefficient block has {len(block)} entries, expected {count}")
        terms = {}
        for exp, coeff in zip(monomials_upto(s, degree), block):
            if coeff:
                terms[exp] = terms.get(exp, 0) + coeff
        extra.append(Polynomial(ctx, terms))
    return ideal.adjoin(extra)


def lambda_block_names(index: int, degree: int, s: int) -> tuple[str, ...]:
    """Names L{index}_{j} for the coefficient block of one hypersurface."""
    count = math.comb(s + degree, degree)
    return tuple(f"L{index}_{j}" for j in range(1, count + 1))


def build_parametric_system(ideal: Ideal, degrees) -> Ideal:
    """Adjoin U_i(L_i, Y) - T_i for every parameter, over fresh L-blocks.

    Substituting rational values for the L-blocks and eliminating T
    reproduces ``specialize_polynomial`` at the corresponding values.
    """
    degrees = tuple(degrees)
    params = ideal.context.param_names
    if len(degrees) != len(params):
        raise ValueError(f"expected {len(params)} degrees, got {len(degrees)}")
    s = ideal.context.s
    ctx = ideal.context
    blocks = []
    for i, degree in enumerate(degrees, start=1):
        blocks.append(Block(f"L{i}", ROLE_LAMBDA, lambda_block_names(i, degree, s)))
    for block in reversed(blocks):
        ctx = ctx.adjoin_front(block)

    generators = [g.embed(ctx) for g in ideal.generators]
    y_positions = ctx.indices_of(ideal.context.var_names)
    for i, (degree, param) in enumerate(zip(degrees, params), start=1):
        names = blocks[i - 1].names
        terms = {}
        for j, y_exp in enumerate(monomials_upto(s, degree)):
            exp = [0] * len(ctx)
            exp[ctx.index[names[j]]] = 1
            for k, e in enumerate(y_exp):
                exp[y_positions[k]] = e
            terms[tuple(exp)] = Fraction(1)
        generic = Polynomial(ctx, terms)
        generators.append(generic - Polynomial.variable(ctx, param))
    return Ideal(ctx, generators)
