"""The three specialization constructions on parametrized ideals.

* scalar specialization: substitute the parameters T by rational values,
* generic intersection: adjoin degree-bounded hypersurfaces whose
  coefficients are given as blocks of rationals, one block per
  hypersurface,
* polynomial specialization: substitute each T_i by a polynomial in the
  ambient variables.

``generic_form`` builds every generic form, one coefficient per support
monomial, each a rational or a fresh lambda variable: the cutting
hypersurfaces, the sampled polynomial values, the relations below and
``genpoly.quasi_generic``.

``build_parametric_system`` assembles the symbolic counterpart of
polynomial specialization: fresh coefficient blocks L{i}_{j} and the
relations U_i(L_i, Y) - T_i adjoined to the ideal, so substituting the
coefficients and eliminating T reproduces the pointwise construction.
"""

from __future__ import annotations

from fractions import Fraction

from .context import Block, ROLE_LAMBDA, ROLE_PARAM
from .errors import ContextMismatchError
from .groebner import Ideal
from .poly import Polynomial, monomials_upto


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


def generic_form(ctx, support, coefficients) -> Polynomial:
    """The generic form sum(c_j * Y^e_j) over ``ctx``, one coefficient per monomial.

    The distinct exponents e_j in ``support`` range over ``ctx.var_names``.
    Each c_j is a rational or the name of a ``ctx`` variable (a fresh
    lambda coefficient).  Raises ValueError when the lengths do not match.
    """
    width = len(ctx)
    y_positions = ctx.indices_of(ctx.var_names)
    terms = {}
    for y_exp, coeff in zip(support, coefficients, strict=True):
        exp = [0] * width
        for position, e in zip(y_positions, y_exp, strict=True):
            exp[position] = e
        if isinstance(coeff, str):
            exp[ctx.index[coeff]] += 1
            coeff = 1
        terms[tuple(exp)] = coeff
    return Polynomial(ctx, terms)


def intersect_generic(ideal: Ideal, degrees, blocks) -> Ideal:
    """Adjoin specialized degree-bounded hypersurfaces to an ideal in K[Y].

    ``blocks`` holds one sequence of rationals per degree, the coefficients
    of that hypersurface in ``monomials_upto`` order; a count or length
    mismatch raises ValueError.  Requires len(degrees) <= dim of the
    quotient; an empty degree list returns the ideal unchanged.
    """
    degrees = tuple(degrees)
    if not degrees:
        return ideal
    if ideal.context.r or ideal.context.lambda_names:
        raise ContextMismatchError("generic intersection expects an ideal in the Y-variables only")
    d = ideal.dimension()
    if len(degrees) > d:
        raise ValueError(f"cannot cut {len(degrees)} times: dimension is {d}")
    s = ideal.context.s
    extra = [generic_form(ideal.context, monomials_upto(s, degree), block)
             for degree, block in zip(degrees, blocks, strict=True)]
    return ideal.adjoin(extra)


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
    supports = [monomials_upto(s, degree) for degree in degrees]
    blocks = [Block(f"L{i}", ROLE_LAMBDA, tuple(f"L{i}_{j}" for j in range(1, len(support) + 1)))
              for i, support in enumerate(supports, start=1)]
    ctx = ideal.context
    for block in reversed(blocks):
        ctx = ctx.adjoin_front(block)
    generators = [g.embed(ctx) for g in ideal.generators]
    for block, support, param in zip(blocks, supports, params):
        generators.append(generic_form(ctx, support, block.names) - Polynomial.variable(ctx, param))
    return Ideal(ctx, generators)
