"""The three specialization constructions on parametrized ideals.

* scalar specialization: substitute the parameters T by rational values,
* generic intersection: adjoin degree-bounded hypersurfaces whose
  coefficients are given as blocks of rationals, one block per
  hypersurface,
* polynomial specialization: substitute each T_i by a polynomial in the
  ambient variables.

Scalar and polynomial specialization take an ideal over the layout
(T | Y) of ``context`` and return one over (Y); generic intersection
works over (Y) alone.  ``generic_form`` builds every generic form, one
rational coefficient per support monomial: the cutting hypersurfaces and
the sampled polynomial values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContextMismatchError
from .groebner import Ideal
from .poly import Polynomial, monomials_upto


def _target_without_params(ideal: Ideal):
    if ideal.context.r == 0:
        raise ContextMismatchError("ideal has no parameter block to specialize")
    return ideal.context.without_params()


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
    """The generic form sum(c_j * Y^e_j) over ``ctx``, one rational c_j per monomial.

    The distinct exponents e_j in ``support`` range over ``ctx.var_names``.
    Raises ValueError when the lengths do not match.
    """
    width = len(ctx)
    y_positions = ctx.indices_of(ctx.var_names)
    terms = {}
    for y_exp, coeff in zip(support, coefficients, strict=True):
        exp = [0] * width
        for position, e in zip(y_positions, y_exp, strict=True):
            exp[position] = e
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
    if ideal.context.r:
        raise ContextMismatchError("generic intersection expects an ideal in the Y-variables only")
    d = ideal.dimension()
    if len(degrees) > d:
        raise ValueError(f"cannot cut {len(degrees)} times: dimension is {d}")
    s = ideal.context.s
    extra = [generic_form(ideal.context, monomials_upto(s, degree), block)
             for degree, block in zip(degrees, blocks, strict=True)]
    return ideal.adjoin(extra)

