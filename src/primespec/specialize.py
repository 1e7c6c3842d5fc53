"""The three specialization constructions on parametrized ideals.

* scalar specialization: substitute the parameters T by rational values,
* generic intersection: adjoin degree-bounded hypersurfaces whose
  coefficients are given as blocks of rationals, one block per
  hypersurface,
* polynomial specialization: substitute each T_i by a polynomial in the
  ambient variables.

Scalar and polynomial specialization take an ideal over the layout
(T | Y) of ``context`` and return one over (Y); generic intersection
works over (Y) alone.  ``generic_form`` builds every generic form with
one rational coefficient per support monomial, and ``generic_forms`` one
per degree from coefficient blocks: the cutting hypersurfaces and the
sampled polynomial values.

One cut, and a polynomial specialization at generic forms, are also
scalar specializations: P cut by the form with coefficients c, or P with
each T_i replaced by its form with coefficients c, is the fiber at L = c
of the root whose forms have parameters L as coefficients
(``Ideal.sampling_root``), with the same generators as
``intersect_generic`` or ``specialize_polynomial`` gives.  Experiments
sample them that way (``experiments.specialize_point``), so that every
sample reads its bases from a root's; two or more cuts, and a root that a
budget stops, are built here.
"""

from __future__ import annotations

import functools

from .errors import ContextMismatchError
from .groebner import DEFAULT_LIMITS, Ideal
from .poly import Polynomial, monomials_upto


def _target_without_params(ideal: Ideal):
    if ideal.context.r == 0:
        raise ContextMismatchError("ideal has no parameter block to specialize")
    return ideal.context.without_params()


def _images(ideal: Ideal, bindings, target, limits):
    """Each generator's image under ``bindings``; the deadline is checked before each.

    A binding is a polynomial, or an int or Fraction that
    ``Polynomial.substitute`` makes a Fraction.
    """
    for g in ideal.generators:
        limits.check_deadline()
        yield g.substitute(bindings, target)


def specialize_scalar(ideal: Ideal, values, limits=DEFAULT_LIMITS) -> Ideal:
    """Substitute the parameters by rational values, ints or Fractions; zero generators drop.

    At integer values the result remembers ``ideal`` and the values, as
    ints, so that ``Ideal.lifted`` reads its bases from ``ideal``'s (the
    ``groebner`` module docstring); at any other values it is its own root.
    Its generators are substituted when first read, under ``limits``, and
    only there do the values become Fractions (``_images``): a fiber
    certified from its root's bases never reads them, and builds none.
    """
    params = ideal.context.param_names
    values = tuple(values)
    if len(values) != len(params):
        raise ValueError(f"expected {len(params)} values, got {len(values)}")
    target = _target_without_params(ideal)
    bindings = dict(zip(params, values))
    integral = all(v.denominator == 1 for v in values)
    origin = (ideal, {name: v.numerator for name, v in bindings.items()}) if integral else None
    return Ideal(target, functools.partial(_images, ideal, bindings, target, limits),
                 origin=origin)


def specialize_polynomial(ideal: Ideal, values, limits=DEFAULT_LIMITS) -> Ideal:
    """Substitute each parameter by a polynomial in the ambient variables.

    With constant values this coincides exactly with scalar
    specialization.
    """
    params = ideal.context.param_names
    values = tuple(values)
    if len(values) != len(params):
        raise ValueError(f"expected {len(params)} polynomial values, got {len(values)}")
    target = _target_without_params(ideal)
    bindings = dict(zip(params, values))
    return Ideal(target, _images(ideal, bindings, target, limits))


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


def generic_forms(ctx, degrees, blocks) -> list[Polynomial]:
    """One ``generic_form`` over ``ctx`` per degree, its support ``monomials_upto`` that degree.

    ``blocks`` holds each form's coefficients in that order; a count or
    length mismatch raises ValueError.
    """
    return [generic_form(ctx, monomials_upto(ctx.s, degree), block)
            for degree, block in zip(degrees, blocks, strict=True)]


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
    return Ideal(ideal.context, [*ideal.generators, *generic_forms(ideal.context, degrees, blocks)])

