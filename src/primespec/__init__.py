"""Exact specialization toolkit for parametrized prime ideals over Q."""

__version__ = "0.1.0"

from .context import VariableContext, context
from .errors import (BudgetExceededError, ConfigError, ContextMismatchError,
                     HypothesisViolationError, PolynomialSyntaxError, PrimespecError,
                     UnknownVariableError)
from .factor import factor_univariate
from .groebner import (GBLimits, GroebnerBasis, Ideal, buchberger, eliminate,
                       fiber_dimension, ideal_dimension)
from .orders import MonomialOrder, grevlex, lex, target_first
from .parse import parse_ideal_source, parse_polynomial, read_ideal_file
from .poly import Polynomial, monomials_upto
from .primality import PrimalityVerdict, is_prime, minimal_polynomial
from .specialize import (generic_form, intersect_generic, specialize_polynomial,
                         specialize_scalar)

__all__ = [
    "VariableContext", "context",
    "PrimespecError", "ContextMismatchError", "PolynomialSyntaxError",
    "UnknownVariableError", "BudgetExceededError", "HypothesisViolationError",
    "ConfigError",
    "Polynomial", "monomials_upto",
    "parse_polynomial", "parse_ideal_source", "read_ideal_file",
    "MonomialOrder", "lex", "grevlex", "target_first",
    "GBLimits", "GroebnerBasis", "Ideal", "buchberger",
    "ideal_dimension", "eliminate", "fiber_dimension",
    "factor_univariate",
    "minimal_polynomial", "is_prime",
    "PrimalityVerdict",
    "specialize_scalar", "specialize_polynomial", "intersect_generic",
    "generic_form",
]
