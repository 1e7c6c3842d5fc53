"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from exponent tuples (one entry per context
variable) to nonzero ``fractions.Fraction`` values.  The zero polynomial
has an empty term map.  All operations return canonical forms: no zero
coefficient is ever stored, and printing iterates terms in descending
grevlex order so equal polynomials always print identically.

Values are immutable after construction; every operation builds a fresh
term map, and unpickling rebuilds a value through the constructor.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from .context import VariableContext
from .errors import ContextMismatchError
from .orders import grevlex

Exponent = tuple[int, ...]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Polynomial:
    __slots__ = ("context", "terms")

    def __init__(self, context: VariableContext, terms=None):
        canonical = {}
        width = len(context)
        if terms:
            for exp, coeff in terms.items():
                coeff = _coerce(coeff)
                if coeff:
                    if len(exp) != width:
                        raise ContextMismatchError(
                            f"exponent width {len(exp)} != context width {width}")
                    canonical[tuple(exp)] = coeff
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.context, self.terms)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(context) -> Polynomial:
        return Polynomial(context, {})

    @staticmethod
    def constant(context, value) -> Polynomial:
        return Polynomial(context, {(0,) * len(context): _coerce(value)})

    @staticmethod
    def variable(context, name) -> Polynomial:
        if name not in context:
            raise ContextMismatchError(f"variable {name!r} not in context")
        exp = [0] * len(context)
        exp[context.index[name]] = 1
        return Polynomial(context, {tuple(exp): Fraction(1)})

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def variables_used(self) -> tuple[str, ...]:
        used = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(i)
        return tuple(self.context.names[i] for i in sorted(used))

    # -- arithmetic ----------------------------------------------------------

    def _require_same_context(self, other):
        if self.context != other.context:
            raise ContextMismatchError("operands have different contexts")

    def __add__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        self._require_same_context(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            new = terms.get(exp, 0) + coeff
            if new:
                terms[exp] = new
            else:
                terms.pop(exp, None)
        return Polynomial(self.context, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        return (-self) + other

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            scalar = _coerce(other)
            if not scalar:
                return Polynomial.zero(self.context)
            return Polynomial(self.context, {e: c * scalar for e, c in self.terms.items()})
        self._require_same_context(other)
        return Polynomial(self.context, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.context, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.context == other.context
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    # -- context moves -------------------------------------------------------

    def embed(self, target: VariableContext) -> Polynomial:
        """Re-express in another context containing all used variables.

        ``substitute`` with no bindings; the polynomial itself when
        ``target`` is its own context.
        """
        if target == self.context:
            return self
        return self.substitute({}, target)

    # -- substitution ----------------------------------------------------------

    def substitute(self, bindings, target: VariableContext | None = None) -> Polynomial:
        """Ring-homomorphism image under variable -> polynomial bindings.

        Unbound variables pass through and must exist in the target
        context (default: this polynomial's own context).  The work runs
        on term maps: the powers of each image are cached, every term is
        multiplied out and added into one accumulator, and one polynomial
        is built at the end.
        """
        if target is None:
            target = self.context
        width = len(target)
        images: dict[int, dict[Exponent, Fraction]] = {}
        for name, value in bindings.items():
            if name not in self.context:
                raise ContextMismatchError(f"bound variable {name!r} not in context")
            if isinstance(value, (int, Fraction)):
                images[self.context.index[name]] = {(0,) * width: _coerce(value)} if value else {}
            else:
                images[self.context.index[name]] = value.embed(target).terms
        powers: dict[int, list[dict[Exponent, Fraction]]] = {i: [image] for i, image in images.items()}
        positions = [target.index.get(name) for name in self.context.names]

        acc: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            shift = [0] * width
            factors = []
            for i, e in enumerate(exp):
                if not e:
                    continue
                chain = powers.get(i)
                if chain is None:
                    if positions[i] is None:
                        raise ContextMismatchError(
                            f"variable {self.context.names[i]!r} not in context")
                    shift[positions[i]] = e
                    continue
                while len(chain) < e:
                    chain.append(_mul_terms(chain[-1], chain[0]))
                factors.append(chain[e - 1])
            term = {tuple(shift): coeff}
            for factor in factors:
                term = _mul_terms(term, factor)
            for e, c in term.items():
                acc[e] = acc.get(e, 0) + c
        return Polynomial(target, acc)

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"

    def to_string(self, order=grevlex) -> str:
        if not self.terms:
            return "0"
        names = self.context.names
        pieces = []
        for exp, coeff in sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(exp) if e]
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)


# -- term maps ----------------------------------------------------------------


def _mul_terms(a, b) -> dict[Exponent, Fraction]:
    """Product of two term maps; cancelled terms stay as zero entries."""
    out: dict[Exponent, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(add, e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return out


def integer_primitive(terms) -> tuple[Fraction, dict[Exponent, int]]:
    """Split a term map into (content, primitive) with terms == content * primitive.

    ``terms`` maps exponents to ints or Fractions.  The primitive map has
    coprime int coefficients and the content is positive; the empty map
    gives (0, {}).
    """
    den = math.lcm(*[c.denominator for c in terms.values()])
    ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    num = math.gcd(*ints.values())
    if num != 1:
        ints = {e: c // num for e, c in ints.items()}
    return Fraction(num, den), ints


def dense_table(terms, width: int):
    """The int coefficients of an integer term map in ``width`` variables, as nested lists.

    Entry i of the outer list is the table of the coefficient of x_1^i, a
    term map in the other variables.  An empty map is 0, and a constant map
    is its int at any width, so no table nests below a constant: the
    constant leading coefficient 1 of a root's element costs ``horner`` no
    recursion.  ``horner`` evaluates a table, and reads an int at any level
    as a constant.
    """
    if not terms:
        return 0
    if terms.keys() == {(0,) * width}:  # a constant, in any number of variables
        return terms[(0,) * width]
    parts = [{} for _ in range(1 + max(exp[0] for exp in terms))]
    for exp, c in terms.items():
        parts[exp[0]][exp[1:]] = c
    return [dense_table(part, width - 1) for part in parts]


def horner(table, values):
    """The value of a ``dense_table`` at a sequence of ints, by nested Horner steps."""
    if not isinstance(table, list):
        return table
    x, rest = values[0], values[1:]
    acc = 0
    for part in reversed(table):
        acc = acc * x + (horner(part, rest) if isinstance(part, list) else part)
    return acc


# -- monomial enumeration -------------------------------------------------


def monomials_upto(s: int, degree: int) -> list[Exponent]:
    """Exponent tuples in ``s`` variables of total degree <= ``degree``.

    Ordered by total degree, then descending lexicographically, so the
    listing starts 1, Y1, Y2, ..., Y1^2, Y1*Y2, ...
    """
    if s < 1:
        raise ValueError("need at least one variable")
    out = []
    for d in range(degree + 1):
        level = [exp for exp in itertools.product(range(d + 1), repeat=s) if sum(exp) == d]
        level.sort(reverse=True)
        out.extend(level)
    return out
