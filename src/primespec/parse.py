"""Parser for the ASCII polynomial grammar, and the reader of line-oriented files.

Grammar (whitespace insignificant):

    expr     := sign? term (('+'|'-') term)*
    term     := factor ('*'? factor)*
    factor   := rational | ident | '(' expr ')' | factor '^' uint
    rational := uint ('/' uint)?
    ident    := letter (letter|digit|'_')*

Digits are 0-9 and letters A-Z, a-z; any other character that is not
whitespace is an error at its position.  Implicit multiplication by
juxtaposition is accepted between a factor and an identifier or
parenthesis ("2Y", "3(Y+1)", "Y1 Y2").  Signs are handled at the term
level, so "-T" and "Y - 2" both parse.  The printer in ``poly`` emits a
subset of this grammar, so parse(print(p)) is the identity.

Ideal files, experiment configs and ``--poly-at`` files are read through
``source_lines``, which drops ``#`` comments and blank lines, and a
polynomial on one of their lines that does not parse names its line.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .context import VariableContext, context
from .errors import ConfigError, PolynomialSyntaxError, UnknownVariableError
from .poly import Polynomial

IDENTIFIER = r"[A-Za-z][A-Za-z0-9_]*"
NUMBER = r"[0-9]+"
_TOKEN = re.compile(
    rf"\s*(?:(?P<number>{NUMBER})|(?P<name>{IDENTIFIER})|(?P<op>[-+*^()/])|(?P<other>\S))")


def _tokenize(text):
    """(kind, value, position) of each token, then ("end", None, len(text)).

    An operator is its own kind; a number's value is its int, and a number
    too long for ``int()`` is an error at its position.
    """
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value, at = match[kind], match.start(kind)
        if kind == "other":
            raise PolynomialSyntaxError(f"unexpected character {value!r}", at)
        if kind == "number":
            try:
                value = int(value)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise PolynomialSyntaxError(f"number too long: {len(value)} digits", at) from None
        tokens.append((value if kind == "op" else kind, value, at))
    return tokens + [("end", None, len(text))]


def _expression(tokens, i, ctx):
    """The ``expr`` that starts at ``tokens[i]``, and the index of the token after it."""
    sign, total = tokens[i][0], None
    i += sign in ("+", "-")
    while True:
        term = None
        while True:
            factor, i = _primary(tokens, i, ctx)
            while tokens[i][0] == "^":
                kind, exponent, at = tokens[i + 1]
                if kind != "number":
                    raise PolynomialSyntaxError("exponent must be an unsigned integer", at)
                factor, i = factor ** exponent, i + 2
            term = factor if term is None else term * factor
            if tokens[i][0] == "*":
                i += 1
            elif tokens[i][0] not in ("name", "("):
                break
        term = -term if sign == "-" else term
        total = term if total is None else total + term
        sign = tokens[i][0]
        if sign not in ("+", "-"):
            return total, i
        i += 1


def _primary(tokens, i, ctx):
    """The number, rational, variable or ``(expr)`` at ``tokens[i]``, and the next index."""
    kind, value, at = tokens[i]
    if kind == "number":
        if tokens[i + 1][0] != "/":
            return Polynomial.constant(ctx, value), i + 1
        kind, denominator, at = tokens[i + 2]
        if kind != "number" or denominator == 0:
            raise PolynomialSyntaxError("denominator must be a positive integer", at)
        return Polynomial.constant(ctx, Fraction(value, denominator)), i + 3
    if kind == "name":
        if value not in ctx:
            raise UnknownVariableError(value, at)
        return Polynomial.variable(ctx, value), i + 1
    if kind == "(":
        inner, i = _expression(tokens, i + 1, ctx)
        kind, _, at = tokens[i]
        if kind != ")":
            raise PolynomialSyntaxError("expected ')'", at)
        return inner, i + 1
    raise PolynomialSyntaxError("expected a number, variable or parenthesized expression", at)


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse ``text`` into a canonical polynomial over ``ctx``."""
    tokens = _tokenize(text)
    result, i = _expression(tokens, 0, ctx)
    kind, value, at = tokens[i]
    if kind != "end":
        raise PolynomialSyntaxError(f"unexpected {value!r}", at)
    return result


# -- line-oriented files ------------------------------------------------------


def source_lines(text: str):
    """(line number, stripped text) of each line, with ``#`` comments and blank lines dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_polynomial_lines(lines, ctx: VariableContext) -> list[Polynomial]:
    """One polynomial per ``(line number, text)`` pair; a syntax error names its line."""
    polys = []
    for lineno, line in lines:
        try:
            polys.append(parse_polynomial(line, ctx))
        except PolynomialSyntaxError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return polys


def parse_ideal_source(text: str) -> tuple[VariableContext, list[Polynomial]]:
    """Read a line-oriented ideal definition.

    Format: optional ``params: T1, T2``, mandatory ``vars: Y1, Y2``, each
    at most once, then ``gens:`` followed by one polynomial per line.
    """
    lines = source_lines(text)
    names = {}
    for lineno, line in lines:
        if line.lower() == "gens:":
            break
        key, colon, value = line.partition(":")
        key = key.lower()
        if not colon or key not in ("params", "vars"):
            raise ConfigError(f"line {lineno}: expected params:/vars:/gens:, got {line!r}")
        if key in names:
            raise ConfigError(f"line {lineno}: duplicate '{key}:'")
        names[key] = tuple(part.strip() for part in value.split(",") if part.strip())
    else:
        lines = None  # no 'gens:' line
    if not names.get("vars"):
        raise ConfigError("ideal definition needs a 'vars:' line")
    if lines is None:
        raise ConfigError("ideal definition needs a 'gens:' section")
    ctx = context(names["vars"], params=names.get("params", ()))
    return ctx, parse_polynomial_lines(lines, ctx)


def read_ideal_file(path) -> tuple[VariableContext, list[Polynomial]]:
    with open(path, "r", encoding="ascii") as handle:
        return parse_ideal_source(handle.read())
